"""Workloads of the tilelab benchmark: inputs, set-up, timed loop and checks.

Every workload is a closed loop with one client: the next call into tilelab
starts only after the previous one has returned.  Work is grouped into
passes of identical shape (the seed only reorders a pass, or draws the
tilings of a requests round from the pinned pool), so that per-pass rates of
different runs measure the same work.

Operations and their checks, all against ``pinned.json`` recorded on the
seed commit (see ``pin.py``):

  census, orbit  one complete corpus of Z_M: tiling count and a checksum of
                 the (A, B) masks; for orbit also every orbit check passing
  sweep          one in-process ``tilelab sweep`` call: exit code 0, no
                 violations, and the sha256 of stdout
  requests       one in-process CLI request: exit code and sha256 of stdout;
                 a ``prove`` also needs ``"replayed": true``

A mismatch counts as a failed operation; it is never skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import time
from array import array

WORKLOADS = ("census", "orbit", "sweep", "requests")

# Complete corpora streamed per census pass: two-prime, prime-power,
# two-prime and three-prime moduli (136,242 tilings).
CENSUS_MODULI = (24, 27, 28, 30)
# Complete corpora per orbit pass, each tiling orbit-checked (28,700 tilings).
ORBIT_MODULI = (20, 24, 27)
# (M, --limit) of the serial `sweep M --check all` calls in one sweep pass.
# A call's latency sample is its time per tiling, so 60% of the samples are
# Z_24 tilings and 40% Z_60 ones: p50 falls inside the first group and p90
# inside the second, never on the gap between them.
SWEEP_CALLS = ((24, 48), (24, 96), (24, 192), (60, 8), (60, 16))
# --limit of the set-up sweep call made once per sweep modulus.
SWEEP_WARMUP_LIMIT = 12
# Moduli of the single-tiling requests; complement search only up to 120
# because its search time is heavy-tailed on larger moduli.
REQUEST_MODULI = (72, 84, 120, 180, 360, 720)
COMPLEMENT_MODULI = (72, 84, 120)
COMPLEMENT_LIMIT = 4
REQUEST_KINDS = ("verify", "analyze", "prove", "complements")
# The request pool is generated from this seed and its outputs are pinned.
# Index 0 of every modulus is the warm-up tiling and is never timed; a
# requests pass sends every other pool request once, in seeded order.
POOL_SEED = 1
POOL_PER_MODULUS = 13
RESERVOIR_SIZE = 1 << 15
# Calibration: the kernel below is timed between segments of work (a slice
# of a corpus, a sweep call, a group of requests), and each segment's time is
# scaled by (CALIBRATION_REF_S / k) ** CALIBRATION_EXPONENT, k the mean of
# the kernel readings on its two sides.  Other tenants of a shared machine
# slow every process by 20-40% for tens of seconds at a time; the kernel sees
# the slowdown too, so the scaled times stay put while raw ones drift.  The
# workloads slow down less than the kernel does: an exponent of 0.8
# minimised the pass-to-pass spread of all four in 170-200 s recordings.  The
# kernel is pure Python and shares no code with tilelab, so a change to
# tilelab cannot move it.  CALIBRATION_REF_S only sets the scale: results
# read as if the kernel took 15 ms, its time on an idle core of the machine
# that recorded the bounds (Intel Xeon at 2.1 GHz, Python 3.11.7).
CALIBRATION_REF_S = 0.015
CALIBRATION_EXPONENT = 0.8
REQUESTS_PER_SEGMENT = 21
# Tilings per segment of a census / orbit corpus (about 0.3 s each).
CORPUS_SEGMENT = {False: 16384, True: 2048}


# ---------------------------------------------------------------------------
# input generation (pure Python; the program only ever sees the results)


def _units(M: int) -> list[int]:
    return [r for r in range(1, M) if math.gcd(r, M) == 1]


def _prime_factors(M: int) -> list[int]:
    out, d = [], 2
    while d * d <= M:
        while M % d == 0:
            out.append(d)
            M //= d
        d += 1
    if M > 1:
        out.append(M)
    return out


def digit_tiling(M: int, rng: random.Random) -> dict:
    """A digit-product tiling of Z_M over a random factor chain, dilated.

    M = m_1 m_2 ... m_k with the prime factors shuffled and grouped at
    random; level j contributes the digits {d * m_1...m_{j-1} : d < m_j} to
    A or to B (each side gets at least one level), which tiles Z_M by mixed
    radix.  A and B are then dilated by independent random units, which keeps
    the pair a tiling (Tijdeman's dilation theorem) and mixes the residues.
    """
    factors = _prime_factors(M)
    rng.shuffle(factors)
    chain, cur = [], 1
    for f in factors:
        cur *= f
        if rng.random() < 0.6:
            chain.append(cur)
            cur = 1
    if cur > 1:
        chain.append(cur)
    if len(chain) < 2:
        chain = [factors[0], M // factors[0]]
    sides = [rng.random() < 0.5 for _ in chain]
    if all(sides):
        sides[rng.randrange(len(sides))] = False
    elif not any(sides):
        sides[rng.randrange(len(sides))] = True
    A, B, place = [0], [0], 1
    for m, to_a in zip(chain, sides):
        digits = [d * place for d in range(m)]
        if to_a:
            A = [a + d for a in A for d in digits]
        else:
            B = [b + d for b in B for d in digits]
        place *= m
    units = _units(M)
    ra, rb = rng.choice(units), rng.choice(units)
    return {"M": M, "A": sorted(a * ra % M for a in A),
            "B": sorted(b * rb % M for b in B)}


def request_pool(seed: int = POOL_SEED) -> dict[int, list[dict]]:
    """POOL_PER_MODULUS generated tilings for every request modulus."""
    rng = random.Random(seed)
    return {M: [digit_tiling(M, rng) for _ in range(POOL_PER_MODULUS)]
            for M in REQUEST_MODULI}


def pool_digest(pool: dict[int, list[dict]]) -> str:
    return _sha(json.dumps({str(M): ts for M, ts in pool.items()},
                           sort_keys=True))


def request_strata() -> list[tuple[str, int]]:
    """(kind, M) pairs: the kinds of request sent for each modulus."""
    return [(kind, M) for kind in REQUEST_KINDS for M in REQUEST_MODULI
            if kind != "complements" or M in COMPLEMENT_MODULI]


def request_argv(kind: str, tiling: dict) -> list[str]:
    if kind == "verify":
        return ["verify", json.dumps(tiling)]
    if kind == "analyze":
        return ["analyze", json.dumps(tiling), "--split", "--slab"]
    if kind == "prove":
        return ["prove", json.dumps(tiling)]
    tile = json.dumps({"M": tiling["M"], "A": tiling["A"]})
    return ["complements", tile, "--limit", str(COMPLEMENT_LIMIT)]


def sweep_argv(M: int, limit: int) -> list[str]:
    return ["sweep", str(M), "--check", "all", "--limit", str(limit)]


def request_key(kind: str, M: int, index: int) -> str:
    return f"{kind}/{M}/{index}"


def sweep_key(M: int, limit: int) -> str:
    return f"{M}/{limit}"


# ---------------------------------------------------------------------------
# primitive operations, shared by the timed loop and pin.py


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reset_tile_caches(tl) -> None:
    """Empty the per-tile memo tables before a CLI call.

    Each call stands for one `tilelab` invocation on inputs it has not seen;
    repeated draws from the pool would otherwise be served from
    cyclo_profile / div_set and make latency depend on the seed's repeats.
    Per-modulus state (factorize, the cyclotomic polynomial table) stays warm:
    it is paid in set-up.
    """
    for fn in (getattr(tl.cyclotomic, "cyclo_profile", None),
               getattr(tl.tiling, "div_set", None)):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


def run_cli(tl, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tl.cli.main(argv)
    return code, buf.getvalue()


class Reservoir:
    """Uniform fixed-size sample of a stream of latencies (Algorithm R),
    each kept with the id of the segment it was measured in.

    Census and orbit deliver hundreds of thousands of tilings per run; a
    fixed buffer keeps the sample's memory independent of throughput, so it
    cannot show up in peak_rss_mb.
    """

    def __init__(self, size: int, seed: int):
        self.buf = array("d", bytes(8 * size))
        self.segs = array("l", bytes(array("l").itemsize * size))
        self.size = size
        self.seen = 0
        self.segment = 0
        self.rand = random.Random(seed).random

    def add(self, x: float) -> None:
        n = self.seen
        self.seen = n + 1
        if n >= self.size:
            n = int(self.rand() * (n + 1))
            if n >= self.size:
                return
        self.buf[n] = x
        self.segs[n] = self.segment

    def scaled(self, factors: list[float]) -> list[float]:
        """The sample, each value times its segment's factor."""
        n = min(self.seen, self.size)
        return [x * factors[k] for x, k in zip(self.buf[:n], self.segs[:n])]


def stream_corpus(tl, M: int, orbit: bool, add,
                  segment=lambda raw: None) -> dict:
    """Stream every normalized tiling of Z_M; optionally orbit-check each.

    `add` receives the latency of every tiling: the wait for it from the
    stream, plus its orbit check.  Every CORPUS_SEGMENT tilings, and at the
    end, `segment` receives the seconds spent since the previous call.
    """
    ctx = tl.factorize(M)
    check = tl.tijdeman_orbit_check if orbit else None
    chunk = CORPUS_SEGMENT[orbit]
    count = 0
    checksum = 0
    bad = 0
    clock = time.perf_counter
    start = prev = clock()
    for t in tl.iter_tilings(ctx):
        if check is not None:
            try:
                if not check(t):
                    bad += 1
            except tl.errors.TilelabError:
                bad += 1
        now = clock()
        add(now - prev)
        count += 1
        checksum += (t.A.mask << M) | t.B.mask
        if count % chunk == 0:
            segment(now - start)
            start = now = clock()
        prev = now
    segment(clock() - start)
    return {"count": count, "checksum": format(checksum % (1 << 64), "016x"),
            "orbit_failures": bad}


def corpus_ok(seen: dict, pinned: dict) -> bool:
    return (seen["count"] == pinned["count"]
            and seen["checksum"] == pinned["checksum"]
            and seen["orbit_failures"] == 0)


def sweep_call(tl, M: int, limit: int) -> dict:
    reset_tile_caches(tl)
    code, out = run_cli(tl, sweep_argv(M, limit))
    try:
        report = json.loads(out)
        violations = len(report["violations"])
        tilings = report["counts"]["tilings"]
    except (ValueError, KeyError, TypeError):
        violations, tilings = -1, -1
    return {"code": code, "sha256": _sha(out), "violations": violations,
            "tilings": tilings}


def sweep_ok(seen: dict, pinned_sha: str, limit: int) -> bool:
    return (seen["code"] == 0 and seen["violations"] == 0
            and seen["tilings"] == limit and seen["sha256"] == pinned_sha)


def request_call(tl, kind: str, tiling: dict) -> dict:
    reset_tile_caches(tl)
    code, out = run_cli(tl, request_argv(kind, tiling))
    replayed = None
    if kind == "prove":
        try:
            replayed = json.loads(out).get("replayed") is True
        except ValueError:
            replayed = False
    return {"code": code, "sha256": _sha(out), "replayed": replayed}


def request_ok(seen: dict, pinned: list) -> bool:
    code, sha = pinned
    return (seen["code"] == code and seen["sha256"] == sha
            and seen["replayed"] is not False)


# ---------------------------------------------------------------------------
# calibration


def _kernel() -> int:
    """A fixed slice of interpreter work of the kinds tilelab does: integer
    and bitmask arithmetic, small sets, tuples, dicts and calls."""
    acc = 0
    seen = set()
    counts: dict[int, int] = {}
    mask = (1 << 60) - 1
    for i in range(16_000):
        v = (i * 2654435761) & 0xFFFF
        acc ^= ((v << (i & 31)) | (acc >> 7)) & mask
        key = (v & 63, i & 7)
        counts[key[0]] = counts.get(key[0], 0) + 1
        if not v & 3:
            seen.add(key)
        acc += len(_kernel_row(v))
    return acc + len(seen) + len(counts)


def _kernel_row(v: int) -> list[int]:
    return [v % d for d in (3, 5, 7)]


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def calibration_factor(kernel_s: float) -> float:
    """What to multiply a time measured alongside this kernel reading by."""
    return (CALIBRATION_REF_S / kernel_s) ** CALIBRATION_EXPONENT


# ---------------------------------------------------------------------------
# set-up and the timed loop


class Run:
    """State of one workload process: inputs, set-up, passes, results."""

    def __init__(self, tl, workload: str, seed: int, pinned: dict):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.tl = tl
        self.workload = workload
        self.pinned = pinned
        self.rng = random.Random(seed)
        self.gen_s = 0.0
        self.pool = None
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.tilings = 0
        self.requests = 0
        self.latency = Reservoir(RESERVOIR_SIZE, seed)
        # per pass: (tilings, requests, raw seconds, scaled seconds)
        self.passes: list[tuple[int, int, float, float]] = []
        self.factors: list[float] = []   # calibration factor per segment
        self._cal = None
        self._raw = self._scaled = 0.0

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """factorize every modulus and warm the CLI paths; generate inputs.

        Input generation is timed separately (gen_s) so that set-up time
        can exclude it.
        """
        tl = self.tl
        if self.workload == "census":
            for M in CENSUS_MODULI:
                tl.factorize(M)
        elif self.workload == "orbit":
            for M in ORBIT_MODULI:
                tl.factorize(M)
        elif self.workload == "sweep":
            for M in sorted({M for M, _ in SWEEP_CALLS}):
                tl.factorize(M)
                self._warm(sweep_argv(M, SWEEP_WARMUP_LIMIT))
        else:
            t0 = time.monotonic()
            self.pool = request_pool()
            self.gen_s = time.monotonic() - t0
            if pool_digest(self.pool) != self.pinned["requests"]["pool_sha256"]:
                raise RuntimeError("request pool differs from the pinned one")
            for M in REQUEST_MODULI:
                tl.factorize(M)
            for kind, M in request_strata():
                self._warm(request_argv(kind, self.pool[M][0]))
        reset_tile_caches(tl)

    def _warm(self, argv: list[str]) -> None:
        code, _ = run_cli(self.tl, argv)
        if code != 0:
            raise RuntimeError(f"warm-up call {argv[:1]} exited {code}")

    # -- passes ----------------------------------------------------------

    def run(self, seconds: float | None, passes: int | None = None) -> float:
        """Run whole passes until the next one would end after `seconds`,
        or exactly `passes` of them; returns the wall time spent."""
        start = time.perf_counter()
        self._cal = calibrate()
        done = 0
        while True:
            self._raw = self._scaled = 0.0
            tilings, requests = getattr(self, "_pass_" + self.workload)()
            self.passes.append((tilings, requests, self._raw, self._scaled))
            self.tilings += tilings
            self.requests += requests
            done += 1
            elapsed = time.perf_counter() - start
            if passes is not None:
                if done >= passes:
                    return elapsed
            elif elapsed + elapsed / done > seconds:
                return elapsed

    def _segment(self, raw: float) -> None:
        """Close a segment of work that took `raw` seconds: time the kernel
        and scale the segment by the mean of the readings on its sides."""
        cal = calibrate()
        factor = calibration_factor((self._cal + cal) / 2)
        self._cal = cal
        self.factors.append(factor)
        self.latency.segment += 1
        self._raw += raw
        self._scaled += raw * factor

    def _record(self, ok: bool, digest: str) -> None:
        self.attempted += 1
        self.failed += not ok
        self.digest.update(digest.encode())

    def _corpus_pass(self, moduli, orbit: bool) -> tuple[int, int]:
        pinned = self.pinned[self.workload]
        total = 0
        for M in self.rng.sample(moduli, len(moduli)):
            seen = stream_corpus(self.tl, M, orbit, self.latency.add,
                                 self._segment)
            self._record(corpus_ok(seen, pinned[str(M)]),
                         json.dumps(seen, sort_keys=True))
            total += seen["count"]
        return total, total

    def _pass_census(self) -> tuple[int, int]:
        return self._corpus_pass(CENSUS_MODULI, orbit=False)

    def _pass_orbit(self) -> tuple[int, int]:
        return self._corpus_pass(ORBIT_MODULI, orbit=True)

    def _pass_sweep(self) -> tuple[int, int]:
        pinned = self.pinned["sweep"]
        total = 0
        for M, limit in self.rng.sample(SWEEP_CALLS, len(SWEEP_CALLS)):
            t0 = time.perf_counter()
            seen = sweep_call(self.tl, M, limit)
            dt = time.perf_counter() - t0
            self.latency.add(dt / limit)
            self._segment(dt)
            self._record(sweep_ok(seen, pinned[sweep_key(M, limit)], limit),
                         seen["sha256"])
            total += limit
        return total, len(SWEEP_CALLS)

    def _pass_requests(self) -> tuple[int, int]:
        pinned = self.pinned["requests"]["outputs"]
        todo = [(kind, M, index) for kind, M in request_strata()
                for index in range(1, POOL_PER_MODULUS)]
        self.rng.shuffle(todo)
        raw = 0.0
        for n, (kind, M, index) in enumerate(todo, 1):
            t0 = time.perf_counter()
            seen = request_call(self.tl, kind, self.pool[M][index])
            dt = time.perf_counter() - t0
            self.latency.add(dt)
            raw += dt
            if n % REQUESTS_PER_SEGMENT == 0 or n == len(todo):
                self._segment(raw)
                raw = 0.0
            self._record(request_ok(seen, pinned[request_key(kind, M, index)]),
                         seen["sha256"])
        return len(todo), len(todo)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Rates are medians over passes of work over scaled pass time;
        each latency is scaled by the factor of its segment."""
        p50, p90 = _p50_p90(self.latency.scaled([1.0] * len(self.factors)))
        s50, s90 = _p50_p90(self.latency.scaled(self.factors))
        return {
            "tilings_per_s": statistics.median(t / s for t, _, _, s in self.passes),
            "requests_per_s": statistics.median(r / s for _, r, _, s in self.passes),
            "request_p50_ms": s50,
            "request_p90_ms": s90,
            "raw_tilings_per_s": statistics.median(t / w for t, _, w, _ in self.passes),
            "raw_request_p50_ms": p50,
            "raw_request_p90_ms": p90,
            "calibration_factor": statistics.median(self.factors),
            "latency_samples": min(self.latency.seen, self.latency.size),
            "requests": self.requests,
            "tilings": self.tilings,
            "passes": len(self.passes),
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": self.digest.hexdigest(),
        }


def _p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in milliseconds."""
    deciles = statistics.quantiles(values, n=10)
    return deciles[4] * 1e3, deciles[8] * 1e3
