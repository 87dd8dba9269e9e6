"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A wrong pinned count, checksum or digest makes the run count a failed
   operation, for every workload.
2. A traced run produces the same output digests as an untraced run of the
   same work, for every workload, and its counts are those of the work.
3. The request generator is clean on a held-out pool seed: every generated
   request exits 0, the three verifiers agree, and every prove replays.

Exits 0 when all pass.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tilelab  # noqa: E402
import tilelab.cli  # noqa: E402,F401

import run as bench  # noqa: E402
import workloads as w  # noqa: E402

HELD_OUT_POOL_SEED = 2
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def failed_with(workload: str, corrupt) -> tuple[int, int]:
    pinned = json.loads(bench.PINNED.read_text())
    corrupt(pinned)
    run = w.Run(tilelab, workload, 7, pinned)
    run.setup()
    run.run(None, passes=1)
    return run.failed, run.attempted


def wrong_pins_fail() -> None:
    def census(p):
        p["census"]["24"]["count"] += 1

    def orbit(p):
        p["orbit"]["27"]["checksum"] = "0" * 16

    def sweep(p):
        p["sweep"][w.sweep_key(24, 48)] = "0" * 64

    def requests(p):
        for key, (code, _sha) in p["requests"]["outputs"].items():
            if key.startswith("analyze/"):
                p["requests"]["outputs"][key] = [code, "0" * 64]

    for workload, corrupt, expect in (("census", census, 1),
                                      ("orbit", orbit, 1),
                                      ("sweep", sweep, 1),
                                      ("requests", requests,
                                       len(w.REQUEST_MODULI)
                                       * (w.POOL_PER_MODULUS - 1))):
        failed, attempted = failed_with(workload, corrupt)
        check(failed == expect,
              f"{workload}: wrong pin gives {failed} failed of {attempted} "
              f"(expected {expect})")
    failed, attempted = failed_with("sweep", lambda p: None)
    check(failed == 0, f"sweep: correct pins give {failed} failed of {attempted}")


def traced_matches_untraced() -> None:
    expected_yields = {
        "census": sum(json.loads(bench.PINNED.read_text())["census"][str(M)]
                      ["count"] for M in w.CENSUS_MODULI),
        "orbit": sum(json.loads(bench.PINNED.read_text())["orbit"][str(M)]
                     ["count"] for M in w.ORBIT_MODULI),
    }
    for workload in w.WORKLOADS:
        metrics, untraced, traced, _ = bench.trace(workload, 3)
        check(untraced["digest"] == traced["digest"]
              and untraced["failed"] == traced["failed"] == 0,
              f"{workload}: traced digest {traced['digest'][:12]} == "
              f"untraced {untraced['digest'][:12]}, no failures")
        if workload in expected_yields:
            got = metrics["tiling.iter_tilings.yields"]
            check(got == expected_yields[workload],
                  f"{workload}: iter_tilings yields {got} == "
                  f"{expected_yields[workload]}")
        if workload == "orbit":
            got = metrics["tiling.tijdeman_orbit_check.calls"]
            check(got == expected_yields["orbit"],
                  f"orbit: tijdeman_orbit_check calls {got}")
        if workload == "sweep":
            # set-up is traced too: one warm-up call per modulus
            got = metrics["structure.box_product_all_ones.calls"]
            moduli = {M for M, _limit in w.SWEEP_CALLS}
            want = (sum(limit for _M, limit in w.SWEEP_CALLS)
                    + w.SWEEP_WARMUP_LIMIT * len(moduli))
            check(got == want, f"sweep: box_product_all_ones calls {got} "
                               f"== tilings swept {want}")
        if workload == "requests":
            got = metrics["cli.self_s"]
            check(got > 0, f"requests: cli.self_s {got:.4f} > 0")


def held_out_pool_is_clean() -> None:
    pool = w.request_pool(HELD_OUT_POOL_SEED)
    bad = []
    total = 0
    for kind, M in w.request_strata():
        for tiling in pool[M]:
            seen = w.request_call(tilelab, kind, tiling)
            total += 1
            ok = seen["code"] == 0 and seen["replayed"] is not False
            if ok and kind == "verify":
                code, out = w.run_cli(tilelab, w.request_argv(kind, tiling))
                ok = json.loads(out)["verification"] == {
                    "direct": True, "sands": True, "cyclotomic": True,
                    "agree": True}
            if not ok:
                bad.append((kind, tiling))
    check(not bad, f"held-out pool seed {HELD_OUT_POOL_SEED}: {total} "
                   f"requests, {len(bad)} unclean {bad[:2]}")
    check(w.pool_digest(pool) != w.pool_digest(w.request_pool()),
          "held-out pool differs from the pinned pool")


if __name__ == "__main__":
    wrong_pins_fail()
    traced_matches_untraced()
    held_out_pool_is_clean()
    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)
