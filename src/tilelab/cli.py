"""Command line front end: verify, analyze, complements, sweep, prove.

All subcommands read tilings as JSON ({"M": 12, "A": [...], "B": [...]})
given inline, as a file path, or as "-" for stdin.  Reports are JSON with
sorted keys (byte-identical across runs); --format text renders the same
structure line by line.  Exit codes: 0 success / property holds, 1 semantic
negative, 2 malformed input, 3 internal invariant violation (always a bug).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from functools import lru_cache

from .errors import (
    InputError,
    InvariantViolationError,
    NotATilingError,
    PipelineStuckError,
    TilelabError,
)
from .zm_core import TileSet, factorize, prime_factorization
from .cyclotomic import (
    check_T1,
    check_T2,
    cyclo_profile,
)
from .tiling import (
    Tiling,
    _tiles_from_json,
    iter_complements,
    iter_tilings,
    sample_tilings,
    tijdeman_orbit_check,
    tiling_from_json,
    tiling_to_json,
    verify_cyclotomic,
    verify_direct,
    verify_sands,
)
from .structure import box_product_all_ones
from .splitting import (
    consistency3_check,
    consistent_splitting_check,
    check_fiber_basic,
    cross_direction_check,
    fibered_grid_profile,
    plane_consistency,
    SplitReport,
    split_report,
)
from .reduction import (
    _plane_counts,
    blowbound_check,
    certificate_to_json,
    plane_bound_check,
    prove_t2_largeprime,
    slab_equivalence_check,
    slabcor_check,
    splittingslab_equiv_check,
)


# ---------------------------------------------------------------------------
# plumbing


def _load_json_arg(arg: str) -> dict:
    """Inline JSON, a file path, or '-' for stdin."""
    if arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            if arg == "-":
                text = sys.stdin.read()
            else:
                with open(arg, "r", encoding="utf-8") as fh:
                    text = fh.read()
        # ValueError: bytes that are not UTF-8, or a NUL in the path
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read {arg}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON at line {exc.lineno} column "
                         f"{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal over the interpreter's digit limit, or nesting
        # deeper than the recursion limit
        raise InputError(f"unparsable JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError("top-level JSON value must be an object")
    return obj


_encode_str = json.encoder.encode_basestring_ascii   # the C one when built


def _sha256(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_SCALARS = {     # by exact type, so that a bool is never written as an int
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalar_text(value) -> str:
    """json.dumps(value), through _SCALARS for the types it holds."""
    enc = _SCALARS.get(type(value))
    return enc(value) if enc else json.dumps(value)


def _render_text(obj, indent: int = 0, out=None) -> list[str]:
    lines = out if out is not None else []
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                _render_text(value, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                _render_text(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar_text(item)}")
    else:
        lines.append(f"{pad}{_scalar_text(obj)}")
    return lines


def _split_text(r: SplitReport, pad: str) -> str:
    """The text of r.to_json() as _json_text writes it at indentation pad,
    with its keys in their sorted order, straight from r's parity bits:
    each fiber fills the AB or the BA row template with its anchor, and
    one join writes them all.  No fiber dict is built."""
    inner, row_pad, key_pad = pad + "  ", pad + "    ", pad + "      "
    row = (",\n" + row_pad + "{\n" + key_pad + '"anchor": %%d,\n' + key_pad
           + '"parity": "%s"\n' + row_pad + "}")
    rows = {"1": row % "AB", "0": row % "BA"}
    fibers = "".join([rows[bit] % k for k, bit in enumerate(r.parities)])
    return ("{\n" + inner + '"direction": %d,\n' % r.prime
            + inner + '"direction_index": %d,\n' % r.direction
            + inner + '"fibers": [' + fibers[1:] + "\n" + inner + "],\n"
            + inner + '"verdicts": ' + _json_text(r.verdicts, inner)
            + "\n" + pad + "}")


def _json_text(value, pad: str) -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2) for a value
    nested at indentation pad, with the C string encoder and no generators:
    on Python 3.11, indent always selects the pure-Python encoder.  Items
    of the types in _SCALARS are written in place, by exact type; a list
    of items of one _SCALARS type is encoded by one map and one join.  A
    SplitReport is written as its to_json() by _split_text.  Only other
    containers and floats recurse."""
    kind = type(value)
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            item = value[key]
            enc = _SCALARS.get(type(item))
            items.append(_encode_str(key) + ": " + (
                enc(item) if enc else _json_text(item, inner)))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        enc = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if enc is not None:
            body = map(enc, value)
        else:
            body = []
            for item in value:
                enc = _SCALARS.get(type(item))
                body.append(enc(item) if enc else _json_text(item, inner))
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
    if kind is SplitReport:
        return _split_text(value, pad)
    return json.dumps(value)


def _emit(report: dict, fmt: str) -> None:
    """Print a report.  As JSON its bytes equal those of
    print(json.dumps(report, sort_keys=True, indent=2)), for the str-keyed
    reports of this module, with each SplitReport given by its to_json();
    as text, _render_text's lines."""
    if fmt == "json":
        print(_json_text(report, ""))
    else:
        print("\n".join(_render_text(report)))


def _parse_tiling(arg: str) -> Tiling:
    return tiling_from_json(_load_json_arg(arg), check=False)


def _report(command: str, t: Tiling) -> dict:
    """The header every single-tiling report starts with."""
    echo = tiling_to_json(t)
    return {"command": command, "input": echo, "input_sha256": _sha256(echo)}


# ---------------------------------------------------------------------------
# verify / analyze


def cmd_verify(args: argparse.Namespace) -> int:
    t = _parse_tiling(args.tiling)
    results = {
        "direct": verify_direct(t.A, t.B),
        "sands": verify_sands(t.A, t.B),
        "cyclotomic": verify_cyclotomic(t.A, t.B),
    }
    agree = len(set(results.values())) == 1
    report = _report("verify", t)
    report["verification"] = {**results, "agree": agree}
    _emit(report, args.format)
    if not agree:
        raise InvariantViolationError(
            f"verifiers disagree on {report['input']}: {results}")
    return 0 if results["direct"] else 1


def _tile_section(T: TileSet) -> dict:
    profile = cyclo_profile(T)
    return {
        "members": list(T),
        "size": len(T),
        "S": sorted(profile.s_set),
        "mask_divisors": sorted(profile.divisors_of_mask),
        "T1": profile.t1,
        "T2": profile.t2,
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    t = _parse_tiling(args.tiling)
    fmt = args.format
    report = _report("analyze", t)
    if not verify_direct(t.A, t.B):
        report["verification"] = {"direct": False}
        _emit(report, fmt)
        return 1
    report["verification"] = {"direct": True}
    report["tiles"] = {"A": _tile_section(t.A), "B": _tile_section(t.B)}
    code = 0
    if args.split:
        reports = [split_report(t, i) for i in range(len(t.context.primes))]
        # the JSON writer writes a SplitReport itself, without to_json()
        report["split"] = (reports if fmt == "json"
                           else [r.to_json() for r in reports])
    if args.slab:
        section = []
        for i, (p, _) in enumerate(t.context.primes):
            verdict = slab_equivalence_check(t, i)
            entry = ({"direction": p, "direction_index": i}
                     if verdict is None else verdict.to_json())
            entry["hypothesis"] = verdict is not None
            section.append(entry)
        report["slab"] = section
    if args.boxgrid:
        ok = box_product_all_ones(t)
        report["boxgrid"] = {"all_ones": ok, "pairs": t.context.M ** 2}
        if not ok:
            code = 3
    _emit(report, fmt)
    return code


# ---------------------------------------------------------------------------
# complements


def cmd_complements(args: argparse.Namespace) -> int:
    obj = _load_json_arg(args.tile)
    if "M" not in obj or "A" not in obj:
        raise InputError('complement search needs {"M": ..., "A": [...]}')
    (A,) = _tiles_from_json(obj, ("A",))
    for B in iter_complements(A, normalize=args.normalize, limit=args.limit):
        if args.format == "json":
            print(json.dumps({"B": list(B)}))
        else:
            print("B: " + " ".join(str(b) for b in B))
    return 0


# ---------------------------------------------------------------------------
# sweep


def _record(violations: list, tiling: Tiling, check: str, detail: str):
    violations.append({
        "check": check,
        "tiling": tiling_to_json(tiling),
        "detail": detail,
    })


def _sweep_lemmas(t: Tiling, counts: dict, violations: list) -> None:
    ctx = t.context
    k = len(ctx.primes)

    reports = []    # per direction; None skips its parity checks below
    for i in range(k):
        try:
            reports.append(split_report(t, i))
            counts["fibers"] += reports[-1].step
        except InvariantViolationError as exc:
            _record(violations, t, "no_upgrades", str(exc))
            reports.append(None)

    try:
        if not box_product_all_ones(t):
            _record(violations, t, "box_product", "some product differs from 1")
    except InvariantViolationError as exc:
        _record(violations, t, "box_product", str(exc))

    try:
        tijdeman_orbit_check(t)
    except InvariantViolationError as exc:
        _record(violations, t, "tijdeman_orbit", str(exc))

    swapped = [report and report.swapped() for report in reports]
    for side, tt, side_reports in (("A", t, reports),
                                   ("B", t.swapped(), swapped)):
        for i, (p, _) in enumerate(ctx.primes):
            planes = _plane_counts(tt.B, i)
            if not plane_bound_check(tt.B, i, planes):
                _record(violations, t, "plane_bound",
                        f"side {side} direction p={p}")
            report = side_reports[i]
            try:
                if report is not None:
                    blowbound_check(report)
                verdict = slab_equivalence_check(tt, i)
                slabcor_check(tt, i, verdict, planes)
                if report is not None:
                    splittingslab_equiv_check(report, verdict)
            except InvariantViolationError as exc:
                _record(violations, t, "slab_suite",
                        f"side {side} direction p={p}: {exc}")

    if k == 3:
        for pair in itertools.permutations(range(3), 2):
            try:
                if pair[0] < pair[1]:
                    plane_consistency(t, pair)
                cross_direction_check(t, pair)
            except InvariantViolationError as exc:
                _record(violations, t, "grid_consistency",
                        f"pair={pair}: {exc}")
        try:
            profile = fibered_grid_profile(t)
        except InputError:
            return
        counts["grids"] += len(profile.grid_dirs)
        try:
            check_fiber_basic(profile)
            consistency3_check(profile)
            for z0 in range(profile.radical_step):
                consistent_splitting_check(profile, z0)
        except InvariantViolationError as exc:
            _record(violations, t, "fibered_grid", str(exc))


def _sweep_t2(t: Tiling, violations: list, reports: list) -> None:
    for name, tile in (("A", t.A), ("B", t.B)):
        if not check_T1(tile):
            _record(violations, t, "T1", f"tile {name}")
        distinct = len(prime_factorization(len(tile)))
        holds = check_T2(tile)
        if distinct <= 2:
            if not holds:
                _record(violations, t, "T2",
                        f"tile {name} with <=2-prime cardinality")
        else:
            reports.append({
                "kind": "t2_three_prime_cardinality",
                "tiling": tiling_to_json(t),
                "tile": name,
                "T2": holds,
            })
    try:
        prove_t2_largeprime(t)
    except PipelineStuckError as exc:
        reports.append({
            "kind": "pipeline_stuck",
            "tiling": tiling_to_json(t),
            "detail": str(exc),
        })
    except (InvariantViolationError, InputError) as exc:
        _record(violations, t, "t2_pipeline", str(exc))


def _sweep_worker(args: tuple) -> tuple[dict, list, list]:
    """_sweep_one on a tiling sent to a pool process as two masks."""
    M, a_mask, b_mask, check = args
    ctx = factorize(M)
    t = Tiling(TileSet.from_mask(ctx, a_mask), TileSet.from_mask(ctx, b_mask),
               check=False)
    return _sweep_one(t, check)


def _sweep_one(t: Tiling, check: str) -> tuple[dict, list, list]:
    counts = {"tilings": 1, "fibers": 0, "grids": 0}
    violations: list = []
    reports: list = []
    if check in ("lemmas", "all"):
        _sweep_lemmas(t, counts, violations)
    if check in ("t2", "all"):
        _sweep_t2(t, violations, reports)
    return counts, violations, reports


def cmd_sweep(args: argparse.Namespace) -> int:
    M, check, limit, jobs = args.M, args.check, args.limit, args.jobs
    if jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {jobs}")
    if limit is not None and limit < 0:
        raise InputError(f"--limit must be at least 0, got {limit}")
    jobs = min(jobs, os.cpu_count() or 1)
    ctx = factorize(M)
    corpus = (sample_tilings(ctx, cap=limit) if limit is not None
              else iter_tilings(ctx))

    counts = {"tilings": 0, "fibers": 0, "grids": 0}
    violations: list = []
    reports: list = []

    def add(results):
        for part_counts, part_violations, part_reports in results:
            for key in counts:
                counts[key] += part_counts[key]
            violations.extend(part_violations)
            reports.extend(part_reports)

    if jobs > 1:
        # imported here, not at the top: it loads multiprocessing, which
        # would slow the start of every command that does not fan out
        from concurrent.futures import ProcessPoolExecutor
        work = ((M, t.A.mask, t.B.mask, check) for t in corpus)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # Executor.map submits its whole input at once: feed it batches
            while batch := list(itertools.islice(work, 256 * jobs)):
                add(pool.map(_sweep_worker, batch, chunksize=16))
    else:
        add(_sweep_one(t, check) for t in corpus)

    violations.sort(key=lambda v: json.dumps(v, sort_keys=True))
    reports.sort(key=lambda r: json.dumps(r, sort_keys=True))
    summary = {
        "command": "sweep",
        "M": M,
        "check": check,
        "counts": counts,
        "violations": violations,
        "reports": reports,
    }
    _emit(summary, args.format)
    return 0 if not violations else 1


# ---------------------------------------------------------------------------
# prove


def cmd_prove(args: argparse.Namespace) -> int:
    t = _parse_tiling(args.tiling)
    fmt = args.format
    report = _report("prove", t)
    try:
        cert = prove_t2_largeprime(t)
    except NotATilingError:
        print(f"input is not a tiling of Z_{t.context.M}", file=sys.stderr)
        return 1
    except PipelineStuckError as exc:
        report["stuck"] = str(exc)
        _emit(report, fmt)
        return 1
    report["certificate"] = certificate_to_json(cert)
    report["replayed"] = True
    report["large_prime_hypothesis"] = cert.large_prime_hypothesis
    _emit(report, fmt)
    return 0      # prove_t2_largeprime replayed cert: (T2) holds


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args gives each call a fresh
    Namespace, so nothing carries over between calls.  Each subcommand's
    `run` is its cmd_* handler, which takes that Namespace."""
    parser = argparse.ArgumentParser(
        prog="tilelab",
        description="Exact arithmetic for translational tilings of Z_M.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p, run):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(run=run)

    p = sub.add_parser("verify", help="run all three tiling verifiers")
    p.add_argument("tiling", help="tiling JSON: inline, file path, or -")
    add_format(p, cmd_verify)

    p = sub.add_parser("analyze", help="cyclotomic profile and structure report")
    p.add_argument("tiling")
    p.add_argument("--split", action="store_true",
                   help="per-direction fiber splitting parities")
    p.add_argument("--slab", action="store_true",
                   help="slab condition verdicts per direction")
    p.add_argument("--boxgrid", action="store_true",
                   help="check the box product equals 1 at all point pairs")
    add_format(p, cmd_analyze)

    p = sub.add_parser("complements", help="stream tiling complements of A")
    p.add_argument("tile", help='JSON {"M": ..., "A": [...]}')
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                   default=True, help="require 0 in B")
    add_format(p, cmd_complements)

    p = sub.add_parser("sweep", help="run property suites over all tilings of Z_M")
    p.add_argument("M", type=int)
    p.add_argument("--check", choices=("lemmas", "t2", "all"), default="all")
    p.add_argument("--limit", type=int, default=None,
                   help="cap the corpus via stratified sampling")
    p.add_argument("--jobs", type=int, default=1)
    add_format(p, cmd_sweep)

    p = sub.add_parser("prove", help="produce and replay a (T2) certificate")
    p.add_argument("tiling")
    add_format(p, cmd_prove)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (2) or the --help text (0);
        # return the code so callers of main see it as for any other input
        return exc.code
    try:
        return args.run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation (bug): {exc}", file=sys.stderr)
        return 3
    except PipelineStuckError as exc:
        print(f"pipeline stuck: {exc}", file=sys.stderr)
        return 1
    except TilelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
