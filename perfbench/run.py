"""tilelab benchmark: one command, four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload census|orbit|sweep|requests \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; tilelab is imported from the ``src/`` directory next to
``perfbench/``.  Without it the command fails with exit code 2.

``--trace 0`` measures the end-to-end metrics: five set-up-only processes
and one timed process, each fresh, with ``TILELAB_CACHE_DIR`` removed from
the environment and everything serial.  ``--trace 1`` runs one pass of the
workload twice in fresh processes, untraced and then traced (see
layertrace.py), checks that both produce the same output digests, prints the
per-layer metrics and writes the aggregated span table to
``.perfbench/trace-<workload>-seed<N>.json``.

The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat each metric with its unit,
``failed_ratio`` (failed over attempted operations), ``nproc`` and the Python
version.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, calibration_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
TRACE_DIR = ROOT / ".perfbench"
# Set-up-only processes per run; the timed process gives one more sample.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("tilings_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (span, statistic) pairs reported by a traced run, as "<span>.<statistic>".
LAYER_METRICS = (
    ("splitting.fiber_parity", "calls"),
    ("splitting.fiber_parity", "self_s"),
    ("splitting.split_report", "calls"),
    ("splitting.split_report", "self_s"),
    ("reduction.splittingslab_equiv_check", "calls"),
    ("reduction.splittingslab_equiv_check", "self_s"),
    ("reduction.slab_equivalence_check", "self_s"),
    ("reduction.slab_cond_i", "self_s"),
    ("cyclotomic.cyclo_profile", "calls"),
    ("cyclotomic.cyclo_profile", "misses"),
    ("cyclotomic.cyclo_profile", "self_s"),
    ("cyclotomic.check_T1", "self_s"),
    ("cyclotomic.check_T2", "self_s"),
    ("tiling.verify_cyclotomic", "self_s"),
    ("tiling.tijdeman_orbit_check", "calls"),
    ("tiling.tijdeman_orbit_check", "self_s"),
    ("tiling.iter_tilings", "yields"),
    ("tiling.iter_tilings", "self_s"),
    ("tiling.sample_tilings", "self_s"),
    ("tiling.iter_complements", "yields"),
    ("tiling.iter_complements", "self_s"),
    ("tiling.verify_direct", "calls"),
    ("tiling.verify_direct", "self_s"),
    ("tiling.div_set", "misses"),
    ("tiling.div_set", "self_s"),
    ("structure.box_product_all_ones", "calls"),
    ("structure.box_product_all_ones", "self_s"),
    ("structure.box_product_all_ones", "pairs"),
    ("reduction.prove_t2_largeprime", "calls"),
    ("reduction.prove_t2_largeprime", "self_s"),
    ("reduction.replay_certificate", "self_s"),
    ("reduction.slabcor_check", "applicable_ratio"),
    ("reduction.blowbound_check", "applicable_ratio"),
    ("splitting.cross_direction_check", "self_s"),
    ("splitting.cross_direction_check", "applicable_ratio"),
    ("splitting.plane_consistency", "self_s"),
    ("splitting.fibered_grid_profile", "self_s"),
    ("zm_core.TileSet", "calls"),
    ("zm_core.TileSet", "self_s"),
    ("zm_core.factorize", "misses"),
    ("zm_core.factorize", "self_s"),
)
# Per-module self time: every span of the module, so cli's covers cli.main
# and the cmd_* handlers outside wrapped calls (argparse, JSON, sorting).
MODULES = ("cli", "zm_core", "cyclotomic", "tiling", "structure",
           "splitting", "reduction")


class BenchError(Exception):
    pass


def spawn(job: dict) -> tuple[float, dict]:
    """Run worker.py on one job in a fresh process; returns (spawn time on
    the monotonic clock, its result)."""
    env = dict(os.environ)
    env.pop("TILELAB_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    job = dict(job, root=str(ROOT), pinned=str(PINNED))
    argv = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} process timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['mode']} process exited {proc.returncode}")
    return start, json.loads(lines[-1])


def setup_time(start: float, result: dict) -> tuple[float, float]:
    """(raw, calibrated) set-up seconds of one process."""
    raw = result["ready"] - start - result["gen_s"]
    return raw, raw * calibration_factor(result["setup_cal_s"])


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list]:
    job = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": False}
    setups = [setup_time(*spawn(dict(job, mode="setup")))
              for _ in range(SETUP_SAMPLES)]
    start, res = spawn(dict(job, mode="timed"))
    setups.append(setup_time(start, res))
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "tilings_per_s": res["tilings_per_s"],
        "requests_per_s": res["requests_per_s"],
        "request_p50_ms": res["request_p50_ms"],
        "request_p90_ms": res["request_p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh processes",
        f"tilings_per_s, requests_per_s: median of {res['passes']} passes "
        f"({res['tilings']} tilings, {res['requests']} requests in "
        f"{res['timed_s']:.1f} s)",
        f"request_p50_ms, request_p90_ms: {res['latency_samples']} samples",
        f"times are calibrated (README.md); median factor "
        f"{res['calibration_factor']:.4f}; uncalibrated: "
        f"setup_s {statistics.median(r for r, _ in setups):.6g}, "
        f"tilings_per_s {res['raw_tilings_per_s']:.6g}, "
        f"request_p50_ms {res['raw_request_p50_ms']:.6g}, "
        f"request_p90_ms {res['raw_request_p90_ms']:.6g}",
    ]
    return metrics, res, notes


def layer_metrics(untraced: dict, traced: dict) -> dict:
    layers = traced["layers"]
    out = {}
    for span, stat in LAYER_METRICS:
        rec = layers.get(span, {})
        if stat == "applicable_ratio":
            calls = rec.get("calls", 0)
            out[f"{span}.{stat}"] = rec.get("applicable", 0) / calls if calls else 0.0
        else:
            out[f"{span}.{stat}"] = rec.get(stat, 0)
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(rec["self_s"] for name, rec in layers.items()
                                   if name.startswith(mod + "."))
    out["trace.overhead_ratio"] = traced["work_s"] / untraced["work_s"]
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def trace(workload: str, seed: int) -> tuple[dict, dict, dict, list]:
    job = {"workload": workload, "seed": seed, "seconds": None, "mode": "fixed"}
    _, untraced = spawn(dict(job, trace=False))
    _, traced = spawn(dict(job, trace=True))
    metrics = layer_metrics(untraced, traced)
    same = untraced["digest"] == traced["digest"]
    notes = [f"fixed work: {traced['passes']} pass(es), {traced['tilings']} "
             f"tilings, {traced['requests']} requests",
             f"output digests traced == untraced: {same}"]
    return metrics, untraced, traced, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tilelab" / "__init__.py").is_file():
        print(f"no tilelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "tilelab"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    env_line = (f"workload={args.workload} seed={args.seed} "
                f"seconds={args.seconds} trace={args.trace} "
                f"nproc={os.cpu_count()} python={platform.python_version()}")
    try:
        if args.trace:
            metrics, untraced, traced, notes = trace(args.workload, args.seed)
            attempted = untraced["attempted"] + traced["attempted"]
            failed = untraced["failed"] + traced["failed"]
            correct = failed == 0 and untraced["digest"] == traced["digest"]
            units = {name: layer_unit(name) for name in metrics}
            TRACE_DIR.mkdir(exist_ok=True)
            path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps({
                "env": env_line, "metrics": metrics, "layers": traced["layers"],
                "spans": traced["spans"]}, indent=1, sort_keys=True))
            notes.append(f"span table: {path.relative_to(ROOT)}")
        else:
            metrics, res, notes = measure(args.workload, args.seed,
                                          args.seconds)
            attempted, failed = res["attempted"], res["failed"]
            correct = failed == 0
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(env_line)
    for note in notes:
        print("#", note)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_ratio {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
