"""One benchmark process: import tilelab from the checkout, set up, run.

Started by run.py, one fresh process per measurement, so the memo tables of
tilelab (factorize, div_set, cyclo_profile, the cyclotomic polynomial table)
start empty every time.  The job arrives as one JSON argument; the result is
the last line of stdout.  Modes:

  setup  import and set up, then stop (a set-up time sample)
  timed  set up, then run whole passes for the given number of seconds
  fixed  set up, then run one pass, traced or not

After set-up the calibration kernel is timed three times (outside the set-up
time), so that run.py can scale set-up time like the timed phase.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import tilelab
    import tilelab.cli  # noqa: F401  (bound as tilelab.cli for the workloads)
    if not os.path.abspath(tilelab.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported tilelab from {tilelab.__file__}, "
                           f"not from {src}")
    import workloads

    with open(job["pinned"], encoding="utf-8") as fh:
        pinned = json.load(fh)

    tracer = None
    if job["trace"]:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install(tilelab)

    wall0 = time.perf_counter()
    run = workloads.Run(tilelab, job["workload"], job["seed"], pinned)
    run.setup()
    ready = time.monotonic()
    setup_wall = time.perf_counter() - wall0
    out = {"ready": ready, "gen_s": run.gen_s,
           "setup_cal_s": min(workloads.calibrate() for _ in range(3))}
    if job["mode"] != "setup":
        if job["mode"] == "timed":
            out["timed_s"] = run.run(job["seconds"])
        else:
            out["timed_s"] = run.run(None, passes=1)
        # set-up plus the passes, without the calibration readings
        out["work_s"] = setup_wall + sum(p[2] for p in run.passes)
        out.update(run.summary())
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    if tracer is not None:
        out["layers"] = tracer.by_name()
        out["spans"] = tracer.span_table()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
