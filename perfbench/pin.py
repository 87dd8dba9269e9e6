"""Record pinned.json: the expected output of every benchmark operation.

    python3 perfbench/pin.py

Runs each operation once, untraced, and stores what it returned: tiling
counts and mask checksums of the census and orbit corpora, the stdout
sha256 of every sweep call, and the exit code and stdout sha256 of every
request in the pool.  Only run it on a commit whose outputs are trusted (the
file was recorded on the commit that introduced the benchmark); a later
change that alters an output must show up as failed operations, not as a
new pin.  Refuses to write anything if an operation looks wrong on its face
(orbit failure, sweep violation, non-zero exit, prove not replayed).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tilelab  # noqa: E402
import tilelab.cli  # noqa: E402,F401

import workloads as w  # noqa: E402


def pin() -> dict:
    out: dict = {"census": {}, "orbit": {}, "sweep": {}}
    for name, moduli in (("census", w.CENSUS_MODULI),
                         ("orbit", w.ORBIT_MODULI)):
        for M in moduli:
            seen = w.stream_corpus(tilelab, M, name == "orbit", lambda x: None)
            if seen["orbit_failures"]:
                raise SystemExit(f"orbit check failed on Z_{M}")
            out[name][str(M)] = {"count": seen["count"],
                                 "checksum": seen["checksum"]}
            print(name, M, seen["count"], file=sys.stderr)
    for M, limit in w.SWEEP_CALLS:
        seen = w.sweep_call(tilelab, M, limit)
        if seen["code"] or seen["violations"] or seen["tilings"] != limit:
            raise SystemExit(f"sweep {M} --limit {limit} is not clean: {seen}")
        out["sweep"][w.sweep_key(M, limit)] = seen["sha256"]
    pool = w.request_pool()
    outputs = {}
    for kind, M in w.request_strata():
        for index in range(1, w.POOL_PER_MODULUS):
            seen = w.request_call(tilelab, kind, pool[M][index])
            if seen["code"] != 0 or seen["replayed"] is False:
                raise SystemExit(f"request {kind} {pool[M][index]} is not "
                                 f"clean: {seen}")
            outputs[w.request_key(kind, M, index)] = [seen["code"],
                                                      seen["sha256"]]
        print("requests", kind, M, file=sys.stderr)
    out["requests"] = {"pool_seed": w.POOL_SEED,
                       "pool_sha256": w.pool_digest(pool),
                       "outputs": outputs}
    return out


if __name__ == "__main__":
    data = pin()
    (HERE / "pinned.json").write_text(json.dumps(data, indent=1,
                                                 sort_keys=True) + "\n")
