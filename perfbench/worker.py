"""Run one workload in this (fresh) interpreter and print one JSON result line.

    PYTHONPATH=src python3 perfbench/worker.py --workload multiset --seed 1 \
        --seconds 20 [--rounds N] [--spans FILE]

run.py starts this once per measurement, because the Schur caches are
process-global: a second run in the same process would time cache hits. Ops
run back to back with one caller (closed loop). Whole rounds run until
`--seconds` have passed, or exactly `--rounds` rounds. With `--spans` the
run is traced and the span file is written when it ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads
from tracing import Tracer
from sylres import io, sylvester, verify
from sylres.poly import Poly

SLOWEST_K = 5


def _sres_op(inst: dict) -> dict:
    """sres_det at one d, checked against the small-side single sum."""
    a = io.parse_multiset(inst["a"])
    b = io.parse_multiset(inst["b"])
    m, n, d = a.size, b.size, inst["d"]
    got = sylvester.sres_det(Poly.from_roots(a.values()),
                             Poly.from_roots(b.values()), d)
    # Sres_d(f,g) = (-1)^((m-d)(n-d)) Sres_d(g,f) = that sign times
    # (-1)^(d(n-d)) syl_single(B, A, d); the sum runs over B, the small side.
    sign = -1 if ((m - d) * (n - d) + d * (n - d)) % 2 else 1
    want = sylvester.syl_single(b, a, d).scale(sign)
    return {"ok": got == want}


def _run_op(suite: str, inst: dict) -> dict:
    if suite == "sres":
        return _sres_op(inst)
    return verify.replay(suite, inst)


def _record(suite: str, inst: dict) -> dict:
    """The op as a record `sylres verify SUITE --replay FILE` accepts."""
    rec = {"suite": suite, "instance": inst}
    if suite == "sres":
        rec = {"op": "sres", "instance": inst,
               "cli": f"sylres sres -f roots:{inst['a']} "
                      f"-g roots:{inst['b']} -d {inst['d']}"}
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    pool = workloads.rounds(args.workload, args.seed)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    latencies, failures = [], []
    rounds_run = 0
    began = time.perf_counter()
    for ops in pool:
        for suite, inst in ops:
            if tracer is not None:
                tracer.current_op = len(latencies)
            error = None
            t0 = time.perf_counter()
            try:
                ok = bool(_run_op(suite, inst).get("ok"))
            except Exception as exc:  # every failing op is reported
                ok, error = False, f"{type(exc).__name__}: {exc}"
            latencies.append((time.perf_counter() - t0) * 1e3)
            if not ok:
                failures.append(dict(_record(suite, inst), error=error))
        rounds_run += 1
        if (rounds_run >= args.rounds if args.rounds
                else time.perf_counter() - began >= args.seconds):
            break

    ops_run = [op for ops in pool[:rounds_run] for op in ops]
    slowest = sorted(range(len(latencies)), key=lambda i: -latencies[i])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": workloads.digest(pool),
        "rounds": rounds_run,
        "pool_exhausted": rounds_run == len(pool) and not args.rounds,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "latencies_ms": latencies,
        "slowest": [dict(_record(*ops_run[i]), latency_ms=latencies[i], op=i)
                    for i in slowest[:SLOWEST_K]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
