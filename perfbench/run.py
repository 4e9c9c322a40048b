"""Benchmark of the sylres verification workloads.

    python3 perfbench/run.py --workload multiset --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src/`, so
nothing needs to be built or installed. Workloads and metrics are listed in
BENCHMARK.json; perfbench/README.md says what each one measures.

`--trace 0` prints the end-to-end metrics. `setup_s` is the median time of
importing `sylres.cli` in fresh interpreters. The workload itself runs in
one more fresh interpreter (worker.py) for whole rounds until `--seconds`
have passed.

`--trace 1` prints the per-layer metrics. It runs a fixed number of rounds,
so that every count repeats exactly for a seed, twice in fresh interpreters:
untraced, then with every traced function wrapped (tracing.py). The ratio of
the two throughputs is `trace.overhead_frac`.

Every op is checked exactly. If one fails, its replayable instance is
printed and the exit code is 1. The last line of output is one JSON object
with the keys correct, attempted, failed and metrics. A result file with
the Python version, CPU count and commit goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_RUNS = 15
# Tail percentiles, highest first; the first with at least TAIL_BEYOND ops
# beyond it is reported, and p90 when none has. The grid is coarse so that
# the percentile does not change while a run's op count moves by up to about
# 2x, as it does when a shared machine's speed drifts: on two vCPUs every
# workload runs 100-1000 ops, so every workload reports p90.
TAIL_GRID = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10
# Seconds one untraced round took on two vCPUs when the benchmark was
# written; only used to fix the traced runs' round count.
NOMINAL_ROUND_S = {"multiset": 1.8, "sets": 4.3, "sres-large": 1.9,
                   "grid": 1.3}
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    # Imports use cached bytecode, as an installed package's do, whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _setup_seconds() -> float:
    """Median import time of sylres.cli; the first, which may write the
    bytecode cache, is not counted."""
    code = ("import time; t = time.perf_counter(); import sylres.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=_env(),
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def _worker(workload: str, seed: int, *, seconds: float = 0.0,
            rounds: int = 0, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--rounds", str(rounds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    out = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                         timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker failed ({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _ops_per_s(res: dict) -> float:
    """Checked ops per second of time spent inside ops."""
    return res["attempted"] / (sum(res["latencies_ms"]) / 1e3)


def _percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(values: list) -> tuple:
    """(percentile, value, ops beyond) for sorted latencies: the highest grid
    percentile with at least TAIL_BEYOND ops beyond it."""
    n = len(values)
    for p in TAIL_GRID:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= TAIL_BEYOND or p == TAIL_GRID[-1]:
            return p, _percentile(values, p), beyond


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sylres").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _untraced(workload: str, seed: int, seconds: int) -> tuple:
    setup = _setup_seconds()
    res = _worker(workload, seed, seconds=seconds)
    latencies = sorted(res["latencies_ms"])
    p, tail, beyond = _tail(latencies)
    values = {
        "setup_s": setup,
        "ops_per_s": _ops_per_s(res),
        "op_ms.p50": _percentile(latencies, 50.0),
        "op_ms.tail": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [f"op_ms.tail is p{p:g}: {beyond} of {res['attempted']} ops "
             f"beyond it"]
    if res["pool_exhausted"]:
        notes.append(f"all {res['rounds']} generated rounds ran before "
                     f"{seconds} s had passed")
    return res, values, notes


def _traced(workload: str, seed: int, seconds: int) -> tuple:
    rounds = max(1, round(seconds / (2 * NOMINAL_ROUND_S[workload])))
    spans = RESULTS / f"{workload}-seed{seed}.spans.json.gz"
    plain = _worker(workload, seed, rounds=rounds)
    res = _worker(workload, seed, rounds=rounds, spans=spans)
    values = dict(res["layers"])
    values["trace.overhead_frac"] = _ops_per_s(plain) / _ops_per_s(res) - 1.0
    for key in ("attempted", "failed", "failures"):
        res[key] += plain[key]
    notes = [f"{rounds} rounds; spans in {spans.relative_to(ROOT)}"]
    return res, values, notes


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 declared: dict) -> dict:
    """Run one workload, print its report block and write its result file."""
    res, values, notes = (_traced if trace else _untraced)(
        workload, seed, seconds)
    wanted = declared["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(), "source_sha256": _source_sha256(),
        "inputs_sha256": res["inputs_sha256"], "rounds": res["rounds"],
        "pool_exhausted": res["pool_exhausted"],
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "metrics": metrics, "notes": notes,
        "slowest": res["slowest"], "failures": res["failures"],
    }
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {workload} seed={seed} trace={int(trace)} "
          f"python={record['python']} nproc={record['nproc']} "
          f"commit={record['commit']}")
    print(f"inputs_sha256 {record['inputs_sha256']} "
          f"(rounds run: {record['rounds']})")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<40} {record['fail_frac']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")
    for note in notes:
        print(f"  note: {note}")
    for rec in res["slowest"]:
        print("  slow: " + json.dumps(rec, sort_keys=True))
    for rec in res["failures"]:
        line = "FAILED OP: " + json.dumps(rec, sort_keys=True)
        print(line)
        print(line, file=sys.stderr)
    print(f"  result file: {out.relative_to(ROOT)}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    if not (SRC / "sylres" / "__init__.py").is_file():
        print(f"error: no sylres sources at {SRC / 'sylres'}; run from the "
              "root of a sylres checkout", file=sys.stderr)
        return 2
    declared = _declared()
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace),
                            declared) for w in names]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
