"""Smoke test of the benchmark itself; about two minutes on two CPUs.

    python3 perfbench/smoke.py

Runs every workload for one round (`--seconds 0`) untraced, and twice traced
with the same seed, and checks that:
- every op passes and every metric BENCHMARK.json names is printed, with
  its unit;
- every count in the traced output repeats exactly between the two runs;
- schur runs on multiset only, and sres_det plus linalg hold the largest
  self-time share on sres-large;
- every metric and workload named in layers.json exists;
- every round has a number of ops that ends in 5 (see workloads.py);
- without the library sources the benchmark exits non-zero, printing no
  result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
# Per-layer metrics that are timings; every other one is an exact count.
TIMED = {m["name"] for m in DECLARED["per_layer"]
         if m["unit"] == "s"} | {"trace.overhead_frac"}


def _run(trace: int, cwd: Path = ROOT) -> tuple:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout, out.stderr


def _result(trace: int) -> dict:
    code, stdout, stderr = _run(trace)
    assert code == 0, f"run.py --trace {trace} exited {code}:\n{stderr}"
    return json.loads(stdout.splitlines()[-1])


def _check_names(result: dict, key: str) -> None:
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= len(WORKLOADS)
    want = {f"{w}.{m['name']}": m["unit"]
            for w in WORKLOADS for m in DECLARED[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))


def _check_layers(metrics: dict) -> None:
    def value(workload, name):
        return metrics[f"{workload}.{name}"]["value"]

    for w in WORKLOADS:
        for fn in ("schur_value", "schur_poly_x"):
            calls = value(w, f"schur.{fn}.calls")
            assert (calls > 0) == (w == "multiset"), (w, fn, calls)
    self_s = {name[len("sres-large."):]: m["value"]
              for name, m in metrics.items()
              if name.startswith("sres-large.") and name.endswith(".self_s")}
    elimination = sum(v for k, v in self_s.items()
                      if k == "sylvester.sres_det.self_s"
                      or k.startswith("linalg."))
    assert elimination > sum(self_s.values()) / 2, self_s


def _check_mapping() -> None:
    layer_names = {m["name"] for m in DECLARED["per_layer"]}
    e2e_names = {m["name"] for m in DECLARED["end_to_end"]}
    for entry in json.loads((BENCH / "layers.json").read_text()):
        assert set(entry["layer_metrics"]) <= layer_names, entry
        for workload, moved in entry["moves"].items():
            assert workload in WORKLOADS, entry
            assert set(moved) <= e2e_names, entry


def _check_round_sizes() -> None:
    sys.path.insert(0, str(BENCH))
    import workloads
    for w in WORKLOADS:
        ops = len(workloads.rounds(w, 0, count=1)[0])
        assert ops % 10 == 5, (w, ops)


def _check_bare_directory() -> None:
    """A tree holding only BENCHMARK.json and perfbench/ must fail."""
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, stdout, _ = _run(0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and '"correct"' not in stdout, (code, stdout)


def main() -> int:
    _check_mapping()
    _check_round_sizes()
    _check_bare_directory()
    _check_names(_result(0), "end_to_end")
    first, second = _result(1), _result(1)
    for result in (first, second):
        _check_names(result, "per_layer")
    for name, m in first["metrics"].items():
        if name.split(".", 1)[1] not in TIMED:
            assert m["value"] == second["metrics"][name]["value"], name
    _check_layers(first["metrics"])
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
