"""End-to-end acceptance gate.

Each test runs one verification suite at its contract configuration,
prints a single pass/fail line (visible with ``pytest -s``), and asserts
both zero failures and the stated wall-time budget. Every equality
checked downstream is exact rational arithmetic; there is no tolerance.
"""

import time

from sylres.verify import FuzzConfig, run_suite


def _gate(number, label, names, cfg, budget):
    start = time.perf_counter()
    reports = [run_suite(name, cfg) for name in names]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports)
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    total = sum(r.instances for r in reports)
    print(f"acceptance {number} ({label}): {verdict} "
          f"[{total} instances, {elapsed:.2f}s, budget {budget:.0f}s]")
    for r in reports:
        assert r.ok, r.human()
    assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeds {budget}s"


def test_01_determinant_vs_multiset_sum():
    # 200 seeded instances, degrees up to 6, repeated and shared roots
    # included, every admissible d per instance
    _gate(1, "sres_det == signed sylm", ["thm14"],
          FuzzConfig(seed=42, count=200, max_deg=6), 60.0)


def test_02_worked_examples():
    # fixed triple-instantiation examples, including the negative case
    # where the collapsed formula is forced below its range
    _gate(2, "worked examples + negative case", ["examples"],
          FuzzConfig(seed=0, count=1), 1.0)


def test_03_classical_set_identities():
    # double sum vs subresultant, double sum rewriting, single sum form;
    # same seed means all three suites see the same 100 set instances
    _gate(3, "eq1/eq2/eq3 set identities", ["eq1", "eq2", "eq3"],
          FuzzConfig(seed=42, count=100), 30.0)


def test_04_exchange_lemma():
    # count=50 yields 100 instances: 50 grid equalities (part 1) and
    # 50 forced-zero cases (part 2), |X| <= 2 throughout
    _gate(4, "exchange identity + vanishing", ["lemma24"],
          FuzzConfig(seed=42, count=50), 30.0)


def test_05_split_sum_generalization():
    # |E| at the minimal admissible size and +1, +2; |X| <= 2, m+n <= 8
    _gate(5, "three-block split sum", ["prop21"],
          FuzzConfig(seed=42, count=50), 60.0)


def test_06_symmetric_interpolation():
    # constants, e1, e2 and truncated power sums reproduced exactly
    _gate(6, "symmetric interpolation", ["prop23"],
          FuzzConfig(seed=42, count=30), 30.0)


def test_07_sign_lemma_exhaustive():
    # every ordered 3-block partition of {1..r} for r <= 6, every valid
    # shift: 3^r * (r+1) checks per r, all enumerated (no sampling)
    _gate(7, "block sign identity, exhaustive", ["lemma34"],
          FuzzConfig(seed=0, count=1, max_deg=6), 10.0)


def test_08_schur_consistency():
    # 100 specs: Jacobi-Trudi values vs the confluent determinant ratio,
    # and vs the classical alternant ratio on the 50 point sets; of the 50
    # true multisets, 25 adjoin a symbolic x, whose reference ratio is an
    # exact polynomial division that must leave a zero remainder
    _gate(8, "schur value consistency", ["schur-consistency"],
          FuzzConfig(seed=42, count=50), 30.0)
