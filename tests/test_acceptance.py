"""End-to-end acceptance gate.

Each test runs one verification suite at its contract configuration,
prints a single pass/fail line (visible with ``pytest -s``), and asserts
both zero failures and the stated wall-time budget. Every equality
checked downstream is exact rational arithmetic; there is no tolerance.
The last test pins the instance streams that the gates check.
"""

import hashlib
import json
import time

import pytest

from sylres.verify import _SUITES, FuzzConfig, run_suite


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


# sha256 of each suite's generated instance stream, dumped as JSON with
# sorted keys, at the configurations of the gates above and at one small
# one. A generator edit that changes what the gates check fails here.
_SMALL = FuzzConfig(seed=3, count=5)
_TRAFFIC = [
    ("thm14", FuzzConfig(seed=42, count=200, max_deg=6),
     "25b2bfc756424ac298abc082767d4a35e92046196390208e8edaae1b2a8e7bb7"),
    ("examples", FuzzConfig(seed=0, count=1),
     "abcf8da328119109f9df03a77ffced7e119b9864f240510f55caa1e596bf0291"),
    ("eq1", FuzzConfig(seed=42, count=100),
     "01779e30591893988237e143a12cf97156a532c32775d933df777d3c5f529086"),
    ("eq2", FuzzConfig(seed=42, count=100),
     "01779e30591893988237e143a12cf97156a532c32775d933df777d3c5f529086"),
    ("eq3", FuzzConfig(seed=42, count=100),
     "01779e30591893988237e143a12cf97156a532c32775d933df777d3c5f529086"),
    ("lemma24", FuzzConfig(seed=42, count=50),
     "8e60590188a1b0e05a802163d9ea4d7fc1d73355889c7e7cd32e54976e377daa"),
    ("prop21", FuzzConfig(seed=42, count=50),
     "7026c76863013256bb647e1c2be9b43156b8285c7a71c6e75105a3f06717ec45"),
    ("prop23", FuzzConfig(seed=42, count=30),
     "1a2894c6f566db11ef6a407707f31cc753bc873191a8313a19cf386999064ac3"),
    ("lemma34", FuzzConfig(seed=0, count=1, max_deg=6),
     "0e60949b9b7636091b3059e0111c70e8de35617b0c4583cae793a6f62256ce6c"),
    ("schur-consistency", FuzzConfig(seed=42, count=50),
     "8393d8436bbcd555ead238593fb6771894c8005131b00ab6bde5236a45a7ef96"),
    ("thm14", _SMALL,
     "d7e558c7eceeab438026078041ff64996b480eab98db61e7683ce61caab771ae"),
    ("thm12", _SMALL,
     "3a264c1d9bff072afbcf469843ba53f7d6b0258c5cbfa05adc829e420375ab74"),
    ("eq1", _SMALL,
     "bb0fbbcfb15940beaac31739a1f330e8bb14933fe36ba2870c5c190968824c5e"),
    ("eq2", _SMALL,
     "bb0fbbcfb15940beaac31739a1f330e8bb14933fe36ba2870c5c190968824c5e"),
    ("eq3", _SMALL,
     "bb0fbbcfb15940beaac31739a1f330e8bb14933fe36ba2870c5c190968824c5e"),
    ("lemma24", _SMALL,
     "ef7eda1826b2981a57351585b09c06575697460da6885be7061a8486d63b8846"),
    ("prop21", _SMALL,
     "54dbc882db580b8ae169ec1d279d4c04121f1f11cea29d16844c5bf366a235b4"),
    ("prop23", _SMALL,
     "cdc7c55e07bf5de5db2ac852c8087cbb48f231f17f509a737851678aade15cdd"),
    ("lemma34", _SMALL,
     "0e60949b9b7636091b3059e0111c70e8de35617b0c4583cae793a6f62256ce6c"),
    ("schur-consistency", _SMALL,
     "7f43e25cfee458c9561ad38603a805f68c87bd375ba087887f7e452f861438f5"),
    ("examples", _SMALL,
     "abcf8da328119109f9df03a77ffced7e119b9864f240510f55caa1e596bf0291"),
]


@pytest.mark.parametrize("name, cfg, digest", _TRAFFIC, ids=[
    f"{name}-{cfg.seed}-{cfg.count}" for name, cfg, _ in _TRAFFIC])
def test_generated_traffic_is_unchanged(name, cfg, digest):
    stream = json.dumps(list(_SUITES[name][0](cfg)), sort_keys=True)
    assert hashlib.sha256(stream.encode()).hexdigest() == digest
