"""Seeded inputs for the four benchmark workloads, built with the stdlib only.

Every workload is a fixed *shape schedule* (degrees, multiplicity patterns,
how many roots f and g share, d, grid arity, |E|) that is the same for every
seed, and root values that are drawn from the seed. One *round* runs every
slot of the schedule once. A round therefore costs about the same on every
seed and at every position in a run, so runs that differ in length or seed
can be compared, and the heavy slots appear in every round.

Every round has a number of ops that ends in 5 (35, 105, 15 and 35). After R
rounds, the median and p90 then fall R/2 latencies deep into one slot's R
latencies, never on the boundary between two slots of different cost, where
they would jump from run to run.

The shapes are drawn once from the same distributions the verification
suites use, but by this module's own code, so an edit to the suites'
private generators does not change the benchmark's traffic.

Instances are in the wire format `sylres verify <suite> --replay FILE`
accepts (root multisets as "value:mult" shorthand strings), except for
`sres-large`, whose instances name the two root sets and one d.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import comb

WORKLOADS = ("multiset", "sets", "sres-large", "grid")

# Roots are p/q with |p| <= 8 and 1 <= q <= 8, the suites' default bound.
COEFF_BOUND = 8
MAX_DEG = 6
# Rounds generated per run; a run that uses them all stops early.
POOL_ROUNDS = 64
GRID_MAX_TERMS = 2000


def _rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _distinct(rng: random.Random, k: int, bound: int = COEFF_BOUND,
              avoid=()) -> list:
    seen = set(avoid)
    out = []
    while len(out) < k:
        q = _rational(rng, bound)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def _shorthand(pairs) -> str:
    """Canonical "value:mult" text, sorted by value."""
    return ",".join(f"{v}:{m}" for v, m in sorted(pairs))


def _set_text(values) -> str:
    return _shorthand((v, 1) for v in values)


# -- shapes (identical for every seed) ----------------------------------------


def _mult_pattern(rng: random.Random, m: int, force_repeat: bool) -> tuple:
    """Multiplicities of the distinct values of an m-element multiset."""
    max_distinct = m - 1 if (force_repeat and m >= 2) else m
    distinct = rng.randint(1, max(1, max_distinct))
    mults = [1] * distinct
    for _ in range(m - distinct):
        mults[rng.randrange(distinct)] += 1
    return tuple(mults)


def _degree_pairs(rng: random.Random) -> list:
    """Every (m, n) in 1..6 except (1, 1): 35 pairs."""
    pairs = list(product(range(1, MAX_DEG + 1), repeat=2))[1:]
    rng.shuffle(pairs)
    return pairs


def _multiset_shapes(rng: random.Random) -> list:
    """Half the pairs force repeated roots, and half share roots."""
    slots = []
    for j, (m, n) in enumerate(_degree_pairs(rng)):
        force = j % 2 == 0
        a_mults = _mult_pattern(rng, m, force)
        b_mults = _mult_pattern(rng, n, force)
        shared = 0
        if (j // 2) % 2 == 0:
            shared = rng.randint(1, min(len(a_mults), len(b_mults)))
        slots.append((a_mults, b_mults, shared))
    return slots


# (m, n) of the large pairs; each admissible d = 0..n is one op.
SRES_LARGE_SHAPES = ((13, 5), (15, 4), (18, 3))


def _grid_shapes(rng: random.Random) -> list:
    """prop21 and lemma24 slots drawn like the suites draw them.

    A prop21 shape whose right-hand side sums more than GRID_MAX_TERMS
    terms (grid points times subset pairs) is drawn again. That drops about
    3% of the suite's shapes, each of which takes seconds and would be most
    of a round on its own.
    """
    slots = []
    for i in range(30):
        while True:
            m, n = rng.randint(1, MAX_DEG), rng.randint(1, MAX_DEG)
            d = rng.randint(0, m)
            nx = rng.randint(1, 2)
            esize = max(nx + d, m + n - d, m) + i % 3
            terms = (d + 1) ** nx * comb(esize, d) * comb(esize - d, m - d)
            if m + n <= 8 and terms <= GRID_MAX_TERMS:
                break
        slots.append(("prop21", m, n, d, nx, esize))
    for i in range(5):
        if i % 2 == 0:
            m, n = rng.randint(1, MAX_DEG), rng.randint(1, MAX_DEG)
            d = rng.randint(0, min(m, n))
            part = 1
        else:
            while True:
                m = rng.randint(2, MAX_DEG)
                n = rng.randint(1, m - 1)
                d = rng.randint(n + 1, m)
                if m + n - 2 * d >= 0:
                    break
            part = 2
        nx = min(rng.randint(1, 2), max(m + n - 2 * d, 0))
        slots.append(("lemma24", m, n, d, nx, part))
    return slots


# -- per-seed instances -------------------------------------------------------


def _multiset_round(rng: random.Random, schedule) -> list:
    ops = []
    for a_mults, b_mults, shared in schedule:
        a_vals = _distinct(rng, len(a_mults))
        # shares the values that carry a's first `shared` multiplicities
        b_vals = a_vals[:shared]
        b_vals += _distinct(rng, len(b_mults) - shared, avoid=a_vals)
        ops.append(("thm14", {"a": _shorthand(zip(a_vals, a_mults)),
                              "b": _shorthand(zip(b_vals, b_mults))}))
    return ops


def _sets_round(rng: random.Random, schedule) -> list:
    ops = []
    for m, n in schedule:
        vals = _distinct(rng, m + n)
        inst = {"a": _set_text(vals[:m]), "b": _set_text(vals[m:])}
        ops.extend((suite, inst) for suite in ("eq1", "eq2", "eq3"))
    return ops


def _sres_large_round(rng: random.Random, schedule) -> list:
    ops = []
    for m, n in schedule:
        vals = _distinct(rng, m + n)
        a, b = _set_text(vals[:m]), _set_text(vals[m:])
        ops.extend(("sres", {"a": a, "b": b, "d": d})
                   for d in range(n + 1))
    return ops


def _grid_round(rng: random.Random, schedule) -> list:
    ops = []
    for suite, m, n, d, nx, extra in schedule:
        vals = _distinct(rng, m + n)
        inst = {"a": _set_text(vals[:m]), "b": _set_text(vals[m:]),
                "d": d, "nx": nx}
        if suite == "prop21":
            inst["e"] = _set_text(_distinct(rng, extra, COEFF_BOUND + 4,
                                            avoid=vals))
        else:
            inst["part"] = extra
        ops.append((suite, inst))
    return ops


_BUILDERS = {
    "multiset": (_multiset_shapes, _multiset_round),
    "sets": (_degree_pairs, _sets_round),
    "sres-large": (lambda rng: SRES_LARGE_SHAPES, _sres_large_round),
    "grid": (_grid_shapes, _grid_round),
}


def rounds(workload: str, seed: int, count: int = POOL_ROUNDS) -> list:
    """`count` rounds of (suite, instance) ops; a pure function of the seed."""
    make_shapes, make_round = _BUILDERS[workload]
    shapes = make_shapes(random.Random(f"{workload}:shapes"))
    values = random.Random(f"{workload}:{seed}")
    return [make_round(values, shapes) for _ in range(count)]


def digest(pool: list) -> str:
    """sha256 of the canonical JSON of every generated op."""
    text = json.dumps(pool, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
