"""Seeded identity-verification suites and the grid-based identity checker.

Each suite is one `_SUITES` entry: a deterministic instance generator, a
single-instance checker and the kind of each instance field, by which
`decode_instance` decodes and bounds every instance, generated or replayed.
Failures carry the instance as generated, so that it can be replayed alone.
The Sres_d suites compare two `_ROUTES`, each signed to equal Sres_d: thm14
`sres` (the determinant of the coefficients) with `sylm` (the multiset sum)
and eq3 `sres` with `single` (the single sum over sets) at every admissible
d, thm12 `sylm` with `collapsed` (the literal two-index sum) at its d; eq1
and eq2 each double sum with (-1)^(p(m-d)) C(d, p) times `sres` or `single`.
A failure names d and both routes, which share only generic arithmetic.
Both sides of every multivariate identity are polynomial of per-variable
degree <= d, so agreement on a per-variable grid of d+1 distinct points
proves the identity.
"""

from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable, Iterable, List, Optional, Sequence

from .combinatorics import check_sign_lemma, enum_partitions3
from .errors import NotDivisible, UnknownSuite, ValidationError
from .io import parse_multiset
from .poly import Poly
from .rationals import qof
from .records import Frozen, Record
from .rootsets import RootMultiset, rprod
from .schur import schur_consistency_check
from .sylvester import (apery_jouanolou_rhs_at, exchange_rhs_at,
                        single_sum_at, sres_det, syl_double_at, syl_single,
                        sylm, sylm_term_bound, sym_interp_eval)

import random


class FuzzConfig(Frozen):
    """What the generators draw: `count` instances of degree at most
    `max_deg`, on rationals p/q with |p| and q at most `coeff_bound`.

    A negative count, or a degree or bound below 1, is refused here with
    ValidationError. `_sample_distinct` refuses more distinct values than
    the bound admits, `lemma24` a max degree outside 3..12, `eq1`-`eq3`
    one above 10, and `run_suite` a thm14 run of 8 or more instances with
    a max degree below 2. No check draws a number, so a config that can be
    met draws the same instances whether or not the checks run.
    """

    __slots__ = ("seed", "count", "max_deg", "coeff_bound",
                 "allow_shared_roots")

    def __init__(self, seed: int = 0, count: int = 50, max_deg: int = 6,
                 coeff_bound: int = 8, allow_shared_roots: bool = True):
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        if max_deg < 1:
            raise ValidationError(f"max degree must be >= 1, got {max_deg}")
        if coeff_bound < 1:
            raise ValidationError(
                f"coefficient bound must be >= 1, got {coeff_bound}")
        super().__init__(seed, count, max_deg, coeff_bound,
                         allow_shared_roots)


class SuiteReport(Record):
    """One suite run: its instance count, failure records, run time and
    notes, filled in as the run goes."""

    __slots__ = ("suite", "instances", "failures", "wall_time", "notes")

    def __init__(self, suite: str, instances: int = 0,
                 failures: Optional[List[dict]] = None,
                 wall_time: float = 0.0, notes: Optional[List[str]] = None):
        self.suite = suite
        self.instances = instances
        self.failures = [] if failures is None else failures
        self.wall_time = wall_time
        self.notes = [] if notes is None else notes

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "instances": self.instances,
                "failures": list(self.failures),
                "wall_time": self.wall_time, "notes": list(self.notes)}

    def human(self) -> str:
        lines = [f"[{'PASS' if self.ok else 'FAIL'}] suite {self.suite}: "
                 f"{self.instances} instances, {len(self.failures)} failures,"
                 f" {self.wall_time:.2f}s"]
        lines.extend(f"  note: {n}" for n in self.notes)
        lines.extend("  failure: " + json.dumps(f, sort_keys=True)
                     for f in self.failures)
        return "\n".join(lines)


def grid_check_identity(lhs: Callable[[tuple], Fraction],
                        rhs: Callable[[tuple], Fraction],
                        nvars: int, per_var_degree: int,
                        avoid: Iterable = ()) -> bool:
    """Compare two k-variable polynomial evaluators, each a function of a
    point tuple, on a full grid.

    Agreement at (per_var_degree+1)^k points with distinct coordinates per
    axis proves equality of polynomials of per-variable degree at most
    per_var_degree. A negative count or degree is refused: its grid would
    be empty and check nothing.
    """
    if nvars < 0 or per_var_degree < 0:
        raise ValidationError(f"empty grid: {nvars} variables of "
                              f"per-variable degree {per_var_degree}")
    avoid_set = {qof(v) for v in avoid}
    values = list(itertools.islice(
        (q for q in map(Fraction, itertools.count()) if q not in avoid_set),
        per_var_degree + 1))
    return all(lhs(point) == rhs(point)
               for point in itertools.product(values, repeat=nvars))


# -- instance generation --------------------------------------------------------


def _rand_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _pool_size(bound: int) -> int:
    """How many distinct values `_rand_rational(rng, bound)` can return.

    They are 0 and, with either sign, each p/q in lowest terms with p and
    q in 1..bound: 2 * sum(phi(q) for q <= bound) - 1 of them, counted
    with Euler's phi from a sieve.
    """
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:  # p is prime
            for j in range(p, bound + 1, p):
                phi[j] -= phi[j] // p
    return 1 + 2 * (2 * sum(phi[1:]) - 1)


def _sample_distinct(rng: random.Random, k: int, bound: int,
                     avoid: Sequence[Fraction] = ()) -> List[Fraction]:
    seen = set(avoid)
    # The 2 bound + 1 integers in range alone leave k values free up to
    # here. Past it, the O(bound) sieve costs no more than the k draws.
    if k + len(seen) > 2 * bound + 1:
        free = _pool_size(bound) - sum(
            1 for v in seen if abs(v.numerator) <= bound
            and v.denominator <= bound)
        if k > free:
            raise ValidationError(
                f"cannot draw {k} distinct rationals with numerator and "
                f"denominator bound {bound}: {free} are free")
    out: List[Fraction] = []
    while len(out) < k:
        q = _rand_rational(rng, bound)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def _rand_multiset(rng: random.Random, m: int, bound: int,
                   avoid: Sequence[Fraction] = (),
                   force_repeat: bool = False) -> RootMultiset:
    max_distinct = m - 1 if (force_repeat and m >= 2) else m
    distinct = rng.randint(1, max(1, max_distinct))
    values = _sample_distinct(rng, distinct, bound, avoid)
    mults = [1] * distinct
    for _ in range(m - distinct):
        mults[rng.randrange(distinct)] += 1
    return RootMultiset(zip(values, mults))


def _rand_pair(rng: random.Random, cfg: FuzzConfig,
               force_repeat: bool) -> tuple:
    m = rng.randint(1, cfg.max_deg)
    n = rng.randint(1, cfg.max_deg)
    a = _rand_multiset(rng, m, cfg.coeff_bound,
                       force_repeat=force_repeat and m >= 2)
    share = cfg.allow_shared_roots and rng.random() < 0.5
    avoid = () if share else a.distinct_values()
    b = _rand_multiset(rng, n, cfg.coeff_bound, avoid=avoid,
                       force_repeat=force_repeat and n >= 2)
    return a, b

def _rand_set_pair(rng: random.Random, cfg: FuzzConfig,
                   max_total: Optional[int] = None) -> tuple:
    # under a cap on m + n neither degree is drawn above cap - 1, so a large
    # max degree does not make nearly every draw fail the cap
    top = cfg.max_deg if max_total is None else min(cfg.max_deg,
                                                    max_total - 1)
    while True:
        m = rng.randint(1, top)
        n = rng.randint(1, top)
        if max_total is None or m + n <= max_total:
            break
    vals = _sample_distinct(rng, m + n, cfg.coeff_bound)
    return (RootMultiset.from_values(vals[:m]),
            RootMultiset.from_values(vals[m:]))


def _valid_ds(m: int, n: int) -> range:
    return range(0, min(m, n) + (0 if m == n else 1))


def _collapsed_double_sum(a: RootMultiset, b: RootMultiset, d: int) -> Poly:
    """Literal two-index multiset sum, written out independently of sylm.

    It holds Sres_d only for d >= m'+n', the collapsed regime, but runs at
    any d >= m': the worked examples' negative case applies it below."""
    (abar, a_excess), (bbar, _) = a.split(), b.split()
    m, mp = a.size, a.excess_count
    total = Poly.zero()
    for ap_vals in itertools.combinations(abar.distinct_values(), d - mp):
        ap = RootMultiset.from_values(ap_vals)
        a_rest = abar.difference(ap)
        for bp_vals in itertools.combinations(bbar.distinct_values(), mp):
            bp = RootMultiset.from_values(bp_vals)
            b_rest = bbar.difference(bp)
            num = rprod(a_excess, b_rest) * rprod(a_rest, b.difference(bp))
            if num == 0:
                continue
            den = rprod(ap, a_rest) * rprod(bp, b_rest)
            total = total + (Poly.from_roots(ap_vals)
                             * Poly.from_roots(bp_vals)).scale(num / den)
    return total.scale(-1 if (mp * (m - d)) % 2 else 1)


# sylm's terms per thm14 or thm12 record, by `sylm_term_bound`: at most 738
# for degrees up to 6, and 9,898 up to 8, a thm14 replay of about 1 s on a
# 2-vCPU machine under CPython 3.11. The generators stay below the cap by
# their degrees, so that no draw stops a run part way.
_SYLM_MAX_TERMS = 10_000
_SYLM_MAX_DEG = 8


def _check_sylm_terms(a: RootMultiset, b: RootMultiset, ds) -> None:
    terms = sum(sylm_term_bound(a, b, d) for d in ds)
    if terms > _SYLM_MAX_TERMS:
        raise ValidationError(f"sylm would enumerate up to {terms} terms, "
                              f"above the cap of {_SYLM_MAX_TERMS}")


# eq1 and eq2 replay the double sums at every (d, p): 1.4-1.8 s at |A| =
# |B| = 10 on 2 vCPUs, and about four times as long per further root of each
_SETS_MAX_SIZE = 10


def _check_sets_size(a: RootMultiset, b: RootMultiset) -> None:
    if max(a.size, b.size) > _SETS_MAX_SIZE:
        raise ValidationError(f"eq1-eq3 need |A|, |B| <= {_SETS_MAX_SIZE}; "
                              f"got |A|={a.size}, |B|={b.size}")


# -- routes to Sres_d -------------------------------------------------------


def _signed(route: Callable) -> Callable:
    """Sres_d's builder by a root-side sum (a, b, d), times (-1)^(d(m-d))."""
    return lambda a, b: lambda d: route(a, b, d).scale(
        -1 if d * (a.size - d) % 2 else 1)


# name -> (side, cost check (a, b, ds), builder (a, b) -> (d -> Sres_d)). The
# builders read library functions as module globals when run, so that their
# wrappers see every call. At d >= m'+n' sylm's bound counts collapsed's pairs.
_ROUTES = {
    "sres": ("coefficients", lambda a, b, ds: None,
             lambda a, b: partial(sres_det, Poly.from_roots(a.values()),
                                  Poly.from_roots(b.values()))),
    "single": ("set sums", lambda a, b, ds: _check_sets_size(a, b),
               _signed(lambda a, b, d: syl_single(a, b, d))),
    "sylm": ("multiset sum", _check_sylm_terms,
             _signed(lambda a, b, d: sylm(a, b, d))),
    "collapsed": ("literal sum", _check_sylm_terms,
                  _signed(_collapsed_double_sum)),
}


def _compare(x: str, y: str, inst: dict,
             ds: Optional[Sequence[int]] = None) -> dict:
    """Routes x and y at each d of ds (default: every valid d) to a failure."""
    a, b = inst["a"], inst["b"]
    ds = _valid_ds(a.size, b.size) if ds is None else ds
    for _, cost, _ in (_ROUTES[x], _ROUTES[y]):
        cost(a, b, ds)
    at_x, at_y = (_ROUTES[name][2](a, b) for name in (x, y))
    for d in ds:
        vx, vy = at_x(d), at_y(d)
        if vx != vy:
            return {"ok": False, "d": d, x: vx.to_json(), y: vy.to_json()}
    return {"ok": True}


# -- per-suite generators and checkers -----------------------------------------


def _check_sylm_deg(cfg: FuzzConfig) -> None:
    if cfg.max_deg > _SYLM_MAX_DEG:
        raise ValidationError(f"thm14 and thm12 need max degree <= "
                              f"{_SYLM_MAX_DEG}, got {cfg.max_deg}")


def _gen_thm14(cfg: FuzzConfig):
    _check_sylm_deg(cfg)
    rng = random.Random(cfg.seed)
    for i in range(cfg.count):
        a, b = _rand_pair(rng, cfg, force_repeat=i % 2 == 0)
        yield {"a": a.to_shorthand(), "b": b.to_shorthand()}


def _check_thm14(inst: dict) -> dict:
    """sres against sylm, and the regimes of the ds checked up to a failure."""
    a, b = inst["a"], inst["b"]
    out = _compare("sres", "sylm", inst)
    last = out.get("d", _valid_ds(a.size, b.size)[-1])
    excess = a.excess_count + b.excess_count
    out["regimes"] = sorted({"collapsed" if excess <= d else "general"
                             for d in range(last + 1)})
    return out


def _gen_thm12(cfg: FuzzConfig):
    _check_sylm_deg(cfg)
    rng = random.Random(cfg.seed)
    produced = 0
    while produced < cfg.count:
        a, b = _rand_pair(rng, cfg, force_repeat=produced % 2 == 0)
        ds = [d for d in _valid_ds(a.size, b.size)
              if d >= a.excess_count + b.excess_count]
        if not ds:
            continue
        produced += 1
        yield {"a": a.to_shorthand(), "b": b.to_shorthand(),
               "d": rng.choice(ds)}


def _check_thm12(inst: dict) -> dict:
    a, b, d = inst["a"], inst["b"], inst["d"]
    if d < (excess := a.excess_count + b.excess_count):
        raise ValidationError(
            f"thm12 needs d >= m'+n' = {excess}, got d={d}")
    return _compare("sylm", "collapsed", inst, [d])


def _gen_sets(cfg: FuzzConfig):
    if cfg.max_deg > _SETS_MAX_SIZE:
        raise ValidationError(f"eq1-eq3 need max degree <= {_SETS_MAX_SIZE}"
                              f", got {cfg.max_deg}")
    rng = random.Random(cfg.seed)
    for _ in range(cfg.count):
        a, b = _rand_set_pair(rng, cfg)
        yield {"a": a.to_shorthand(), "b": b.to_shorthand()}


def _check_double(ref: str, inst: dict) -> dict:
    """Each double sum with p + q = d against (-1)^(p(m-d)) C(d, p) Sres_d,
    by route `ref` (eq1: sres, eq2: single)."""
    a, b, (_, cost, build) = inst["a"], inst["b"], _ROUTES[ref]
    m, n, ds = a.size, b.size, _valid_ds(a.size, b.size)
    _check_sets_size(a, b)
    cost(a, b, ds)
    at, double = build(a, b), syl_double_at(a, b)
    for d in ds:
        sres = at(d)
        for p in range(max(0, d - n), min(d, m) + 1):
            expect = sres.scale((-1 if p * (m - d) % 2 else 1) * comb(d, p))
            got = double(p, d - p)
            if got != expect:
                return {"ok": False, "d": d, "p": p, "q": d - p,
                        "double": got.to_json(), "expected": expect.to_json(),
                        "reference": ref}
    return {"ok": True}


# lemma24's sums run over the C(|A|, d) splits of A and the C(|B|, d) of B
# at each grid point: at most C(12, 6) = 924 at this cap, C(30, 15) =
# 155,117,520 at |A| = 30
_LEMMA24_MAX_SIZE = 12


def _gen_lemma24(cfg: FuzzConfig):
    # part (2) needs |B| < d <= |A| with |A| + |B| - 2d >= 0, so |A| >= 3
    if not 3 <= cfg.max_deg <= _LEMMA24_MAX_SIZE:
        raise ValidationError(
            f"lemma24 needs max degree 3..{_LEMMA24_MAX_SIZE}, "
            f"got {cfg.max_deg}")
    rng = random.Random(cfg.seed)
    emitted = 0
    while emitted < 2 * cfg.count:
        part = 1 if emitted % 2 == 0 else 2
        if part == 1:
            # part (1): |A| >= d, |B| >= d
            a, b = _rand_set_pair(rng, cfg)
            d = rng.randint(0, min(a.size, b.size))
        else:
            # part (2): |B| < d <= |A|, with room for a nonnegative |X|
            m = rng.randint(2, cfg.max_deg)
            n = rng.randint(1, m - 1)
            d = rng.randint(n + 1, m)
            if m + n - 2 * d < 0:
                continue
            vals = _sample_distinct(rng, m + n, cfg.coeff_bound)
            a = RootMultiset.from_values(vals[:m])
            b = RootMultiset.from_values(vals[m:])
        nx = min(rng.randint(1, 2), max(a.size + b.size - 2 * d, 0))
        emitted += 1
        yield {"part": part, "a": a.to_shorthand(), "b": b.to_shorthand(),
               "d": d, "nx": nx}


def _check_lemma24(inst: dict) -> dict:
    a, b, d, nx = inst["a"], inst["b"], inst["d"], inst["nx"]
    m, n = a.size, b.size
    if max(m, n) > _LEMMA24_MAX_SIZE:
        raise ValidationError(
            f"lemma24 needs |A|, |B| <= {_LEMMA24_MAX_SIZE}; "
            f"got |A|={m}, |B|={n}")
    # the lemma's hypotheses, which _gen_lemma24 draws
    if nx > m + n - 2 * d or (inst["part"] == 2 and not n < d <= m):
        raise ValidationError(
            f"lemma24 needs nx <= m+n-2d, and |B| < d <= |A| in part 2; "
            f"got |A|={m}, |B|={n}, d={d}, nx={nx}")
    avoid = a.distinct_values() + b.distinct_values()
    lhs = single_sum_at(a, b, d)
    rhs = exchange_rhs_at(a, b, d) if inst["part"] == 1 else lambda xs: 0
    return {"ok": grid_check_identity(lhs, rhs, nx, d, avoid)}


# prop21 draws m + n at most this, so d <= m < this, and |E| at most 2
# past its minimum: its split sum has about 3^|E| terms
_PROP21_MAX_TOTAL = 8


def _gen_prop21(cfg: FuzzConfig):
    rng = random.Random(cfg.seed)
    for i in range(cfg.count):
        a, b = _rand_set_pair(rng, cfg, max_total=_PROP21_MAX_TOTAL)
        m, n = a.size, b.size
        d = rng.randint(0, m)
        nx = rng.randint(1, 2)
        bound = max(nx + d, m + n - d, m)
        esize = bound + i % 3
        e = RootMultiset.from_values(_sample_distinct(
            rng, esize, cfg.coeff_bound + 4,
            avoid=a.distinct_values() + b.distinct_values()))
        yield {"a": a.to_shorthand(), "b": b.to_shorthand(),
               "e": e.to_shorthand(), "d": d, "nx": nx}


def _check_prop21(inst: dict) -> dict:
    a, b, e, d, nx = (inst[k] for k in ("a", "b", "e", "d", "nx"))
    m, n = a.size, b.size
    cap = max(nx + d, m + n - d, m) + 2
    if m + n > _PROP21_MAX_TOTAL or e.size > cap:
        raise ValidationError(
            f"prop21 needs |A|+|B| <= {_PROP21_MAX_TOTAL} and |E| <= {cap},"
            f" got |A|+|B|={m + n}, |E|={e.size}")
    avoid = a.distinct_values() + b.distinct_values() + e.distinct_values()
    lhs, rhs = single_sum_at(a, b, d), apery_jouanolou_rhs_at(a, b, d, e, nx)
    return {"ok": grid_check_identity(lhs, rhs, nx, d, avoid)}


def _symmetric_pool(d: int, nvars: int):
    """Named symmetric test functions with per-variable degree <= d."""
    pool = [("const", lambda xs: Fraction(7, 3))]
    if d >= 1:
        pool.append(("e1", lambda xs: sum(xs, Fraction(0))))
        if nvars >= 2:
            pool.append(("e2", lambda xs: sum(
                (xi * xj for i, xi in enumerate(xs) for xj in xs[i + 1:]),
                Fraction(0))))
    for k in range(2, d + 1):
        pool.append((f"p{k}",
                     lambda xs, k=k: sum((x ** k for x in xs), Fraction(0))))
    return pool


# prop23 sums over the d-subsets of E, with d < |E| <= this
_PROP23_MAX_E = 6


def _gen_prop23(cfg: FuzzConfig):
    rng = random.Random(cfg.seed)
    for _ in range(cfg.count):
        esize = rng.randint(2, min(cfg.max_deg + 1, _PROP23_MAX_E))
        d = rng.randint(0, esize - 1)
        e_vals = _sample_distinct(rng, esize, cfg.coeff_bound)
        e = RootMultiset.from_values(e_vals)
        xs = [_rand_rational(rng, cfg.coeff_bound)
              for _ in range(esize - d)]
        yield {"e": e.to_shorthand(), "d": d,
               "xs": [str(v) for v in xs]}


def _check_prop23(inst: dict) -> dict:
    e, d, xs = inst["e"], inst["d"], tuple(inst["xs"])
    if e.size > _PROP23_MAX_E:
        raise ValidationError(
            f"prop23 needs |E| <= {_PROP23_MAX_E}, got |E|={e.size}")
    for name, h in _symmetric_pool(d, len(xs)):
        got, want = sym_interp_eval(e, d, h, xs), h(xs)
        if got != want:
            return {"ok": False, "h": name, "got": str(got), "want": str(want)}
    return {"ok": True}


# lemma34 enumerates all 3^r partitions with r + 1 shifts each
_LEMMA34_MAX_R = 6


def _gen_lemma34(cfg: FuzzConfig):
    for r in range(1, min(cfg.max_deg, _LEMMA34_MAX_R) + 1):
        yield {"r": r}


def _check_lemma34(inst: dict) -> dict:
    r = inst["r"]
    checked = 0
    for part in enum_partitions3(r):
        b1 = part[0]
        for s in range(0, r + 1):
            if b1 and b1[0] - s < 1:
                continue
            checked += 1
            if not check_sign_lemma(r, s, part):
                return {"ok": False, "s": s,
                        "blocks": [list(b) for b in part]}
    return {"ok": True, "checked": checked}


# schur-consistency draws k <= 10, which also bounds the removed rows and
# the points; a replay at k = 400 took 90 s
_SCHUR_MAX_K = 10


def _gen_schur_consistency(cfg: FuzzConfig):
    """`count` specs on point sets, then `count` on true multisets.

    Every second multiset spec adjoins the symbolic point, so the exact
    polynomial division of the reference ratio is checked for a zero
    remainder.
    """
    rng = random.Random(cfg.seed)
    for _ in range(cfg.count):
        r = rng.randint(1, 5)
        k = rng.randint(r, r + 3)
        removed = tuple(sorted(rng.sample(range(1, k + 1), k - r)))
        points = RootMultiset.from_values(
            _sample_distinct(rng, r, cfg.coeff_bound))
        yield {"k": k, "removed": list(removed),
               "points": points.to_shorthand(), "with_x": False}
    for i in range(cfg.count):
        with_x = i % 2 == 1
        r = rng.randint(2, 6)
        points = _rand_multiset(rng, r, cfg.coeff_bound, force_repeat=True)
        rows = r + with_x
        k = rng.randint(rows, rows + 3)
        removed = tuple(sorted(rng.sample(range(1, k + 1), k - rows)))
        yield {"k": k, "removed": list(removed),
               "points": points.to_shorthand(), "with_x": with_x}


def _check_schur_consistency(inst: dict) -> dict:
    ok = schur_consistency_check(inst["k"], tuple(inst["removed"]),
                                 inst["points"], with_x=inst["with_x"])
    return {"ok": ok}


_EXAMPLE_TRIPLES = [("0", "1", "2"), ("-1", "1/2", "3"), ("2", "-3", "5/2")]


def _gen_examples(cfg: FuzzConfig):
    for a1, a2, b1 in _EXAMPLE_TRIPLES:
        yield {"alpha1": a1, "alpha2": a2, "beta1": b1}


def _check_examples(inst: dict) -> dict:
    a1, a2, b1 = inst["alpha1"], inst["alpha2"], inst["beta1"]
    # the worked examples' hypothesis, which _gen_examples draws
    if len({a1, a2, b1}) < 3:
        raise ValidationError(f"examples needs three distinct values, "
                              f"got {a1}, {a2}, {b1}")
    a = RootMultiset([(a1, 1), (a2, 2)])
    f = Poly.from_roots(a.values())
    b_small, b_big = RootMultiset([(b1, 2)]), RootMultiset([(b1, 3)])
    g_small, g_big = (Poly.from_roots(b.values()) for b in (b_small, b_big))
    # large-d case: g = (x - b1)^2, d = 2 -> Sres_2 = g, by sylm and sres;
    # general case: g = (x - b1)^3, d = 2 -> Sres_2 = g - f
    for case, name, b, want in (
            ("d in range", "sylm", b_small, g_small),
            ("sres oracle, d in range", "sres", b_small, g_small),
            ("d below excess bound", "sylm", b_big, g_big - f)):
        if _ROUTES[name][2](a, b)(2) != want:
            return {"ok": False, "case": case}
    # negative case: the collapsed formula forced below its range, by the
    # literal two-index sum, is a multiple of (x - b1) and differs from the
    # true subresultant
    forced = _ROUTES["collapsed"][2](a, b_big)(2)
    try:
        forced.exact_div(Poly.from_roots([b1]))
    except NotDivisible:
        return {"ok": False, "case": "forced value not divisible by (x-b1)"}
    if forced == g_big - f:
        return {"ok": False, "case": "forced value unexpectedly correct"}
    return {"ok": True}


# Each suite's generator, checker and the kind of every field its checker
# reads. A RootMultiset or Fraction field is a string, parsed; an int or
# bool field is that JSON value; range(lo, hi) is an integer in it; [kind]
# is a list of items of that kind; (kind, default) may be omitted.
_PAIR = {"a": RootMultiset, "b": RootMultiset}
_SUITES = {
    "thm14": (_gen_thm14, _check_thm14, _PAIR),
    "thm12": (_gen_thm12, _check_thm12, {**_PAIR, "d": int}),
    "eq1": (_gen_sets, partial(_check_double, "sres"), _PAIR),
    "eq2": (_gen_sets, partial(_check_double, "single"), _PAIR),
    "eq3": (_gen_sets, partial(_compare, "sres", "single"), _PAIR),
    "lemma24": (_gen_lemma24, _check_lemma24, {
        **_PAIR, "d": int, "nx": range(0, 3), "part": range(1, 3)}),
    "prop21": (_gen_prop21, _check_prop21, {
        **_PAIR, "e": RootMultiset, "d": range(0, _PROP21_MAX_TOTAL),
        "nx": range(0, 3)}),
    "prop23": (_gen_prop23, _check_prop23, {
        "e": RootMultiset, "d": range(0, _PROP23_MAX_E), "xs": [Fraction]}),
    "lemma34": (_gen_lemma34, _check_lemma34,
                {"r": range(1, _LEMMA34_MAX_R + 1)}),
    "schur-consistency": (_gen_schur_consistency, _check_schur_consistency, {
        "k": range(0, _SCHUR_MAX_K + 1), "removed": [int],
        "points": RootMultiset,
        "with_x": (bool, False)}),
    "examples": (_gen_examples, _check_examples,
                 dict.fromkeys(("alpha1", "alpha2", "beta1"), Fraction)),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: FuzzConfig) -> SuiteReport:
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; "
                           f"known: {', '.join(SUITE_NAMES)}")
    gen, check, _ = _SUITES[name]
    # thm14 asks 8 or more instances to cover both regimes, and the
    # general one needs a repeated root, so a degree of at least 2
    regime_check = name == "thm14" and cfg.count >= 8
    if regime_check and cfg.max_deg < 2:
        raise ValidationError(
            f"thm14 needs max degree >= 2 to reach its general regime, "
            f"got {cfg.max_deg}")
    report = SuiteReport(suite=name)
    start = time.perf_counter()
    regimes: set = set()
    for seq, inst in enumerate(gen(cfg)):
        report.instances += 1
        result = check(decode_instance(name, inst))
        regimes.update(result.get("regimes", ()))
        if not result.get("ok", False):
            entry = {"seq": seq, "suite": name, "instance": inst}
            entry.update({k: v for k, v in result.items() if k != "ok"})
            report.failures.append(entry)
    if regime_check:
        missing = {"collapsed", "general"} - regimes
        if missing:
            report.failures.append({
                "seq": -1, "suite": name, "instance": None,
                "why": f"regime(s) never exercised: {sorted(missing)}"})
        else:
            report.notes.append("both collapsed and general regimes covered")
    report.wall_time = time.perf_counter() - start
    return report


def _describe(kind) -> str:
    if isinstance(kind, list):
        return f"a list, each item {_describe(kind[0])}"
    if isinstance(kind, range):
        return f"an integer in {kind.start}..{kind.stop - 1}"
    return {RootMultiset: "a multiset string", Fraction: "a rational string",
            int: "an integer", bool: "true or false"}[kind]


def _decode(kind, value, where: str):
    if isinstance(kind, list) and isinstance(value, list):
        return [_decode(kind[0], v, f"{where} item {i}")
                for i, v in enumerate(value)]
    if kind in (RootMultiset, Fraction) and isinstance(value, str):
        # the module global, looked up per call, so that a wrapper
        # installed on it sees every call
        return parse_multiset(value) if kind is RootMultiset else qof(value)
    # JSON true/false load as bool, which an int field refuses
    if kind in (int, bool) and type(value) is kind:
        return value
    if isinstance(kind, range) and type(value) is int and value in kind:
        return value
    raise ValidationError(f"{where} must be {_describe(kind)}, "
                          f"got {value!r}")


def decode_instance(name: str, inst: dict) -> dict:
    """The suite's declared fields of `inst`, decoded by their kinds and
    with defaults filled in; ValidationError if one is missing or bad."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}")
    out = {}
    for key, kind in _SUITES[name][2].items():
        kind, *default = kind if isinstance(kind, tuple) else (kind,)
        if key in inst:
            out[key] = _decode(kind, inst[key], f"{name} field {key!r}")
        elif default:
            out[key] = default[0]
        else:
            raise ValidationError(f"{name} instance lacks the field {key!r}")
    return out


def replay(name: str, inst: dict) -> dict:
    """Re-run a single recorded instance for the given suite."""
    return _SUITES[name][1](decode_instance(name, inst))
