"""The routes to Sres_d that the verification suites compare.

Independence: each route is traced with `sys.setprofile` on fixed inputs at
every d. The code objects under `src/sylres` that two routes on different
sides both run must be generic arithmetic from ALLOWED; otherwise a fault in
shared derivation code would show on both sides and no suite would see it.
eq2 compares the single sum with the double sum, which are on the same side
and share the split-sum kernel `_DifferenceTable`, so its pair is exempt:
eq3 (single against sres) and eq1 (double against sres) carry the
independence of the set sums.

A planted sign fault in one route makes each Sres_d suite fail, and a
test-only leg checks `sres_det` against sympy's determinant, the one check
of the shared elimination kernel `_bareiss` that does not run it.
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import sylres
from sylres import schur, verify
from sylres.io import parse_multiset as ms
from sylres.poly import Poly
from sylres.sylvester import sres_det, syl_double_at

PACKAGE = str(Path(sylres.__file__).parent)

# (module, qualified name) of the generic code two sides may share, with the
# code nested in it
ALLOWED = {
    # exact rationals and integer polynomials
    ("rationals", "qof"),
    ("rationals", "common_denominator"),
    ("rationals", "scaled"),
    ("poly", "Poly.__init__"),
    ("poly", "Poly.from_roots"),
    ("poly", "Poly.scale"),
    ("poly", "linear_product"),
    # the integer elimination kernel, checked apart by the sympy leg below
    ("linalg", "_bareiss"),
    # the range of d
    ("sylvester", "check_degree_window"),
    # the input's accessors
    ("rootsets", "RootMultiset.size"),
    ("rootsets", "RootMultiset.values"),
    ("rootsets", "RootMultiset.distinct_values"),
    ("rootsets", "RootMultiset.distinct_count"),
    # the sign (-1)^(d(m-d)) that turns a root-side sum into a route; thm14
    # and eq3 check it against the coefficient side, which does not run it
    ("verify", "_signed"),
}

MULTISETS = [(ms("0:2,1,3/2"), ms("2:2,-1")), (ms("1:3,-2"), ms("1,1/3:2")),
             (ms("1/2:2,3:2"), ms("-1:3,2"))]
SETS = [(ms("0,1,-2,1/2"), ms("3,-1,5/3")), (ms("2,-1/3"), ms("1,4,-2,0"))]


def _ds(a, b, route):
    ds = verify._valid_ds(a.size, b.size)
    if route == "collapsed":  # thm12 compares it in its regime only
        return [d for d in ds if d >= a.excess_count + b.excess_count]
    return list(ds)


def _run_route(route, pairs):
    """Build the route on each pair and evaluate it at every d; `double` is
    the eq1/eq2 double sum at every (p, q) with p + q = d."""
    calls = []
    for a, b in pairs:
        ds = _ds(a, b, route)
        if route == "double":
            ps = [(p, d - p) for d in ds
                  for p in range(max(0, d - b.size), min(d, a.size) + 1)]
            calls.append((lambda a=a, b=b: syl_double_at(a, b), ps))
        else:
            calls.append((lambda a=a, b=b: verify._ROUTES[route][2](a, b),
                          [(d,) for d in ds]))

    def run():
        for build, points in calls:
            at = build()
            for point in points:
                at(*point)
    return run


def _traced(run):
    """The code objects under the package that run() executes."""
    for cached in (schur.schur_value, schur.schur_poly_x):
        cached.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def _name(code):
    return Path(code.co_filename).stem, code.co_qualname


def _allowed(code):
    module, qualname = _name(code)
    return any(module == m and (qualname == q
                                or qualname.startswith(q + ".<locals>."))
               for m, q in ALLOWED)


# the double sums run on the split-sum kernel of the set sums
SIDES = {name: side for name, (side, _, _) in verify._ROUTES.items()}
SIDES["double"] = "set sums"

# the route pairs each suite compares, and the inputs they are traced on
COMPARED = {
    "thm14": ("sres", "sylm", MULTISETS),
    "thm12": ("sylm", "collapsed", MULTISETS),
    "eq1": ("sres", "double", SETS),
    "eq2": ("single", "double", SETS),
    "eq3": ("sres", "single", SETS),
}
SAME_SIDE = {"eq2"}

# code each route must run, so that its trace is not empty by mistake
ENTRY = {"sres": "sres_det", "sylm": "sylm", "single": "syl_single",
         "collapsed": "_collapsed_double_sum",
         "double": "syl_double_at.<locals>.double"}


def test_every_route_is_compared():
    routes = {name for x, y, _ in COMPARED.values() for name in (x, y)}
    assert routes == set(verify._ROUTES) | {"double"}


@pytest.mark.parametrize("suite", sorted(COMPARED))
def test_routes_share_only_generic_code(suite):
    x, y, pairs = COMPARED[suite]
    if suite in SAME_SIDE:
        assert SIDES[x] == SIDES[y]
        return
    assert SIDES[x] != SIDES[y]
    traces = {}
    for route in (x, y):
        traces[route] = _traced(_run_route(route, pairs))
        assert ENTRY[route] in {c.co_qualname for c in traces[route]}
    shared = sorted({".".join(_name(code)) for code in traces[x] & traces[y]
                     if not _allowed(code)})
    assert shared == [], f"{suite}: {x} and {y} both run {shared}"


def test_a_shared_derivation_is_named():
    # a route that reused sylm's derivation would share sylvester code
    traces = [_traced(_run_route("sylm", MULTISETS[:1])) for _ in range(2)]
    shared = {".".join(_name(c)) for c in traces[0] & traces[1]
              if not _allowed(c)}
    assert "sylvester.sylm" in shared
    assert "sylvester._integer_terms" in shared


# -- planted faults ------------------------------------------------------------


def _wrong_at_odd_d(build):
    def planted(a, b):
        at = build(a, b)
        return lambda d: -at(d) if d % 2 else at(d)
    return planted


PLANTED = {"thm14": "sylm", "thm12": "collapsed", "eq1": "sres",
           "eq2": "single", "eq3": "single"}


@pytest.mark.parametrize("suite", sorted(PLANTED))
def test_planted_sign_fault_is_reported(monkeypatch, suite):
    route = PLANTED[suite]
    side, cost, build = verify._ROUTES[route]
    monkeypatch.setitem(verify._ROUTES, route,
                        (side, cost, _wrong_at_odd_d(build)))
    report = verify.run_suite(suite, verify.FuzzConfig(seed=42, count=30))
    failures = [f for f in report.failures if f["seq"] >= 0]
    assert failures
    x, y, _ = COMPARED[suite]
    for f in failures:
        assert f["d"] % 2 == 1
        if y == "double":
            assert "double" in f and f["reference"] == x
            assert f["p"] + f["q"] == f["d"]
        else:
            assert x in f and y in f
            assert f[x]["coeffs"] == [str(-F(c)) for c in f[y]["coeffs"]]


# -- the determinant definition, by sympy ----------------------------------------


def _determinant_definition(sympy, f, g, d):
    """Sres_d by sympy: the determinant of the rows x^(n-d-1) f, ..., f,
    x^(m-d-1) g, ..., g, in the columns of x^(m+n-d-1), ..., x^(d+1), with
    each row's polynomial in the last column."""
    x = sympy.Symbol("x")
    fx, gx = (sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                  for k, c in enumerate(p.coeffs)) for p in (f, g))
    m, n = f.degree, g.degree
    rows = ([sympy.expand(x ** i * fx) for i in range(n - d - 1, -1, -1)]
            + [sympy.expand(x ** i * gx) for i in range(m - d - 1, -1, -1)])
    matrix = sympy.Matrix([
        [sympy.Poly(r, x).coeff_monomial(x ** e)
         for e in range(m + n - d - 1, d, -1)] + [r] for r in rows])
    det = sympy.Poly(sympy.expand(matrix.det()), x)
    return Poly(F(int(c.p), int(c.q)) for c in reversed(det.all_coeffs()))


def _random_poly(rng, degree):
    # half the lower coefficients 0, so that the elimination meets zero
    # pivots and swaps rows
    coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) * rng.randint(0, 1)
              for _ in range(degree)]
    return Poly(coeffs + [F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))])


def test_sres_det_matches_sympy_determinant():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    checked = 0
    for i in range(16):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if i % 4 == 0:  # a shared root, so that low orders vanish
            r = F(rng.randint(-3, 3))
            f = Poly.from_roots([r] + [F(rng.randint(-4, 4), 2)
                                       for _ in range(m - 1)])
            g = Poly.from_roots([r] + [F(rng.randint(-4, 4), 3)
                                       for _ in range(n - 1)])
        else:
            f, g = _random_poly(rng, m), _random_poly(rng, n)
        for d in verify._valid_ds(m, n):
            assert sres_det(f, g, d) == _determinant_definition(sympy, f, g, d), \
                (f.coeffs, g.coeffs, d)
            checked += 1
    assert checked >= 40
