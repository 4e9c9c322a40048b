"""Command-line interface.

Subcommands: sres, syl-single, syl-double, sylm, schur, and verify, also
named fuzz, whose suite defaults to all. Each subparser sets its handler.
Exit codes: 0 success / all properties pass, 1 at least one property
failure, 2 usage or parse error. Output is human-readable by default;
--json switches to the structured wire formats.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import comb
from typing import Callable

from .errors import ParseError, SylresError, ValidationError
from .io import parse_index_set, parse_multiset, parse_poly
from .poly import Poly
from .rationals import common_denominator, scaled
from .schur import SchurSpec, evaluation_size, schur_poly_x, schur_value
from .sylvester import (sres_det, syl_double, syl_single, sylm,
                        sylm_term_bound, sylm_terms)
from .verify import SUITE_NAMES, FuzzConfig, replay, run_suite


def _emit(render: Callable[[], str]) -> int:
    """Print render() and return 0, the exit code of a printed result.

    The interpreter's int-to-str digit limit guards the parsing of input
    literals; exact results may pass it, so it is lifted while they are
    rendered."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(render())
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _emit_poly(p: Poly, as_json: bool) -> int:
    return _emit(lambda: json.dumps(p.to_json()) if as_json else str(p))


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with '-' and then a digit or '.' as a
    value, not as an option: the root list in `-a -1:2,3` or `-f -2,1`."""

    def _parse_optional(self, arg_string):
        if re.match(r"-[\d.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="sylres",
        description="Exact subresultants and Sylvester sums in the roots")
    top.add_argument("--json", action="store_true",
                     help="structured JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sres", help="determinant-definition subresultant")
    p.add_argument("-f", required=True,
                   help='poly: coeff list "2,-3,1", coeff JSON, or roots:...')
    p.add_argument("-g", required=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(run=_cmd_sres)

    p = sub.add_parser("syl-single", help="Sylvester single sum (A a set)")
    p.add_argument("-a", required=True, help="multiset shorthand or JSON")
    p.add_argument("-b", required=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(run=_cmd_syl_single)

    p = sub.add_parser("syl-double", help="Sylvester double sum (sets)")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(run=_cmd_syl_double)

    p = sub.add_parser("sylm", help="multiset Sylvester sum")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--trace", action="store_true",
                   help="dump every term (partition, subsets, sign, value)")
    p.set_defaults(run=_cmd_sylm)

    p = sub.add_parser("schur", help="confluent Schur polynomial value")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-R", default="", help="removed rows, comma list")
    p.add_argument("--points", required=True, help="multiset shorthand")
    p.add_argument("--with-x", action="store_true",
                   help="adjoin one symbolic point; prints a polynomial")
    p.set_defaults(run=_cmd_schur)

    p = sub.add_parser("verify", aliases=["fuzz"],
                       help="run an identity-verification suite, "
                            "by default all of them")
    p.add_argument("suite", nargs="?", default="all",
                   choices=sorted(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-deg", type=int, default=6)
    p.add_argument("--coeff-bound", type=int, default=8)
    p.add_argument("--no-shared-roots", action="store_true")
    p.add_argument("--replay", metavar="FILE",
                   help="re-run one recorded failure instance from FILE")
    p.set_defaults(run=_cmd_verify)
    return top


# The side m+n-2d of the matrix sres_det eliminates: on 2 vCPUs, 4 s at the
# cap and 16 s at 100, for d = 0 and f, g of equal degree with roots i/7 and
# -i/5. Coefficient lists of small integers take well under 1 s at 160.
_MAX_SIDE = 80
# The elimination makes about side^2 * width integer updates, width being
# m+n-d, on integers of up to `bits` bits: (n-d) rows of f's and (m-d) rows
# of g's coefficients, each scaled to integers. An update costs about
# bits^2 for its exact division, plus a fixed interpreter cost worth 2e6.
# Near the cap on 2 vCPUs: 7 s for random 174-bit coefficients at side 80,
# 6 s for 988-bit ones at side 40, 5 s for small ones at side 80 and
# width 7,040. The 61 coefficients of roots i/7 and -i/5 at d = 20 (3e14)
# take 14 s, and those of 40 such roots at d = 0 (8.9e13) 4 s.
_MAX_SRES_WORK = 10 ** 14


def _coefficient_bits(p: Poly) -> int:
    """The bit length of p's largest coefficient, over its common
    denominator."""
    return max(abs(c).bit_length()
               for c in scaled(p.coeffs, common_denominator(p.coeffs)))


def _check_sres(f: Poly, g: Poly, d: int) -> None:
    # a constant or zero polynomial, or a negative d, gets the library's
    # DegreeWindow message, and so does a d above min(m, n) under the side
    # cap
    if not (f.degree and g.degree and d >= 0):
        return
    m, n = f.degree, g.degree
    side, width = m + n - 2 * d, m + n - d
    if side > _MAX_SIDE:
        raise ValidationError(f"sres would eliminate a matrix of side "
                              f"{side}, above the cap of {_MAX_SIDE}")
    if d > min(m, n):
        return
    bits = (n - d) * _coefficient_bits(f) + (m - d) * _coefficient_bits(g)
    work = side ** 2 * width * (bits ** 2 + 2_000_000)
    if work > _MAX_SRES_WORK:
        raise ValidationError(
            f"sres would eliminate a matrix of side {side} and width "
            f"{width} on integers of up to {bits} bits; its work {work} is "
            f"above the cap of {_MAX_SRES_WORK}")


def _cmd_sres(args) -> int:
    f, g, d = parse_poly(args.f), parse_poly(args.g), args.d
    _check_sres(f, g, d)
    return _emit_poly(sres_det(f, g, d), args.json)


# Splits, split pairs or sylm terms a call may sum; at the cap about 2, 1 and
# 13 s on 2 vCPUs for small sets. Negative d, p or q count 0 (DegreeWindow).
_MAX_TERMS = 100_000
# The values of A (syl-single) or of A and B (syl-double) in a sum with
# terms. Each term divides a Vandermonde product of k(k-1)/2 differences
# and multiplies polynomials of degree p and q, so its cost grows with both:
# at 18 values the slowest sum under the term cap, p = 18 and q = 10, took
# 11 s on 2 vCPUs, and 23 s at 20 values; p = q = 1 on 80 values took 13 s.
_MAX_SET_SIZE = 18


def _check_terms(terms: int, what: str, **sizes: int) -> None:
    if terms > _MAX_TERMS:
        raise ValidationError(f"{what} would sum {terms} terms, "
                              f"above the cap of {_MAX_TERMS}")
    if terms and max(sizes.values(), default=0) > _MAX_SET_SIZE:
        raise ValidationError(
            f"{what} needs {', '.join(f'|{k}|' for k in sizes)} <= "
            f"{_MAX_SET_SIZE}; got "
            f"{', '.join(f'|{k}|={v}' for k, v in sizes.items())}")


def _cmd_syl_single(args) -> int:
    a, b, d = parse_multiset(args.a), parse_multiset(args.b), args.d
    _check_terms(comb(a.size, d) if d >= 0 else 0, "syl-single", A=a.size)
    return _emit_poly(syl_single(a, b, d), args.json)


def _cmd_syl_double(args) -> int:
    a, b, p, q = parse_multiset(args.a), parse_multiset(args.b), args.p, args.q
    _check_terms(comb(a.size, p) * comb(b.size, q) if min(p, q) >= 0 else 0,
                 "syl-double", A=a.size, B=b.size)
    return _emit_poly(syl_double(a, b, p, q), args.json)


def _cmd_sylm(args) -> int:
    a, b = parse_multiset(args.a), parse_multiset(args.b)
    _check_terms(sylm_term_bound(a, b, args.d), "sylm")
    if args.trace:
        terms = list(sylm_terms(a, b, args.d))
        total = sum((t.value for t in terms), Poly.zero())
        return _emit(lambda: _render_trace(terms, total, args.json))
    return _emit_poly(sylm(a, b, args.d), args.json)


def _render_trace(terms, total: Poly, as_json: bool) -> str:
    if as_json:
        return json.dumps({
            "value": total.to_json(),
            "terms": [{
                "partition": [list(blk) for blk in t.partition],
                "a_prime": [str(v) for v in t.a_prime],
                "b_prime": [str(v) for v in t.b_prime],
                "sign": t.sign,
                "value": t.value.to_json(),
            } for t in terms]})
    lines = []
    for t in terms:
        blocks = "|".join(",".join(map(str, blk)) for blk in t.partition)
        aps = ",".join(map(str, t.a_prime))
        bps = ",".join(map(str, t.b_prime))
        lines.append(f"R=({blocks}) A'=({aps}) B'=({bps}) "
                     f"sign={t.sign:+d} value={t.value}")
    lines.append(f"total: {total}")
    return "\n".join(lines)


# The points of a schur call, with multiplicity: their e_j alone took 1 s
# on 2 vCPUs for 1,000 values of 40 bits, 4 s for 4,000 ones, and 48 s for
# 600 values i/(i+1).
_MAX_POINTS = 1000
# The bits of `evaluation_size`, and its dets * side^3 * bits as the work.
# The slowest admitted call measured on 2 vCPUs, lambda = (50^30) on 30
# points of 29 bits (6e9), took 10 s; lambda = (80^80) on 1/3:40,2/7:40
# (64,000 bits) took 9 s, and the 16,384 strips of (14, 13, ..., 1) with
# the symbolic point (3.3e10) 7 s.
_MAX_SCHUR_BITS = 50_000
_MAX_SCHUR_WORK = 8_000_000_000


def _check_schur(spec: SchurSpec) -> None:
    if spec.points.size > _MAX_POINTS:
        raise ValidationError(f"schur takes at most {_MAX_POINTS} points "
                              f"with multiplicity, got {spec.points.size}")
    dets, side, bits = evaluation_size(spec)
    if bits > _MAX_SCHUR_BITS:
        raise ValidationError(f"schur would compute integers of up to {bits} "
                              f"bits, above the cap of {_MAX_SCHUR_BITS}")
    work = dets * side ** 3 * bits
    if work > _MAX_SCHUR_WORK:
        raise ValidationError(
            f"schur would evaluate {dets} Jacobi-Trudi determinants of side "
            f"{side} on {bits}-bit integers; their work {work} is above the "
            f"cap of {_MAX_SCHUR_WORK}")


def _cmd_schur(args) -> int:
    points = parse_multiset(args.points)
    removed = parse_index_set(args.R)
    spec = SchurSpec(args.k, removed, points, with_x=args.with_x)
    _check_schur(spec)
    if args.with_x:
        return _emit_poly(schur_poly_x(spec), args.json)
    value = schur_value(spec)
    return _emit(lambda: json.dumps({"value": str(value)})
                 if args.json else str(value))


def _load_replay(path: str) -> dict:
    """The record in a replay file: {"suite": ..., "instance": {...}}."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read replay file: {exc}")
    except ValueError as exc:
        raise ParseError(f"replay file {path} is not valid JSON: {exc}")
    if (not isinstance(record, dict)
            or not isinstance(record.get("instance"), dict)
            or not isinstance(record.get("suite", ""), str)):
        raise ValidationError(
            f'replay file {path} must hold {{"suite": "...", '
            f'"instance": {{...}}}}')
    return record


def _cmd_verify(args) -> int:
    if args.replay:
        record = _load_replay(args.replay)
        suite = record.get("suite", args.suite)
        result = replay(suite, record["instance"])
        _emit(lambda: json.dumps(result, sort_keys=True) if args.json
              else f"replay {suite}: {'PASS' if result.get('ok') else 'FAIL'}"
                   f" {json.dumps(result, sort_keys=True)}")
        return 0 if result.get("ok") else 1
    cfg = FuzzConfig(seed=args.seed, count=args.count,
                     max_deg=args.max_deg, coeff_bound=args.coeff_bound,
                     allow_shared_roots=not args.no_shared_roots)
    names = sorted(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name, cfg) for name in names]
    _emit(lambda: json.dumps([r.to_json() for r in reports], sort_keys=True)
          if args.json else "\n".join(r.human() for r in reports))
    return 0 if all(r.ok for r in reports) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SylresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
