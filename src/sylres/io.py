"""Text and JSON input handling for the CLI.

Multiset shorthand: "1:2,3/2:1" means root 1 with multiplicity 2 and root
3/2 simple; a bare value means multiplicity 1. A polynomial is a comma list
of ascending coefficients, or "roots:" and a multiset for the monic
polynomial with those roots. JSON forms follow the wire schemas of the poly
and rootsets modules, which refuse JSON true and false as values. All input
is canonicalized (sorted values, merged multiplicities, reduced rationals).
"""

from __future__ import annotations

import json

from .errors import ParseError, ValidationError
from .poly import Poly
from .rationals import parse_rational
from .rootsets import RootMultiset


def parse_multiset(text: str) -> RootMultiset:
    s = text.strip()
    if not s:
        return RootMultiset.empty()
    if s.startswith("{"):
        return RootMultiset.from_json(_load_json(s))
    pairs = []
    for pos, chunk in enumerate(s.split(",")):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty multiset entry", pos)
        if ":" in chunk:
            value_text, _, mult_text = chunk.partition(":")
            try:
                mult = int(mult_text)
            except ValueError:
                raise ParseError(f"bad multiplicity {mult_text!r}", pos)
        else:
            value_text, mult = chunk, 1
        pairs.append((parse_rational(value_text), mult))
    return RootMultiset(pairs)


# The degree of a "roots:" polynomial: two at the cap make a matrix of side
# 80 at d = 0, which sres_det eliminates in about 4 s on 2 vCPUs for roots
# i/7; at degree 100,000 the product of the roots alone ran past 60 s.
_MAX_ROOTS = 40


def parse_poly(text: str) -> Poly:
    s = text.strip()
    if s.startswith("roots:"):
        roots = parse_multiset(s[len("roots:"):])
        if roots.size > _MAX_ROOTS:
            raise ValidationError(f"roots: takes at most {_MAX_ROOTS} roots "
                                  f"with multiplicity, got {roots.size}")
        return Poly.from_roots(roots.values())
    if s.startswith("{"):
        return Poly.from_json(_load_json(s))
    # comma list of ascending coefficients
    if not s:
        return Poly.zero()
    return Poly(parse_rational(c) for c in s.split(","))


def parse_index_set(text: str) -> tuple:
    s = text.strip()
    if not s:
        return ()
    try:
        return tuple(sorted(int(c) for c in s.split(",")))
    except ValueError:
        raise ParseError(f"bad index list {text!r}")


def _load_json(s: str) -> dict:
    try:
        return json.loads(s)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos)
