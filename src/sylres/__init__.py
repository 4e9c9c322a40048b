"""Exact subresultants and Sylvester sums in the roots of the inputs."""

from .poly import Poly
from .rootsets import RootMultiset, rprod
from .schur import SchurSpec, schur_poly_x, schur_value
from .sylvester import (apery_jouanolou_rhs, exchange_rhs_eval,
                        single_sum_eval, sres_det, syl_double, syl_single,
                        sylm, sylm_terms, sym_interp_eval)

__all__ = [
    "Poly", "RootMultiset", "rprod",
    "SchurSpec", "schur_poly_x", "schur_value",
    "apery_jouanolou_rhs", "exchange_rhs_eval", "single_sum_eval",
    "sres_det", "syl_double", "syl_single", "sylm", "sylm_terms",
    "sym_interp_eval",
]
