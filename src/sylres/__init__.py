"""Exact subresultants and Sylvester sums in the roots of the inputs."""

from .combinatorics import (IndexPartition, binom, check_sign_lemma,
                            enum_partitions3, sg_partition, sg_set,
                            sigma_sign)
from .linalg import (MatrixP, MatrixQ, det_p, det_q, remove_rows,
                     vandermonde_confluent, vandermonde_confluent_with_x)
from .poly import Poly
from .rationals import format_rational, parse_rational
from .rootsets import RootMultiset, SubsetSelection, rprod
from .schur import (SchurSpec, schur_consistency_check, schur_poly_x,
                    schur_value)
from .sylvester import (SylmTerm, apery_jouanolou_rhs, exchange_rhs_eval,
                        single_sum_eval, sres_det, syl_double, syl_single,
                        sylm, sylm_terms, sym_interp_eval)
from .verify import FuzzConfig, SuiteReport, grid_check_identity, run_suite

__all__ = [
    "IndexPartition", "binom", "check_sign_lemma", "enum_partitions3",
    "sg_partition", "sg_set", "sigma_sign",
    "MatrixP", "MatrixQ", "det_p", "det_q", "remove_rows",
    "vandermonde_confluent", "vandermonde_confluent_with_x",
    "Poly", "format_rational", "parse_rational",
    "RootMultiset", "SubsetSelection", "rprod",
    "SchurSpec", "schur_consistency_check", "schur_poly_x", "schur_value",
    "SylmTerm", "apery_jouanolou_rhs", "exchange_rhs_eval",
    "single_sum_eval", "sres_det", "syl_double", "syl_single", "sylm",
    "sylm_terms", "sym_interp_eval",
    "FuzzConfig", "SuiteReport", "grid_check_identity", "run_suite",
]
