"""Exact computer algebra for symmetric quivers: motivic generating series,
linking/unlinking moves, diagonalization, motivic DT invariants, and the
associated quadratic supercommutative algebras, all over exact rationals
with explicit truncation windows."""

from .series import (MultiSeries, NotInvertible, SeriesError, TruncatedLaurent,
                     TruncationUnderflow, VertexMonomial, iter_multidegrees,
                     pleth_exp, pleth_log, pochhammer_inv)
from .quiver import (Quiver, QuiverFormatError, disjoint_union, euler_form,
                     link, one_vertex, unlink)
from .motivic import (Conventions, DEFAULT_CONVENTIONS, DiagonalFactor,
                      DiagonalizationResult, default_window, diagonalize,
                      link_substitution, motivic_series, unlink_substitution,
                      valuation_window, verify_diagonalization,
                      verify_link_identity, verify_unlink_identity)
from .dt import DTResult, dt_check, dt_extract, dt_window
from .algebra import (algebra_component, component_basis, component_dimension,
                      functional_dimension, gr_linking_check, homology_check,
                      poincare_check, relation_rows, unlink_differential)
from .report import VerificationReport

__all__ = [
    "MultiSeries", "NotInvertible", "SeriesError", "TruncatedLaurent",
    "TruncationUnderflow", "VertexMonomial", "iter_multidegrees",
    "pleth_exp", "pleth_log", "pochhammer_inv",
    "Quiver", "QuiverFormatError", "disjoint_union", "euler_form", "link",
    "one_vertex", "unlink",
    "Conventions", "DEFAULT_CONVENTIONS", "DiagonalFactor",
    "DiagonalizationResult", "default_window", "diagonalize",
    "link_substitution", "motivic_series", "unlink_substitution",
    "valuation_window", "verify_diagonalization", "verify_link_identity",
    "verify_unlink_identity",
    "DTResult", "dt_check", "dt_extract", "dt_window",
    "algebra_component", "component_basis", "component_dimension",
    "functional_dimension", "gr_linking_check", "homology_check",
    "poincare_check", "relation_rows", "unlink_differential",
    "VerificationReport",
]
