"""Exact pairings of glued manifolds, with positivity certificates.

Formal linear combinations of bounded manifolds over a fixed boundary pair
sesquilinearly into formal combinations of closed manifolds.  This package
computes that pairing exactly (coefficients are Gaussian rationals) for four
gluing theories: oriented 1-manifolds, oriented surfaces, monomial models of
3-manifold and knot prime decompositions (which also cover dimension 0), and
finite symbolic tables of 4-dimensional gluings.  A complexity function per
theory drives positivity certificates; a bounded grid search probes for null
vectors, and the 4-dimensional tables exhibit one.
"""

from .algebra import (FormalSum, I, ONE, Scalar, UniverseMismatchError, ZERO,
                      sum_combine)
from .engine import (CertificateFailure, GluingTheory, GramTensor, LemmaReport,
                     NullSearchResult, PositivityCertificate, certify_positive,
                     gaussian_integer_grid, null_search, pair, verify_lemma)

__all__ = [
    "CertificateFailure",
    "FormalSum",
    "GluingTheory",
    "GramTensor",
    "I",
    "LemmaReport",
    "NullSearchResult",
    "ONE",
    "PositivityCertificate",
    "Scalar",
    "UniverseMismatchError",
    "ZERO",
    "certify_positive",
    "gaussian_integer_grid",
    "null_search",
    "pair",
    "sum_combine",
    "verify_lemma",
]

__version__ = "0.1.0"
