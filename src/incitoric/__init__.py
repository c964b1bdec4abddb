"""Exact-arithmetic toolkit for incidence toric ideals and their
combinatorial, polyhedral and topological companions.

Everything is computed over arbitrary-precision integers and rationals:
subset-incidence matrices and their rank laws, null designs and pods,
Markov/Graver/octahedral bases of the associated lattice ideals, the
rational polytopes spanned by the matrix columns (face certificates,
placing triangulations, normalized volumes), balanced pseudomanifold
certificates with their orientation binomials, and the derangement/coset
calculus behind determinant identities for three-point functions.
"""

from .combinat import Derangement, colex_rank, derangements
from .config import DEFAULT_CONFIG, RunConfig
from .exactmath import HnfResult, IntMatrix, hnf, kernel_basis, rank_mod_p, rank_q
from .incidence import IncidenceMatrix, build_matrix, check_rank_laws
from .lp import LinearConstraint, LpResult, RationalLpProblem, lp_feasible

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "Derangement",
    "HnfResult",
    "IncidenceMatrix",
    "IntMatrix",
    "LinearConstraint",
    "LpResult",
    "RationalLpProblem",
    "RunConfig",
    "build_matrix",
    "check_rank_laws",
    "colex_rank",
    "derangements",
    "hnf",
    "kernel_basis",
    "lp_feasible",
    "rank_mod_p",
    "rank_q",
]
