"""Graded Lie algebras of maximal class over GF(2).

Nilpotent quotients of 2-generated presentations, Bi-Zassenhaus loop
algebras built directly from their constituent pattern, and the binomial
parity suites that back the expansion identities.
"""

from .algebra import (
    Element,
    GradedAlgebra,
    GradedSubspaceFamily,
    JacobiReport,
    graded_center,
    jacobi_check,
    quotient,
    second_center,
)
from .analyze import AnalysisReport, CenterEntry, CheckResult, analyze
from .bl import (
    BlParams,
    ThetaSpec,
    bl_centralizer_sequence,
    bl_constituent_lengths,
    bl_params,
    centralizer_sequence,
    check_CL,
    constituent_lengths,
    construct_bl,
    mu_word,
    presentation_R,
    theta_specs,
    theta_word,
    v_word,
)
from .char2 import (
    ParityClaim,
    binom_mod2,
    binom_mod2_oracle,
    glaisher_check,
    identity_I_check,
    identity_I_expected,
    lucas_row,
    pascal_row,
    power_sum_parity,
    verify_appendix,
)
from .nq import Presentation, nq_compute
from .oracle import free_nq_oracle
from .words import CommutatorWord, WordSyntaxError, X, Y, parse_word, word_from_letters

__all__ = [
    "AnalysisReport",
    "BlParams",
    "CenterEntry",
    "CheckResult",
    "CommutatorWord",
    "Element",
    "GradedAlgebra",
    "GradedSubspaceFamily",
    "JacobiReport",
    "ParityClaim",
    "Presentation",
    "ThetaSpec",
    "WordSyntaxError",
    "X",
    "Y",
    "analyze",
    "binom_mod2",
    "binom_mod2_oracle",
    "bl_centralizer_sequence",
    "bl_constituent_lengths",
    "bl_params",
    "centralizer_sequence",
    "check_CL",
    "constituent_lengths",
    "construct_bl",
    "free_nq_oracle",
    "glaisher_check",
    "graded_center",
    "identity_I_check",
    "identity_I_expected",
    "jacobi_check",
    "lucas_row",
    "mu_word",
    "nq_compute",
    "parse_word",
    "pascal_row",
    "power_sum_parity",
    "presentation_R",
    "quotient",
    "second_center",
    "theta_specs",
    "theta_word",
    "v_word",
    "verify_appendix",
    "word_from_letters",
]
