"""Exact-arithmetic toolkit for the signatures of high-dimensional knots
with a given square-free Alexander polynomial.

The core objects are an Alexander-type polynomial Delta, its companion
P(X) = (-1)^n X^2n Delta(1 - 1/X), the unit-circle root count rho, the
prime-linkage obstruction group of the factor set of P, Milnor signature
assignments, and the Seifert form / Seifert pair correspondence realizing
everything on concrete integer matrices.
"""

from .errors import (
    BudgetExceededError,
    CertificationError,
    KnotsigError,
    PolyParseError,
)
from .intfactor import integer_factor, is_probable_prime
from .milnor import (
    enumerate_sign_tuples,
    expected_count,
)
from .modp import (
    FactorizationModP,
    PolyModP,
    factor_mod_p,
    symmetric_common_factor,
)
from .obstruction import ObstructionGroup, PiEntry, obstruction_group, pi_set
from .pipeline import (
    AnalysisReport,
    AnalysisRequest,
    VERDICT_NOT_ADMISSIBLE,
    VERDICT_OBSTRUCTION_UNKNOWN,
    VERDICT_OUT_OF_SCOPE,
    VERDICT_REALIZABLE,
    analyze,
    analyze_tau,
    report_from_json,
    report_render,
)
from .polys import (
    ConditionReport,
    IntPoly,
    alexander_check,
    delta_to_p,
    gcd_z,
    is_squarefree_q,
    p_to_delta,
    parse_poly,
    poly_text,
    resultant,
    symmetric_check,
    trace_polynomial,
    v_polynomial,
)
from .realroots import (
    IsolatingInterval,
    isolate_roots,
    rho_delta,
    rho_p,
    sturm_count,
)
from .seifert import (
    MilnorAssignmentComputed,
    SeifertPair,
    Validation,
    alexander_of_form,
    block_diag,
    charpoly_of_pair,
    e8_gram,
    form_to_pair,
    half_form,
    milnor_signatures,
    pair_to_form,
    parse_matrix,
    signature_exact,
    unimodular_t,
    validate_form,
    validate_pair,
)
from .version import TOOL_VERSION
from .zfactor import (
    FactorizationZ,
    SymmetricFactorSet,
    factor_z,
    standing_assumptions,
)

__version__ = TOOL_VERSION
