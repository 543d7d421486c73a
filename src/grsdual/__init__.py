"""MDS self-dual codes from generalized Reed-Solomon codes.

Exact finite-field arithmetic, GRS codes and their duals, six
construction families producing certified self-dual codes, and
independent brute-force verification of self-duality and MDS-ness.
"""

from .construct import (
    Certificate,
    ConstructionRequest,
    ConstructionResult,
    build,
    construct_auto,
    construct_even_char,
    construct_extended,
    construct_roots_of_unity,
    construct_square_set,
    construct_subfield_points,
    construct_theorem_3_5,
    find_subfield_scaling,
    result_to_json,
    search_square_difference_set,
)
from .gf import FieldCtx, Felt, field_for_order, make_field
from .grs import (
    GrsCode,
    code_from_json,
    code_to_json,
    dual_coefficients,
    generator_matrix,
)
from .linalg import MatrixGF
from .verify import (
    CheckResult,
    VerificationReport,
    check_character_sum_bound,
    check_dual_identity,
    check_mds,
    check_self_dual,
    verify_code,
)

__version__ = "0.1.0"
