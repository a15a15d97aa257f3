"""Exact enumeration of restricted inversion polynomials.

Count permutations whose inversions within a sliding window (given by a
weakly increasing bounding sequence h with h(i) > i) form a prescribed
set, expand the resulting polynomial in n in several binomial bases, and
study the graded (length-tracking) q-analogue.
"""

from invpoly.enumeration import (
    B_k_set,
    enumerate_Ih,
    enumerate_admissible,
    fiber_data,
    graded_Ih_oracle,
    graded_admissible,
    poincare,
)
from invpoly.expansions import (
    ExpansionResult,
    a_expansion,
    a_from_b,
    b_expansion,
    degree_of,
    fiber_expansion,
    is_constant,
)
from invpoly.graded import (
    GradedExpansion,
    b_q_coefficients,
    graded_expansion_eval,
    verify_conjecture,
)
from invpoly.model import (
    HSequence,
    PairSet,
    Permutation,
    inv_h,
    is_admissible,
    possible_pairs,
)
from invpoly.polynomials import (
    BinomialPoly,
    CoeffSeq,
    MonomialPoly,
    QPoly,
    binom,
    has_no_internal_zeros,
    is_log_concave,
    q_binom,
    q_seq_strongly_log_concave,
)
from invpoly.posets import (
    Poset,
    b_from_heights,
    build_poset,
    d_S_of,
    height_sequence,
    height_support_bounds,
    linear_extensions,
)

__version__ = "0.1.0"

# The kernels are pure Python; benchmark reports record this name.
KERNEL_BACKEND = "pure"
