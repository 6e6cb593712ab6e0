"""Exact computation of the Baker-Campbell-Hausdorff series in right-nested
commutators: permutation-sum assembly, commutator-identity discovery by
fraction-free integer elimination, and term-count reduction.  Coefficients
are ``fractions.Fraction`` outside the elimination; there are no floats."""

from bchnest.eulerian import (
    descents,
    eulerian_coeff,
    eulerian_number,
    multilinear_nested,
    multilinear_words,
)
from bchnest.identities import (
    ExactMatrix,
    IdentityReport,
    REFERENCE_COUNTS,
    TABLE_MODES,
    apply_regime,
    apply_rules,
    compact_bch_term,
    enumerate_nested,
    full_reduce,
    gauss_jordan,
    identities_and_basis,
    lifted_identities,
    lifted_rules,
    relation_rules,
    rewrite_in_basis,
    series_term,
    table_counts,
)
from bchnest.search import compact_reduce
from bchnest.series import (
    ad_power,
    bch_term,
    bch_term_dynkin,
    log_product_words,
    substitute,
    symmetric_bch_term,
)
from bchnest.terms import (
    AssocPoly,
    Leaves,
    LieExpr,
    Word,
    canonicalize,
    expand_lie,
    expand_nested,
    right_bracketing,
)

__version__ = "0.1.0"

__all__ = [
    "AssocPoly",
    "ExactMatrix",
    "IdentityReport",
    "Leaves",
    "LieExpr",
    "REFERENCE_COUNTS",
    "Word",
    "ad_power",
    "apply_regime",
    "apply_rules",
    "bch_term",
    "bch_term_dynkin",
    "canonicalize",
    "compact_bch_term",
    "compact_reduce",
    "descents",
    "enumerate_nested",
    "eulerian_coeff",
    "eulerian_number",
    "expand_lie",
    "expand_nested",
    "full_reduce",
    "gauss_jordan",
    "identities_and_basis",
    "lifted_identities",
    "lifted_rules",
    "log_product_words",
    "multilinear_nested",
    "multilinear_words",
    "relation_rules",
    "rewrite_in_basis",
    "right_bracketing",
    "series_term",
    "substitute",
    "symmetric_bch_term",
    "table_counts",
    "TABLE_MODES",
]
