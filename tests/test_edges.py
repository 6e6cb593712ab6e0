"""Each layer's refusals of empty or out-of-range input and its shortcuts
for empty input, which no other test reaches, and the grade-1 Dynkin term."""

import pytest

from bchnest.eulerian import multilinear_nested, multilinear_words
from bchnest.identities import (
    full_reduce,
    identities_and_basis,
    lifted_identities,
    rewrite_in_basis,
    table_counts,
)
from bchnest.series import ad_power, bch_term_dynkin, log_product, symmetric_bch_term
from bchnest.terms import LieExpr, expand_nested

E = LieExpr({(0, 1): 1})

CASES = {
    "multilinear_words-empty": (lambda: multilinear_words(()), ValueError),
    "multilinear_nested-one": (lambda: multilinear_nested((0,)), ValueError),
    "bch_term_dynkin-0": (lambda: bch_term_dynkin(0), ValueError),
    # Grade 1 takes no branch of its own: the blocks (1,0) and (0,1) give X + Y.
    "bch_term_dynkin-1": (lambda: bch_term_dynkin(1), LieExpr({(0,): 1, (1,): 1})),
    "log_product-one-var": (lambda: log_product(3, 1), ValueError),
    "ad_power-negative": (lambda: ad_power(0, E, -1), ValueError),
    "symmetric_bch_term-0": (lambda: symmetric_bch_term(0), ValueError),
    "lifted_identities-1": (lambda: lifted_identities(1), ValueError),
    "table_counts-1": (lambda: table_counts(1, "none"), ValueError),
    "expand_nested-empty": (lambda: expand_nested(()), ValueError),
    "rewrite_in_basis-zero": (
        lambda: rewrite_in_basis(LieExpr.zero(), identities_and_basis(4)),
        LieExpr.zero(),
    ),
    "full_reduce-zero": (lambda: full_reduce(LieExpr.zero(), 4), LieExpr.zero()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refusal_or_shortcut(name):
    call, expected = CASES[name]
    if expected is ValueError:
        with pytest.raises(ValueError):
            call()
    else:
        assert call() == expected

