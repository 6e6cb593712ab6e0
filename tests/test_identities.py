"""Identity discovery, rewriting, and the reduction regimes."""

import cProfile
import hashlib
import pstats
import random
from fractions import Fraction

import pytest

from bchnest import identities, terms
from bchnest.identities import (
    ExactMatrix,
    apply_regime,
    apply_rules,
    compact_reduce,
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
from bchnest.series import bch_term
from bchnest.terms import LieExpr, expand_lie, expand_nested

F = Fraction


def test_enumeration_counts_and_order():
    assert enumerate_nested(2) == ((0, 1),)
    assert enumerate_nested(3) == ((0, 0, 1), (1, 0, 1))
    for m in range(2, 9):
        comms = enumerate_nested(m)
        assert len(comms) == 2 ** (m - 2)
        assert list(comms) == sorted(comms)
        assert all(c[-2:] == (0, 1) for c in comms)
    with pytest.raises(ValueError):
        enumerate_nested(1)


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ExactMatrix(
            rows=((F(1),), (F(1), F(2))), word_columns=((0,),), comm_labels=()
        )


def test_gauss_jordan_small():
    mat = ExactMatrix(
        rows=(
            (F(2), F(4), F(1), F(0)),
            (F(1), F(2), F(0), F(1)),
            (F(3), F(6), F(1), F(1)),
        ),
        word_columns=((0,), (1,)),
        comm_labels=((0, 1), (1, 0, 1)),
    )
    red = gauss_jordan(mat)
    assert red.rows == (
        (F(1), F(2), F(0), F(1)),
        (F(0), F(0), F(1), F(-2)),
        (F(0), F(0), F(0), F(0)),
    )
    # RREF is a projection: reducing again changes nothing.
    assert gauss_jordan(red).rows == red.rows


def _seeded_dense_matrices() -> list[ExactMatrix]:
    # Twenty random rational matrices, some of them rank-deficient, with
    # zero rows or with int entries only, and one matrix with no rows.
    rng = random.Random(4051)
    mats = []
    for i in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [
            [
                F(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.6 else 0
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        if i % 4 == 1 and nrows > 1:
            a = F(rng.randint(-3, 3), rng.randint(1, 3))
            b = F(rng.randint(-3, 3), rng.randint(1, 3))
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        if i % 5 == 2:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        if i % 3 == 0:
            rows = [[v if isinstance(v, int) else v.numerator for v in r] for r in rows]
        mats.append(
            ExactMatrix(rows=tuple(map(tuple, rows)), word_columns=(), comm_labels=())
        )
    mats.append(ExactMatrix(rows=(), word_columns=(), comm_labels=()))
    return mats


# sha256 of the reduced forms of _seeded_dense_matrices(), entries compared
# as Fractions (repr, not pickle, which memoises shared Fraction objects);
# frozen from the dense Fraction Gauss-Jordan loop.
GAUSS_JORDAN_PIN = "dc38cba93a4c1066a4ef836be0da6efd38942a1faab840bdaa04088c0f8fc2b6"


def test_gauss_jordan_pin():
    doc = [
        [tuple(map(F, row)) for row in gauss_jordan(mat).rows]
        for mat in _seeded_dense_matrices()
    ]
    assert hashlib.sha256(repr(doc).encode()).hexdigest() == GAUSS_JORDAN_PIN


# Grade-4 worked example, frozen entrywise.  Columns: the 12 length-4 words
# that occur in some expansion (lex), then one augmented column per
# commutator XXXY, XYXY, YXXY, YYXY (lex).
GRADE4_WORDS = (
    (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0),
    (0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 1, 0),
    (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0),
)
GRADE4_MATRIX = (
    (1, -3, 0, 3, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, -1, 0, 2, 0, 0, -2, 0, 1, 0, 0, 0, 1, 0, 0),
    (0, 0, -1, 0, 2, 0, 0, -2, 0, 1, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, -3, 0, 3, -1, 0, 0, 0, 1),
)
GRADE4_RREF = (
    (1, -3, 0, 3, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 1, 0, -2, 0, 0, 2, 0, -1, 0, 0, 0, 0, -1, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, -3, 0, 3, -1, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0),
)


def test_grade_four_fixture():
    rep = identities_and_basis(4)
    assert rep.commutators == (
        (0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1)
    )
    assert rep.matrix.word_columns == GRADE4_WORDS
    assert rep.matrix.rows == tuple(
        tuple(F(v) for v in row) for row in GRADE4_MATRIX
    )
    assert rep.rref.rows == tuple(
        tuple(F(v) for v in row) for row in GRADE4_RREF
    )
    assert rep.basis == ((0, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 1))
    # The single grade-4 identity: [Y,[X,[X,Y]]] - [X,[Y,[X,Y]]] = 0.
    assert len(rep.identities) == 1
    assert rep.identities[0].terms == {(1, 0, 0, 1): F(1), (0, 1, 0, 1): F(-1)}


def test_basis_dimensions():
    assert tuple(
        len(identities_and_basis(m).basis) for m in range(2, 9)
    ) == (1, 2, 3, 6, 9, 18, 30)


def test_identity_counts_split_enumeration():
    for m in range(2, 11):
        rep = identities_and_basis(m)
        assert len(rep.basis) + len(rep.identities) == 2 ** (m - 2)
        assert set(rep.basis).isdisjoint(
            max(i.terms) for i in rep.identities
        )


def test_identities_expand_to_zero():
    # The library does not re-check this at run time: an identity's word
    # part cancels exactly in the elimination, so this is the guard.
    for m in range(2, 11):
        for ident in identities_and_basis(m).identities:
            assert not expand_lie(ident)
            # Normalization: +1 on the lex-greatest commutator.
            assert ident.terms[max(ident.terms)] == F(1)


def test_identities_expand_each_commutator_once(monkeypatch):
    # Cold elimination expands every commutator once and re-expands nothing.
    calls = []
    real = terms.expand_nested

    def counted(leaves):
        calls.append(leaves)
        return real(leaves)

    monkeypatch.setattr(terms, "expand_nested", counted)
    monkeypatch.setattr(identities, "expand_nested", counted)
    identities_and_basis.cache_clear()
    identities_and_basis(10)
    assert len(calls) == len(enumerate_nested(10)) == 256


# sha256 of every identity's terms for grades 2..10 in their stored key
# order, which drives the compaction search's random moves; frozen from the
# Fraction in-order elimination.
IDENTITY_ORDER_PIN = "629ed7b8da933b342b5a6cd928ebb451ececba379de12c6138893075d7bab2e1"


def test_identity_term_order_pin():
    doc = [
        [list(ident.terms.items()) for ident in identities_and_basis(m).identities]
        for m in range(2, 11)
    ]
    assert hashlib.sha256(repr(doc).encode()).hexdigest() == IDENTITY_ORDER_PIN


def test_novel_identity_counts():
    # New identities per grade, beyond ad-prefixed lifts from lower grades:
    # one at grade 4, none at grade 5, three at grade 6, none at grade 7.
    counts = []
    for m in (4, 5, 6, 7):
        rep = identities_and_basis(m)
        lifted_rank = len(relation_rules(lifted_identities(m)))
        counts.append(len(rep.identities) - lifted_rank)
    assert counts == [1, 0, 3, 0]


def test_lifted_identities_vanish_and_stay_in_grade():
    for m in (4, 5, 6):
        for lift in lifted_identities(m):
            assert lift.grade() == m
            assert not expand_lie(lift)


def test_relation_rules_pivot_free():
    for m in (4, 5, 6):
        rules = relation_rules(identities_and_basis(m).identities)
        pivots = set(rules)
        for rhs in rules.values():
            assert pivots.isdisjoint(rhs)


def test_relation_rules_order_independent():
    idents = list(identities_and_basis(6).identities)
    base = relation_rules(idents)
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(idents)
        assert relation_rules(idents) == base


def test_relation_rules_priority_picks_pivots():
    idents = identities_and_basis(4).identities
    # Default: eliminate the lex-greatest commutator YXXY.
    assert set(relation_rules(idents)) == {(1, 0, 0, 1)}
    # Reversed priority: eliminate XYXY instead.
    flipped = relation_rules(idents, priority=lambda lv: tuple(-x for x in lv))
    assert set(flipped) == {(0, 1, 0, 1)}
    assert flipped[(0, 1, 0, 1)] == {(1, 0, 0, 1): F(1)}


def test_lifted_rules_are_identities():
    for m, regime in ((4, 4), (5, 4), (6, 6), (7, 6)):
        for lhs, rhs in lifted_rules(m, regime).items():
            diff = expand_nested(lhs)
            for l2, c in rhs.items():
                diff = diff - expand_nested(l2) * c
            assert not diff


def test_lifted_rules_regime_scope():
    # Below its grade a regime has nothing to say.
    assert lifted_rules(3, 4) == {}
    assert lifted_rules(3, 6) == {}
    # The grade-4 rule itself.
    assert lifted_rules(4, 4) == {(1, 0, 0, 1): {(0, 1, 0, 1): F(1)}}
    with pytest.raises(ValueError):
        lifted_rules(5, 5)


def test_rewrites_preserve_element_and_land_in_basis():
    for m in (4, 5, 6, 7):
        rep = identities_and_basis(m)
        e = bch_term(m, 2)
        rewritten = rewrite_in_basis(e, rep)
        assert expand_lie(rewritten) == expand_lie(e)
        assert set(rewritten.terms) <= set(rep.basis)
        for regime in (4, 6):
            reduced = apply_rules(e, lifted_rules(m, regime))
            assert expand_lie(reduced) == expand_lie(e)


def test_rewrite_grade_mismatch():
    with pytest.raises(ValueError):
        rewrite_in_basis(bch_term(3, 2), identities_and_basis(4))


def test_full_reduce_never_enlarges():
    for m in (4, 5, 6, 7):
        e = bch_term(m, 2)
        out = full_reduce(e, m)
        assert len(out) <= len(e)
        assert expand_lie(out) == expand_lie(e)


def test_compact_reduce_exact_and_deterministic():
    for m in (4, 5, 6):
        e = bch_term(m, 2)
        first = compact_reduce(e, m)
        assert expand_lie(first) == expand_lie(e)
        assert len(first) <= len(e)
        assert compact_reduce(e, m).terms == first.terms


def test_compact_reduce_validates_grade():
    with pytest.raises(ValueError):
        compact_reduce(bch_term(4, 2), 5)
    # Below grade 2 as well, where there is nothing to search.
    with pytest.raises(ValueError):
        compact_reduce(bch_term(5, 2), 1)
    z = LieExpr.zero()
    assert compact_reduce(z, 4) is z


def test_compact_reduce_rejects_negative_budget():
    with pytest.raises(ValueError):
        compact_reduce(bch_term(5, 2), 5, -1)
    # Budget 0 still picks the shortest seed.
    e = bch_term(5, 2)
    zero_budget = compact_reduce(e, 5, 0)
    assert expand_lie(zero_budget) == expand_lie(e)
    assert len(zero_budget) <= len(e)


def test_table_rows_low_grades():
    assert table_counts(7, "none") == (1, 2, 1, 8, 7, 32)
    assert table_counts(7, "grade4") == (1, 2, 1, 6, 5, 24)
    assert table_counts(7, "grade6") == (1, 2, 1, 6, 4, 18)
    # The basis representation at grade 6 has 5 terms; the tail-rule route
    # happens to find 4, so the rows differ there.
    assert table_counts(7, "full") == (1, 2, 1, 6, 5, 18)
    assert table_counts(8, "compact") == (1, 2, 1, 6, 4, 18, 13)


def test_table_symmetric_even_grades_zero():
    row = table_counts(7, "none", variant="symmetric")
    assert row == (0, 2, 0, 8, 0, 32)
    assert table_counts(5, "grade4", variant="symmetric") == (0, 2, 0, 6)


def test_table_rejects_unknown_mode():
    with pytest.raises(ValueError):
        table_counts(5, "bogus")


def test_series_term_dispatch():
    for m in (4, 6):
        e = bch_term(m, 2)
        assert series_term(m) == e
        assert series_term(m, "grade4") == apply_rules(e, lifted_rules(m, 4))
        assert series_term(m, "full") == full_reduce(e, m)
        assert apply_regime(e, m, "none") is e
    # Grade 1 has no identities to apply.
    assert series_term(1, "full") == bch_term(1, 2)
    assert series_term(3, nvars=3) == bch_term(3, 3)
    with pytest.raises(ValueError):
        series_term(3, "grade4", nvars=3)
    with pytest.raises(ValueError):
        series_term(3, variant="bogus")
    with pytest.raises(ValueError):
        apply_regime(bch_term(4, 2), 4, "bogus")
    # Every regime, none included, refuses an expression of another grade.
    for regime in ("none", "grade4", "grade6", "full", "compact"):
        with pytest.raises(ValueError):
            apply_regime(bch_term(7, 2), 6, regime)
    z = LieExpr.zero()
    assert apply_regime(z, 6, "grade4") is z


def _seeded_library_exprs() -> list[tuple[int, LieExpr]]:
    # Twelve grade 6-8 expressions: random supports of 3/8 of the grade's
    # commutators, numerators -9..9 without 0 over denominators 1..12, so
    # each search block starts from a common denominator other than 1.
    rng = random.Random(2006)
    exprs = []
    for i in range(12):
        m = 6 + i % 3
        comms = enumerate_nested(m)
        support = rng.sample(comms, 3 * len(comms) // 8)
        exprs.append((m, LieExpr({
            c: F(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 12))
            for c in support
        })))
    return exprs


# sha256 of the budget-1000 compactions of _seeded_library_exprs(), one
# sorted 'leaves:coeff' line per expression, frozen before the search ran on
# integers.
LIBRARY_PIN = "e754b0fa035adcaa56aa483f819f4f178eaf7a1276306b34d286bba02527ea4c"


def test_compact_reduce_library_pin():
    lines = []
    for m, expr in _seeded_library_exprs():
        out = compact_reduce(expr, m, 1000)
        assert expand_lie(out) == expand_lie(expr)
        lines.append(" ".join(
            "".join(map(str, leaves)) + ":" + str(c)
            for leaves, c in sorted(out.terms.items())
        ))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LIBRARY_PIN


def test_compact_search_constructs_few_fractions():
    # The search runs on integers, sampled bases included; Fractions appear
    # only where the seeds are built and where blocks convert back.  The
    # count repeats exactly from run to run; the Fraction search made
    # 1 090 844 here, and sampling bases through Fraction rules 77 823.
    identities_and_basis(8)
    e = bch_term(8, 2)
    warm = compact_reduce(e, 8)  # fills the rule caches the count leaves out
    prof = cProfile.Profile()
    again = prof.runcall(compact_reduce, e, 8)
    assert again == warm
    made = sum(
        calls
        for (path, _, name), (_, calls, *_rest) in pstats.Stats(prof).stats.items()
        if name == "__new__" and path.endswith("fractions.py")
    )
    assert made <= 4_000
