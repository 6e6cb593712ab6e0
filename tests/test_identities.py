"""Identity discovery, rewriting, and the reduction regimes."""

import copy
import cProfile
import gc
import hashlib
import math
import pstats
import random
import sys
import threading
from fractions import Fraction
from itertools import chain, product

import pytest

from bchnest import identities
from bchnest import search as compaction
from bchnest.identities import (
    _COMPACT_BUDGET,
    ExactMatrix,
    apply_regime,
    apply_rules,
    compact_bch_term,
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
from bchnest.series import bch_term, symmetric_bch_term
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
    # Cold elimination expands every commutator once, through the integer
    # kernel, and re-expands nothing.
    calls = []
    real = identities._expand_code

    def counted(leaves):
        calls.append(leaves)
        return real(leaves)

    monkeypatch.setattr(identities, "_expand_code", counted)
    identities_and_basis.cache_clear()
    identities_and_basis(10)
    assert len(calls) == len(enumerate_nested(10)) == 256


def test_lyndon_columns_change_no_basis_or_identity(monkeypatch):
    # Elimination on Lyndon-word columns gives the basis, the identity
    # values and their term order of elimination on every word column, and
    # there are as many Lyndon words as basis commutators.  The codes are
    # those of the words smaller than each of their proper suffixes.
    filtered = {m: identities_and_basis(m) for m in range(2, 11)}
    for m, report in filtered.items():
        codes = identities._lyndon_codes(m)
        assert len(codes) == len(report.basis)
        assert codes == {
            int("1" + "".join(map(str, w)), 2)
            for w in product((0, 1), repeat=m)
            if all(w < w[i:] for i in range(1, m))
        }
    monkeypatch.setattr(identities, "_lyndon_codes", lambda m: range(2 << m))
    for m, report in filtered.items():
        every = identities_and_basis.__wrapped__(m)
        assert every.basis == report.basis
        assert [list(e.terms.items()) for e in every.identities] == [
            list(e.terms.items()) for e in report.identities
        ]


def _decoded(code: int) -> tuple[int, ...]:
    # The word of an integer word code: its bits below the marker bit.
    return tuple(int(b) for b in bin(code)[3:])


def test_integer_kernel_matches_expand_nested():
    # Decoded, the integer kernel's expansion is expand_nested's, values
    # and key order both, for every canonical commutator through grade 10,
    # and its codes sort as their words do.
    for m in range(2, 11):
        for c in enumerate_nested(m):
            codes = identities._expand_code(c)
            got = [(_decoded(k), F(v)) for k, v in codes.items()]
            assert got == list(expand_nested(c).terms.items()), c
            assert [_decoded(k) for k in sorted(codes)] == sorted(w for w, _ in got)


def test_cleared_keeps_a_positive_denominator_in_lowest_terms():
    # Clearing columns of a block with relations that are negative there
    # leaves a positive denominator, the block in lowest terms, and the
    # values of Fraction arithmetic, t - (t_c / r_c) * r per pivot in order.
    # The compaction proof ranks the cases it clears on this.
    rng = random.Random(4027)

    def nonzero(top):
        return rng.choice([-1, 1]) * rng.randint(1, top)

    for _ in range(500):
        start = identities._to_int({
            k: F(nonzero(30), rng.randint(1, 12))
            for k in rng.sample(range(8), rng.randint(1, 6))
        })
        pivots = {}
        for col in rng.sample(sorted(start[0]), min(2, len(start[0]))):
            row = {k: nonzero(9) for k in rng.sample(range(8), 3)}
            row[col] = -rng.randint(1, 9)
            pivots[col] = row
        nums, den = identities._cleared(start, pivots)
        assert den > 0 and math.gcd(den, *nums.values()) == 1, (start, pivots)
        want = {k: F(v, start[1]) for k, v in start[0].items()}
        for col, row in pivots.items():
            t = want.get(col, 0) / row[col]
            for k, v in row.items():
                want[k] = want.get(k, 0) - t * v
        want = {k: v for k, v in want.items() if v}
        assert {k: F(v, den) for k, v in nums.items()} == want, (start, pivots)


# sha256 of every identity's terms for grades 2..10 in their stored key
# order; frozen from the Fraction in-order elimination.
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
    for m in range(2, 11):
        rep = identities_and_basis(m)
        lifted_rank = len(relation_rules(lifted_identities(m)))
        counts.append(len(rep.identities) - lifted_rank)
    assert counts == [0, 0, 1, 0, 3, 0, 6, 4, 13]


def _all_lower_grade_lifts(m):
    # Every ad-prefix lift of every identity below grade m, by every prefix.
    return [
        LieExpr({prefix + leaves: c for leaves, c in ident.terms.items()})
        for g in range(2, m)
        for ident in identities_and_basis(g).identities
        for prefix in product((0, 1), repeat=m - g)
    ]


def test_lifted_identities_are_independent():
    assert lifted_identities(2) == ()
    assert len(lifted_identities(10)) == 144
    for m in range(2, 11):
        lifts = lifted_identities(m)
        assert len(relation_rules(lifts)) == len(lifts)


def test_lifted_identities_span_every_lower_grade_lift():
    for m in range(2, 11):
        lifts = list(lifted_identities(m))
        oracle = _all_lower_grade_lifts(m)
        rank = len(relation_rules(lifts))
        assert len(relation_rules(oracle)) == rank
        assert len(relation_rules(lifts + oracle)) == rank


def test_lifted_identities_vanish_and_stay_in_grade():
    for m in (4, 5, 6):
        for lift in lifted_identities(m):
            assert lift.grade() == m
            assert not expand_lie(lift)


def test_relation_rules_pivot_free():
    # Grade 4: eliminate the lex-greatest commutator YXXY.
    assert set(relation_rules(identities_and_basis(4).identities)) == {(1, 0, 0, 1)}
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


def test_lifted_rules_are_identities():
    for m, regime in product(range(4, 11), (4, 6)):
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
    with pytest.raises(ValueError):
        lifted_rules(1, 4)


# sha256 of lifted_rules(m, g) for m = 2..12 and g in {4, 6}, rules and
# right-hand sides sorted, coefficients as str; frozen from the fixed
# grade-4/grade-6 rule tables cascaded by tail matching.
TAIL_RULES_PIN = "196b5cb3433fd7df59a93122b8861b5746f3cf9b71b12ed0c4e0b10e3c49f8d4"


def test_lifted_rules_pin():
    doc = [
        (m, g, [
            (lhs, [(l, str(c)) for l, c in sorted(rhs.items())])
            for lhs, rhs in sorted(lifted_rules(m, g).items())
        ])
        for m in range(2, 13)
        for g in (4, 6)
    ]
    assert hashlib.sha256(repr(doc).encode()).hexdigest() == TAIL_RULES_PIN


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


def test_series_term_checks_the_regime_before_assembling(monkeypatch):
    # An unknown regime is refused before any series term is built: it
    # once waited for symmetric_bch_term(9), 0.9 s, to raise.
    def unreachable(*args, **kwargs):
        raise AssertionError("assembled a term for an unknown regime")

    monkeypatch.setattr(identities, "symmetric_bch_term", unreachable)
    monkeypatch.setattr(identities, "bch_term", unreachable)
    for variant in ("plain", "symmetric"):
        with pytest.raises(ValueError, match="unknown regime"):
            series_term(9, "bogus", variant)


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


def _seeded_exprs(
    seed: int, count: int, grades: tuple[int, ...]
) -> list[tuple[int, LieExpr]]:
    # Expressions of the grades in turn: random supports of 3/8 of the
    # grade's commutators, numerators -9..9 without 0 over denominators
    # 1..12, so each search block starts from a common denominator other
    # than 1.
    rng = random.Random(seed)
    exprs = []
    for i in range(count):
        m = grades[i % len(grades)]
        comms = enumerate_nested(m)
        support = rng.sample(comms, 3 * len(comms) // 8)
        exprs.append((m, LieExpr({
            c: F(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 12))
            for c in support
        })))
    return exprs


def _compaction_line(expr: LieExpr) -> str:
    return " ".join(
        "".join(map(str, leaves)) + ":" + str(c)
        for leaves, c in sorted(expr.terms.items())
    )


# sha256 of the budget-1000 compactions of twelve seeded grade 6-8
# expressions, one sorted 'leaves:coeff' line per expression, frozen before
# the search ran on integers.
LIBRARY_PIN = "e754b0fa035adcaa56aa483f819f4f178eaf7a1276306b34d286bba02527ea4c"


def test_compact_reduce_library_pin():
    lines = []
    for m, expr in _seeded_exprs(2006, 12, (6, 7, 8)):
        out = compact_reduce(expr, m, 1000)
        assert expand_lie(out) == expand_lie(expr)
        lines.append(_compaction_line(out))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LIBRARY_PIN


def _search_to_the_meter(monkeypatch) -> None:
    # Turn off the stop at a best proven rank-first, which changes no result
    # (test_proven_stop_changes_no_result) but ends a search before its
    # meter runs out: tests that pin how many samples each search reaches,
    # or count what sampled bases learn and clear, see every block search
    # to its meter.
    monkeypatch.setattr(compaction, "_proven_first", lambda *args: False)


def _count_samples(monkeypatch) -> list[list[int]]:
    # Record, for each block search that samples bases, its X-count and the
    # number of samples it reaches, in search order.
    searches: list[list[int]] = []
    sample_bases, sample_cols = compaction._sample_bases, compaction._sample_cols

    def scoped(*args):
        searches.append([args[2].comms[0].count(0), 0])
        return sample_bases(*args)

    def counted(*args):
        searches[-1][1] += 1
        return sample_cols(*args)

    monkeypatch.setattr(compaction, "_sample_bases", scoped)
    monkeypatch.setattr(compaction, "_sample_cols", counted)
    return searches


def _budget_pin_lines(monkeypatch, exprs, budgets) -> list[str]:
    # One line per budget and expression: the compaction, then the samples
    # reached by every block search, by X-count.  Each block's search
    # samples for as long as its meter allows, so the counts record where
    # every search stopped, also where the result does not show it.
    searches = _count_samples(monkeypatch)
    lines = []
    for budget in budgets:
        for m, expr in exprs:
            searches.clear()
            out = compact_reduce(expr, m, budget)
            assert expand_lie(out) == expand_lie(expr)
            counts = " ".join(f"{key}:{n}" for key, n in searches)
            lines.append(f"{budget} {_compaction_line(out)} | {counts}")
    return lines


# sha256 of the compactions of eight seeded grade 6-7 expressions and of
# bch_term(6) and bch_term(7) at budgets that cut the search off within its
# first few sampled bases and descent steps, each line followed by the
# samples reached by every block search; run without the rank-first stop.
# Frozen from the search that re-ran every descent step, frozen again when
# the random walk after sampling was deleted (every compaction stayed the
# same), and frozen as sample counts when each block's generator moved into
# its sample list: each count, as shuffles of a fresh generator, gave the
# next draw the pin recorded before.
SMALL_BUDGET_PIN = "41055aa679af7f194ad6132e6f57d8cf4ae7cba4bc97b1c74441c8bc9c7f2bed"


def test_compact_reduce_small_budget_pin(monkeypatch):
    _search_to_the_meter(monkeypatch)
    exprs = _seeded_exprs(6007, 8, (6, 7)) + [(m, bch_term(m, 2)) for m in (6, 7)]
    lines = _budget_pin_lines(monkeypatch, exprs, (0, 1, 2, 5, 17, 60))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SMALL_BUDGET_PIN


# sha256 of the compactions of nine seeded grade 4-6 expressions and of
# bch_term(4..6) at budgets where sampled bases repeat a pivot set many
# times and the budget cuts a descent short, each line followed by the
# samples reached by every block search; run without the rank-first stop.
# Frozen from the search that cleared and descended again for every sample,
# frozen again when the random walk after sampling was deleted (every
# compaction stayed the same), and frozen as sample counts when each block's
# generator moved into its sample list: each count, as shuffles of a fresh
# generator, gave the next draw the pin recorded before.
REPEATED_BASES_PIN = "cf14f2a545a62454990f141dae3c6e55a2435809f56d5d7168b1e91b19602891"


def test_compact_reduce_repeated_bases_pin(monkeypatch):
    _search_to_the_meter(monkeypatch)
    exprs = _seeded_exprs(4005, 9, (4, 5, 6))
    exprs += [(m, bch_term(m, 2)) for m in (4, 5, 6)]
    lines = _budget_pin_lines(monkeypatch, exprs, (100, 250, 400))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REPEATED_BASES_PIN


# sha256 of the budget-1000 compactions of thirty seeded grade 6-8
# expressions, shaped like the library benchmark's, each line followed by
# the samples reached by every block search; run with the rank-first stop,
# so it pins where each search stopped, proven or metered, as well as its
# result.  Frozen before descent steps sized moves by ratio weights.
LIBRARY_SEARCH_PIN = "460888c9536cb09f2d010f56ead5b33e06bcebc7f9426ade9598569e62f7d330"


def test_compact_reduce_library_search_pin(monkeypatch):
    exprs = _seeded_exprs(8021, 30, (6, 7, 8))
    lines = _budget_pin_lines(monkeypatch, exprs, (1000,))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LIBRARY_SEARCH_PIN


def test_compact_search_draws_only_shuffles(monkeypatch):
    # Each block's generator picks sampled bases and nothing else: the
    # search shuffles, and draws no index or float as a random walk would.
    # Nothing is learned before, so the searches shuffle whatever ran first.
    compaction._sampled_pivots.cache_clear()
    exprs = [(8, bch_term(8, 2))] + _seeded_exprs(2012, 4, (6, 7, 8))
    calls: dict[str, int] = {}

    class Recorded(random.Random):
        # A subclass that overrides random() alone draws its shuffles through
        # random(), so getrandbits() is overridden too, and shuffles draw as
        # they do unrecorded.
        def getrandbits(self, k):
            return super().getrandbits(k)

        def shuffle(self, x):
            calls["shuffle"] = calls.get("shuffle", 0) + 1
            return super().shuffle(x)

        def randrange(self, *args, **kwargs):
            calls["randrange"] = calls.get("randrange", 0) + 1
            return super().randrange(*args, **kwargs)

        def random(self):
            calls["random"] = calls.get("random", 0) + 1
            return super().random()

    monkeypatch.setattr(compaction.random, "Random", Recorded)
    for m, expr in exprs:
        out = compact_reduce(expr, m)
        assert expand_lie(out) == expand_lie(expr)
    assert calls.get("shuffle", 0) > 0
    assert "randrange" not in calls and "random" not in calls


def _record_generators(monkeypatch):
    # Make every generator one that records its seed and counts its
    # shuffles, and forget the sample lists, and with them the generators,
    # that searches made before.
    class Recorded(random.Random):
        seeds: list[int] = []
        shuffles = [0]

        def __init__(self, seed: int) -> None:
            super().__init__(seed)
            Recorded.seeds.append(seed)

        def shuffle(self, x):
            Recorded.shuffles[0] += 1
            return super().shuffle(x)

    monkeypatch.setattr(compaction.random, "Random", Recorded)
    compaction._sampled_pivots.cache_clear()
    return Recorded


def test_warm_search_skips_the_shuffles_of_known_samples(monkeypatch):
    # A search reads the pivot set of every sample the process knows from
    # its block's list: a warm repeat of a cold search gives the same
    # result, reaches as many samples in every block, shuffles nothing and
    # makes no generator.  Before the skip, the warm search shuffled as
    # often as the cold one, and before each block's generator moved into
    # its sample list, every search made one.
    _search_to_the_meter(monkeypatch)
    recorded = _record_generators(monkeypatch)
    searches = _count_samples(monkeypatch)
    e = bch_term(7, 2)
    runs = []
    for _ in range(2):
        searches.clear()
        recorded.seeds.clear()
        recorded.shuffles[0] = 0
        out = compact_reduce(e, 7)
        runs.append(
            (list(out.terms.items()), [tuple(s) for s in searches],
             recorded.shuffles[0], len(recorded.seeds))
        )
    (cold, cold_counts, cold_shuffles, cold_made), warm = runs
    assert warm[:2] == (cold, cold_counts)
    assert cold_shuffles > 0 and cold_made > 0
    assert warm[2:] == (0, 0)


def test_one_generator_per_block_per_process(monkeypatch):
    # Each sampled block's generator belongs to its sample list, made once
    # per process, and seeded by the grade and the X-count: cold searches
    # of grades 6-8, some blocks searched more than once, make exactly one
    # per block that samples, and a warm repeat makes none and shuffles
    # none.  Before, every block search seeded a generator of its own.
    exprs = [(m, bch_term(m, 2)) for m in (6, 7, 8)] + _seeded_exprs(6019, 3, (6, 7, 8))
    recorded = _record_generators(monkeypatch)
    sampled = []
    sample_bases = compaction._sample_bases

    def scoped(*args):
        comm = args[2].comms[0]
        sampled.append(len(comm) * 1009 + comm.count(0))
        return sample_bases(*args)

    monkeypatch.setattr(compaction, "_sample_bases", scoped)
    for m, expr in exprs:
        compact_reduce(expr, m)
    assert len(sampled) > len(set(sampled)) > 0
    assert sorted(recorded.seeds) == sorted(set(sampled))
    assert recorded.shuffles[0] > 0
    recorded.seeds.clear()
    recorded.shuffles[0] = 0
    for m, expr in exprs:
        compact_reduce(expr, m)
    assert recorded.seeds == [] and recorded.shuffles == [0]


def test_proven_stop_changes_no_result(monkeypatch):
    # A block search stops once its best is proven rank-first; without the
    # stop it runs to its meter and gives the same terms in the same order,
    # at budgets that cut the search off early and at the default.
    exprs = _seeded_exprs(4013, 10, (4, 5, 6, 7, 8))
    exprs += [(m, bch_term(m, 2)) for m in range(4, 9)]
    exprs += [(m, symmetric_bch_term(m, phi=compact_bch_term)) for m in range(4, 9)]
    budgets = (0, 5, 60, 1000, _COMPACT_BUDGET)
    stopped = [
        list(compact_reduce(expr, m, budget).terms.items())
        for budget in budgets for m, expr in exprs
    ]
    _search_to_the_meter(monkeypatch)
    metered = [
        list(compact_reduce(expr, m, budget).terms.items())
        for budget in budgets for m, expr in exprs
    ]
    assert stopped == metered


# sha256 of compact_reduce and then full_reduce of the three-generator
# bch_term(m, 3), m = 4..6, one sorted 'leaves:coeff' line each.  Terms
# holding the third generator are no two-letter commutator, so no identity
# touches them and both reductions carry them through unchanged; frozen
# before the search ran on interned commutator indices.
THREE_GENERATOR_PIN = "15fcc48e8453d54576929db2e7143c373de4f07179520ca0bae8da2a8caa0768"


def test_reductions_carry_three_generator_terms():
    lines, counts = [], []
    for m in (4, 5, 6):
        e = bch_term(m, 3)
        for out in (compact_reduce(e, m), full_reduce(e, m)):
            assert expand_lie(out) == expand_lie(e)
            counts.append(len(out))
            lines.append(_compaction_line(out))
    assert counts == [11, 11, 60, 60, 108, 109]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == THREE_GENERATOR_PIN


def _identity_sums(m: int, rng: random.Random):
    # Per block of grade m with at least four identities: its key and a
    # sum of four of them with random positive coefficients, which is zero.
    by_key = {}
    for ident in identities_and_basis(m).identities:
        by_key.setdefault(max(ident.terms).count(0), []).append(ident)
    for key in sorted(by_key):
        if len(by_key[key]) >= 4:
            z = LieExpr()
            for ident in rng.sample(by_key[key], 4):
                z = z + ident * F(rng.randint(1, 5), rng.randint(1, 3))
            yield key, z


def test_compact_reduce_keeps_a_seed_that_cancels():
    # A sum of one block's identities is zero, and so is its basis rewrite;
    # that empty seed must win its block even when the search has no budget.
    rng = random.Random(1)
    for m in (7, 8):
        for key, z in _identity_sums(m, rng):
            assert not rewrite_in_basis(z, identities_and_basis(m))
            assert not compact_reduce(z, m, 0), (m, key)


def test_compact_search_skips_an_empty_seed(monkeypatch):
    # Nothing ranks before an empty block, so a block whose best seed is
    # empty is proven rank-first and not searched.  Before it was skipped,
    # one such grade-8 sum took 6 001 _echelon calls at the default budget,
    # and the grade-6 symmetric term, 3 terms that cancel, a 0.07 s search.
    sym = symmetric_bch_term(6, phi=compact_bch_term)
    sums = [z for _, z in _identity_sums(8, random.Random(1))]
    assert len(sym) == 3 and sums
    entered = []
    real = compaction._sample_bases

    def recorded(*args):
        entered.append(args)
        return real(*args)

    monkeypatch.setattr(compaction, "_sample_bases", recorded)
    for m, z in [(6, sym)] + [(8, z) for z in sums]:
        assert not compact_reduce(z, m)
    assert not entered


def test_compact_search_constructs_few_fractions():
    # The search runs on integers, seeds and sampled bases included;
    # Fractions appear only where the result's blocks convert back.  The
    # count repeats exactly from run to run; the Fraction search made
    # 1 090 844 here, sampling bases through Fraction rules 77 823, and
    # building the seeds through Fraction rules 414.
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
    assert made <= 150


def _warm_compaction(monkeypatch, m, **wraps):
    # A warm compact_reduce(bch_term(m, 2), m) with each search.<name>
    # replaced by wraps[name](the real function).
    e = bch_term(m, 2)
    warm = compact_reduce(e, m)
    for name, wrap in wraps.items():
        monkeypatch.setattr(compaction, name, wrap(getattr(compaction, name)))
    assert compact_reduce(e, m) == warm


def test_compact_search_steps_from_each_block_once(monkeypatch):
    # Each block's search keeps its descent steps, so no block is stepped
    # from twice; before the steps were kept, 2 437 of the 2 942 descents
    # here started from a block already descended from.
    keys = []

    def wrap(real):
        def recorded(node, rels, table):
            keys.append(node.key)
            return real(node, rels, table)
        return recorded

    _warm_compaction(monkeypatch, 8, _step=wrap)
    assert keys
    assert len(set(keys)) == len(keys)


def _counted(calls):
    # A wrap for _warm_compaction that counts calls into calls[0].
    def wrap(real):
        def counted(*args):
            calls[0] += 1
            return real(*args)
        return counted
    return wrap


def test_compact_search_probes_few_moves(monkeypatch):
    # Moves built, by descent steps and, before it was deleted, by a random
    # walk after sampling: 4 313 when a step built every move that could tie
    # its best so far, 3 168 when it built every distinct move of the least
    # size, 1 553 once a step that cannot shorten its block built only moves
    # that rank before it on the least key they change, 1 063 with the
    # rank-first stop, 774 by descent steps alone, and 18 once the proof
    # walked parallel classes and stopped the X-count-4 block at meter step
    # 7; the count repeats exactly from run to run.
    calls = [0]
    _warm_compaction(monkeypatch, 8, _move=_counted(calls))
    assert 0 < calls[0] <= 1_700


def _weights_counted(calls):
    # A wrap for _warm_compaction's _search_blocks whose relations count
    # into calls[0] each pass over their ratio weights: one per relation a
    # descent step sizes.
    class Counted(tuple):
        def __iter__(self):
            calls[0] += 1
            return super().__iter__()

    def wrap(real):
        def counted(m):
            return {
                key: block._replace(rels=tuple(
                    (rel, support, low, Counted(weights))
                    for rel, support, low, weights in block.rels
                ))
                for key, block in real(m).items()
            }
        return counted
    return wrap


def test_compact_search_sizes_few_relations(monkeypatch):
    # Relations sized, by descent steps and, before it was deleted, by a
    # random walk after sampling: 9 143 when a step sized every relation of
    # its block, 4 212 once it skipped a relation whose shared keys are too
    # few to reach the least size change, 3 252 with the rank-first stop,
    # 2 497 by descent steps alone, and 62 once the proof walked parallel
    # classes, counted as calls of the gcd-ratio sizing before steps sized
    # moves on ratio weights, and as passes over the weights since.
    calls = [0]
    _warm_compaction(monkeypatch, 8, _search_blocks=_weights_counted(calls))
    assert 0 < calls[0] <= 4_500


def test_compact_search_takes_few_steps(monkeypatch):
    # Descent steps computed: 130 when every block searched to its meter,
    # 8 now that a block whose best is proven rank-first stops, its seed
    # in all but one of grade 7's four blocks; the count repeats exactly
    # from run to run.
    calls = [0]
    _warm_compaction(monkeypatch, 7, _step=_counted(calls))
    assert 0 < calls[0] <= 8


def _solve(columns, rhs):
    # The one x with sum(x[j] * columns[j]) == rhs over the rationals, or
    # None when there is none or more than one.
    keys = sorted(set(rhs).union(*columns))
    rows = [[F(col.get(k, 0)) for col in columns] + [F(rhs.get(k, 0))] for k in keys]
    n = len(columns)
    for j in range(n):
        pick = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if pick is None:
            return None
        rows[j], rows[pick] = rows[pick], rows[j]
        rows[j] = [v / rows[j][j] for v in rows[j]]
        for i, row in enumerate(rows):
            if i != j and row[j]:
                rows[i] = [a - row[j] * b for a, b in zip(row, rows[j])]
    if any(row[n] for row in rows[n:]):
        return None
    return [row[n] for row in rows[:n]]


def _spanning_words(columns):
    # Words whose rows span the row space of the columns' word expansions,
    # found greedily by forward elimination in Fractions.
    echelon, words = [], []
    for w in sorted(set().union(*columns)):
        row = [F(col.get(w, 0)) for col in columns]
        for p, pivot in echelon:
            if row[p]:
                f = row[p] / pivot[p]
                row = [a - f * b for a, b in zip(row, pivot)]
        p = next((j for j, v in enumerate(row) if v), None)
        if p is not None:
            echelon.append((p, row))
            words.append(w)
    return set(words)


def _first_by_every_support(search, block, node_key):
    # Whether some block of the same element ranks before node_key, found
    # by solving over the word expansions on every set of the block's
    # commutators.  A set of dependent commutators is left out: a
    # representation on it has as many terms as the set, more than one on
    # an independent subset spanning the element, which is solved too.  So
    # is a set of more commutators than the block has terms: a block on it
    # ranks after the block's by size.  The element lies in the span of the
    # commutators' expansions, so solving on words whose rows span their
    # row space solves on every word.
    comms = search.comms
    expansions = [expand_nested(c).terms for c in comms]
    words = _spanning_words(expansions)
    expansions = [{w: v for w, v in e.items() if w in words} for e in expansions]
    nums, den = block
    target = expand_lie(LieExpr({comms[i]: F(v, den) for i, v in nums.items()})).terms
    target = {w: v for w, v in target.items() if w in words}
    for mask in range(1 << len(comms)):
        if mask.bit_count() > len(nums):
            continue
        chosen = [i for i in range(len(comms)) if mask >> i & 1]
        x = _solve([expansions[i] for i in chosen], target)
        if x is not None:
            cand = identities._to_int({i: v for i, v in zip(chosen, x) if v})
            if compaction._ranks_before(compaction._key(cand), node_key):
                return False
    return True


def _relation_moves(nums, rel):
    # The gcd-ratio sizing that descent steps used before ratio weights,
    # kept as an oracle.  The moves t -> t - (t_c / r_c) * r of one
    # relation, one per key c of rel held in nums, in rel's order: (c, size
    # change, move index).  Keys with equal ratio t_k / r_k give the same
    # move, which cancels exactly those keys and adds every key of rel that
    # nums lacks.  Move indices count distinct moves in order of first
    # appearance.
    added = 0
    shared = []
    groups = {}
    for k, v in rel.items():
        t = nums.get(k)
        if t is None:
            added += 1
            continue
        g = math.gcd(t, v) if v > 0 else -math.gcd(t, v)
        ratio = t // g, v // g
        group = groups.get(ratio)
        if group is None:
            group = groups[ratio] = [len(groups), 0]
        group[1] += 1
        shared.append((k, group))
    return [(k, added - cancelled, index) for k, (index, cancelled) in shared]


def _tried_blocks(search, rng, most):
    # A random block on at most `most` of search's commutators, its basis
    # rewrite base, and the blocks a proof test tries: base, its descent and
    # each single move from those.
    n = len(search.comms)
    start = identities._to_int({
        i: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
        for i in rng.sample(range(n), rng.randint(1, most))
    })
    base = identities._cleared(start, {max(r): r for r, *_ in search.rels})
    table = {}
    descended = compaction._descend(
        compaction._node(table, base), search.rels, [0], 100, table
    )
    tried = [base, descended.block]
    for block in tried[:2]:
        for rel, *_ in search.rels:
            for col, _, _ in _relation_moves(block[0], rel):
                tried.append(compaction._move(block, rel, col))
    return base, tried


def test_proof_matches_enumerating_every_support():
    # On random blocks of every search block at grades 4-7, the proof holds
    # for a block exactly when no block of the same element, on any set of
    # the block's commutators, ranks before it.  The blocks tried are the
    # basis rewrite, its descent, and each single move from those.  Grade
    # 7's blocks of 10 commutators have 1 024 supports each, so fewer random
    # blocks are drawn there; its proofs take both sides.
    rng = random.Random(4017)
    outcomes = {True: 0, False: 0}
    for m, draws in ((4, 12), (5, 12), (6, 12), (7, 3)):
        for search in compaction._search_blocks(m).values():
            n = len(search.comms)
            for _ in range(draws):
                base, tried = _tried_blocks(search, rng, n)
                for block in tried:
                    node = compaction._node({}, block)
                    got = compaction._proven_first(node, base, search, 1 << n)
                    assert got == _first_by_every_support(search, block, node.key), (
                        m, block
                    )
                    outcomes[got] += 1
    assert min(outcomes.values()) >= 50, outcomes


def _commutator_walk(node, base, search):
    # The proof as it was before it walked parallel classes: the same walk
    # over every support commutator's coordinates, with no allowance.
    support = list(search.coords)
    vectors = list(search.coords.values())
    n = len(vectors)
    held = [p for p, i in enumerate(support) if i in node.block[0]]
    s = len(held)
    target = {i: v for i, v in base[0].items() if i in search.coords}
    if not target:
        return not s
    least = held[0]
    chosen, rows, rests, p = [], {}, [target], 0
    while True:
        size = len(chosen) + 1
        first = chosen[0] if chosen else p
        if p == n or (size == s and first > least):
            if not chosen:
                return True
            p = chosen.pop() + 1
            rows.popitem()
            rests.pop()
            continue
        vec, _ = identities._cleared((vectors[p], 0), rows)
        if vec:
            col = next(iter(vec))
            left, _ = identities._cleared((rests[-1], 0), {col: vec})
            if not left:
                if size < s or first != least:
                    return False
                if chosen + [p] != held:
                    order = (support[q] for q in (*chosen, p, *range(n)))
                    cols = compaction._pivot_set(search, order)
                    block = compaction._sampled_block(base, search, cols)
                    if compaction._ranks_before(compaction._key(block), node.key):
                        return False
            elif size < s:
                chosen.append(p)
                rows[col] = vec
                rests.append(left)
        p += 1


def test_parallel_classes_are_the_least_index_of_each_line():
    # Each class is the least support index of one line of coordinate
    # vectors, and every support commutator is parallel to its class's.
    counts = {}
    for m in range(4, 11):
        for search in compaction._search_blocks(m).values():
            reps = search.reps
            assert list(reps) == sorted(reps)
            for i in search.coords:
                line = [
                    r for r in reps
                    if not identities._cleared(
                        (search.coords[i], 0),
                        {min(search.coords[r]): search.coords[r]},
                    )[0]
                ]
                assert len(line) == 1 and line[0] <= i, (m, i)
        counts[m] = [len(b.reps) for _, b in sorted(compaction._search_blocks(m).items())]
    assert counts[8] == [5, 11, 14, 11, 5]
    assert counts[9] == [5, 16, 25, 25, 16, 5]
    assert counts[10] == [7, 22, 41, 50, 41, 22, 7]


def _proof_inputs(rng):
    # (node, base, search) for random blocks of every search block at
    # grades 4-8, and for the seeds and results of the grade 4-8 series
    # terms.  The random blocks are the basis rewrite, its descent and each
    # single move from those, which often put a term on a later member of a
    # class.
    for m in range(4, 9):
        for search in compaction._search_blocks(m).values():
            for _ in range(6):
                base, tried = _tried_blocks(search, rng, min(len(search.comms), 4))
                for block in tried:
                    yield compaction._node({}, block), base, search
        blocks = compaction._search_blocks(m)
        out = compact_bch_term(m)
        for key, search in blocks.items():
            part = {
                search.index[c]: v for c, v in bch_term(m, 2).terms.items()
                if c in search.index
            }
            start = identities._to_int(part)
            base = identities._cleared(start, search.rules[0])
            best = identities._to_int({
                search.index[c]: v for c, v in out.terms.items() if c in search.index
            })
            for block in [start, best] + [identities._cleared(start, r) for r in search.rules]:
                yield compaction._node({}, block), base, search


def test_class_walk_matches_the_commutator_walk():
    # On the proof inputs of grades 4-8, the proof that walks parallel
    # classes answers as the walk over every support commutator.
    outcomes = {True: 0, False: 0, "later member": 0}
    for node, base, search in _proof_inputs(random.Random(4021)):
        got = compaction._proven_first(node, base, search, 1 << 40)
        assert got == _commutator_walk(node, base, search), (search.comms[0], node.key)
        outcomes[got] += 1
        outcomes["later member"] += any(
            i in search.coords and i not in search.reps for i in node.block[0]
        )
    assert min(outcomes.values()) >= 50, outcomes


def test_dependent_classes_are_the_relations_of_dependent_reps():
    # Each class is a unit one, a basis commutator with coordinates {i: 1},
    # or a dependent one, whose relation is +1 on its dependent commutator:
    # what the dependent side of the proof solves on.
    for m in range(4, 11):
        for search in compaction._search_blocks(m).values():
            deps = [max(rel) for rel, *_ in search.dependent_classes]
            assert deps == [i for i in search.reps if search.dependents >> i & 1]
            for i in search.reps:
                if i not in deps:
                    assert search.coords[i] == {i: 1}, (m, i)
            for rel, *_ in search.rels:
                assert rel[max(rel)] == 1, (m, rel)
    blocks = sorted(compaction._search_blocks(8).items())
    assert [len(b.dependent_classes) for _, b in blocks] == [2, 4, 6, 4, 2]


def _proof_args(node, base, search):
    # The target and held positions both sides of the proof take, or None
    # where one of _proven_first's early returns decides.
    nums = node.block[0]
    target = {i: v for i, v in base[0].items() if i in search.coords}
    held = [p for p, i in enumerate(search.reps) if i in nums]
    if not target or len(held) < sum(i in search.coords for i in nums):
        return None
    return target, held


def _basis_inputs(rng):
    # (node, base, search) for the blocks on random bases of classes, from
    # random blocks of every search block at grades 6-8: each is one case of
    # the dependent side, so a case that alone refutes another is met.
    for m in (6, 7, 8):
        for search in compaction._search_blocks(m).values():
            for _ in range(4):
                base, _ = _tried_blocks(search, rng, len(search.comms))
                for _ in range(12):
                    order = list(search.reps)
                    rng.shuffle(order)
                    cols = compaction._pivot_set(search, order)
                    block = compaction._sampled_block(base, search, cols)
                    yield compaction._node({}, block), base, search


def test_dependent_side_matches_the_class_walk(monkeypatch):
    # Both sides of the proof, called directly, answer alike and as
    # _proven_first with no guard, on the proof inputs of grades 4-8 and on
    # blocks on random bases of classes at grades 6-8: the walk on every
    # block, the dependent side on those of at most two dependent classes,
    # where a block proven with one and with two solved every case.  There
    # the blocks the walk ranks with _sampled_block are counted by their
    # value at node's least term: those whose value differs from node's,
    # and those that tie with node there, which the dependent side ranks by
    # its case's values on the support.  The dependent side builds no block.
    outcomes = {True: 0, False: 0, "settled": 0, "tied": 0}
    proven = set()
    ranked = []
    real = compaction._sampled_block

    def recorded(*args):
        ranked.append(real(*args))
        return ranked[-1]

    # Seeds 3 and 5 add five grade-8 blocks, X-count 6, that only a case
    # of two dependent classes refutes, solved after clearing its first
    # basis commutator from the second relation.
    inputs = []
    for seed in (4023, 3, 5):
        rng = random.Random(seed)
        inputs.extend(chain(_proof_inputs(rng), _basis_inputs(rng)))
    monkeypatch.setattr(compaction, "_sampled_block", recorded)
    for node, base, search in inputs:
        args = _proof_args(node, base, search)
        if args is None:
            continue
        nums, den = node.block
        least = search.reps[args[1][0]]
        ranked.clear()
        walked = compaction._walked_sets(node, base, search, *args)
        settled = sum(
            block[0].get(least, 0) * den != nums[least] * block[1] for block in ranked
        )
        tied = len(ranked) - settled
        got = compaction._proven_first(node, base, search, 1 << 40)
        assert walked == got, (search.comms[0], node.key)
        d = len(search.dependent_classes)
        if d > 2:
            continue
        ranked.clear()
        solved = compaction._solved_cases(node, base, search, *args)
        assert solved == got, (search.comms[0], node.key)
        assert not ranked, (search.comms[0], node.key)
        outcomes["settled"] += settled
        outcomes["tied"] += tied
        outcomes[got] += 1
        if got:
            proven.add(d)
    assert min(outcomes[True], outcomes[False]) >= 50, outcomes
    assert outcomes["settled"] >= 20 and outcomes["tied"] >= 1, outcomes
    assert {1, 2} <= proven, proven


def test_library_pass_takes_both_proof_sides(monkeypatch):
    # One library-shaped pass, thirty seeded grade 6-8 expressions at
    # budget 1000, runs the proof on both sides, each proof on the dependent
    # side exactly when d is at most 2 and its comb(n, d) cases are fewer
    # than the sets the walk visits below s.
    taken = []

    def wrap(name):
        real = getattr(compaction, name)

        def recorded(node, base, search, target, held):
            n, s, d = len(search.reps), len(held), len(search.dependent_classes)
            fewer = math.comb(n, d) < sum(math.comb(n, k) for k in range(s))
            taken.append((name, d <= 2 and fewer))
            return real(node, base, search, target, held)

        monkeypatch.setattr(compaction, name, recorded)

    wrap("_walked_sets")
    wrap("_solved_cases")
    for m, expr in _seeded_exprs(8021, 30, (6, 7, 8)):
        compact_reduce(expr, m, 1000)
    assert {name for name, _ in taken} == {"_walked_sets", "_solved_cases"}
    assert all((name == "_solved_cases") == fewer for name, fewer in taken)


def test_grade_eight_proves_every_block(monkeypatch):
    # With the proof walking parallel classes, the grade-8 series search
    # proves all five of its blocks.  The middle one, X-count 4, is proven
    # by meter step 7, where its 14 classes' sets fit the steps left and its
    # 20 commutators' sets did not.
    proofs, shares = {}, {}

    def wrap_proof(real):
        def recorded(node, base, search, allowance):
            got = real(node, base, search, allowance)
            if got:
                proofs[search.comms[0].count(0)] = allowance
            return got
        return recorded

    def wrap_search(real):
        def recorded(*args):
            shares[args[2].comms[0].count(0)] = args[5]
            return real(*args)
        return recorded

    _warm_compaction(monkeypatch, 8, _proven_first=wrap_proof, _sample_bases=wrap_search)
    assert sorted(proofs) == sorted(compaction._search_blocks(8)) == [2, 3, 4, 5, 6]
    assert shares[4] - proofs[4] <= 7


def _full_ranking_step(block, rels):
    # The descent step before relations were skipped and moves filtered by
    # their least key: size every relation, build every distinct move of the
    # least size, and keep the first in rank; None if none ranks before
    # block.  Also returns how many moves it built.
    nums = block[0]
    least = 0
    fewest = []
    for rel in rels:
        seen = 0
        for col, delta, index in _relation_moves(nums, rel):
            if index < seen:
                continue
            seen += 1
            if delta < least:
                least, fewest = delta, [(rel, col)]
            elif delta == least:
                fewest.append((rel, col))
    best, best_key = block, compaction._key(block)
    for rel, col in fewest:
        move = compaction._move(block, rel, col)
        key = compaction._key(move)
        if compaction._ranks_before(key, best_key):
            best, best_key = move, key
    return (None if best is block else best), len(fewest)


def _unequal_group(block, rels):
    # Whether some move of some relation cancels keys whose relation entries
    # differ in size: equal ratios there need the lcm in the ratio weights.
    nums = block[0]
    for rel in rels:
        groups = {}
        for k, v in rel.items():
            if k in nums:
                ratio = F(nums[k], v)
                groups.setdefault(ratio, set()).add(abs(v))
        if any(len(sizes) > 1 for sizes in groups.values()):
            return True
    return False


def test_step_matches_the_full_ranking():
    # On random blocks of every search block at grades 6-10 the step equals
    # the one that sizes moves by the gcd-ratio oracle and builds and ranks
    # every least-size move.  Small values make moves often cancel as many
    # keys as they add.  Wide ones, numerators up to 50 in size over
    # denominators 1..12 plus a multiple of one relation, make moves that
    # cancel several keys of unequal relation entries, which the ratio
    # weights must group alike.
    rng = random.Random(6011)
    wide = random.Random(6029)
    numerators = [n for n in range(-50, 51) if n]
    kinds = dict.fromkeys(
        ("shorter", "same size", "tie", "none", "untouched", "unequal"), 0
    )
    for m in range(6, 11):
        for search_block in compaction._search_blocks(m).values():
            rels = [rel for rel, *_ in search_block.rels]
            touched = {i for rel in rels for i in rel}
            n = len(search_block.comms)
            blocks = []
            for _ in range(40):
                blocks.append(identities._to_int({
                    i: F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 2, 3)))
                    for i in rng.sample(range(n), rng.randint(1, n))
                }))
            for _ in range(20):
                terms = {
                    i: F(wide.choice(numerators), wide.randint(1, 12))
                    for i in wide.sample(range(n), wide.randint(1, n))
                }
                scale = F(wide.choice(numerators), wide.randint(1, 12))
                for k, v in wide.choice(rels).items():
                    terms[k] = terms.get(k, 0) + scale * v
                blocks.append(identities._to_int({k: v for k, v in terms.items() if v}))
            for block in blocks:
                if not block[0]:
                    continue
                want, built = _full_ranking_step(block, rels)
                node = compaction._node({}, block)
                got = compaction._step(node, search_block.rels, {})
                assert (None if got is None else got.block) == want, (m, block)
                if want is None:
                    kinds["none"] += 1
                elif len(want[0]) < len(block[0]):
                    kinds["shorter"] += 1
                else:
                    kinds["same size"] += 1
                    kinds["tie"] += built > 1
                kinds["untouched"] += not touched.issuperset(block[0])
                kinds["unequal"] += _unequal_group(block, rels)
    assert min(kinds.values()) >= 20, kinds


def test_compact_search_leaves_the_cached_tables_unchanged():
    # Searches and rewrites share each grade's identity rows, relations and
    # tail-rule rows; none may change them, whether the default budget runs
    # out or a small one does.
    compact_reduce(bch_term(8, 2), 8)
    before = copy.deepcopy(compaction._search_blocks(8))
    idents = copy.deepcopy(identities._identity_rows(8))
    rows = [copy.deepcopy(identities._tail_rows(8, g)) for g in (4, 6)]
    compact_reduce(bch_term(8, 2), 8)
    for m, expr in _seeded_exprs(2008, 3, (8,)):
        compact_reduce(expr, m, 1000)
        for regime in ("grade4", "grade6", "full"):
            apply_regime(expr, m, regime)
    assert compaction._search_blocks(8) == before
    assert identities._identity_rows(8) == idents
    assert [identities._tail_rows(8, g) for g in (4, 6)] == rows


def test_compact_search_clears_each_pivot_set_once(monkeypatch):
    # A sampled basis's cleared block depends only on its pivot columns, so
    # each block's search clears a pivot set once; before the pivot sets
    # were kept, 2 122 sampled bases here cleared 130 distinct ones.  The
    # pivot set is recorded as handed to the clear: the rows _cleared gets
    # from the free relations take only its basis columns, which two pivot
    # sets can share.
    searches: list[list[int]] = []
    current: list[list[int] | None] = [None]

    def wrap_search(real):
        def scoped(*args):
            current[0] = []
            searches.append(current[0])
            try:
                return real(*args)
            finally:
                current[0] = None
        return scoped

    def wrap_clear(real):
        def recorded(base, search, cols):
            if current[0] is not None:
                current[0].append(cols)
            return real(base, search, cols)
        return recorded

    _search_to_the_meter(monkeypatch)
    _warm_compaction(
        monkeypatch, 7, _sample_bases=wrap_search, _sampled_block=wrap_clear
    )
    assert sum(map(len, searches)) > len(searches)
    assert all(len(set(cleared)) == len(cleared) for cleared in searches)


def test_sampled_basis_needs_no_back_substitution():
    # The block cleared with the echelon rows in the order taken equals the
    # block cleared with the fully reduced pivot rows, and the block cleared
    # from the basis rewrite with only the relations whose dependent
    # commutator the pivot set leaves free, on random blocks under random
    # column orders, for every block at grades 6-9.
    rng = random.Random(6009)
    for m in range(6, 10):
        rel_blocks = {}
        for ident in identities_and_basis(m).identities:
            rel_blocks.setdefault(max(ident.terms).count(0), []).append(
                identities._primitive(ident.terms)
            )
        comms = enumerate_nested(m)
        searches = compaction._search_blocks(m)
        for key, rels in rel_blocks.items():
            search = searches[key]
            index = search.index
            block = [c for c in comms if c.count(0) == key]
            support = sorted({l for r in rels for l in r})
            for _ in range(4):
                start = identities._to_int({
                    c: F(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 12))
                    for c in rng.sample(block, max(1, len(block) // 2))
                })
                perm = support[:]
                rng.shuffle(perm)
                echelon = identities._echelon([dict(r) for r in rels], perm)
                reduced = identities._pivot_rows([dict(r) for r in rels], perm)
                assert list(echelon) == list(reduced)
                nums, den = identities._cleared(start, echelon)
                assert not any(col in nums for col in reduced)
                assert (nums, den) == identities._cleared(start, reduced)
                base = identities._cleared(
                    ({index[c]: v for c, v in start[0].items()}, start[1]),
                    {max(r): r for r, *_ in search.rels},
                )
                assert not base[0].keys() & {max(r) for r, *_ in search.rels}
                cols = sum(1 << index[c] for c in echelon)
                freed = compaction._sampled_block(base, search, cols)
                assert freed == ({index[c]: v for c, v in nums.items()}, den)


def _pivot_set_counts(m: int) -> dict[int, int]:
    # How many sampled pivot sets this process knows, per block of grade m.
    return {
        key: len(compaction._sampled_pivots(m, key))
        for key in compaction._search_blocks(m)
    }


def test_known_pivot_sets_change_no_result(monkeypatch):
    # The k-th sampled pivot set is the one the k-th shuffle of a generator
    # seeded alike picks, so the one a search learns serves every later one.
    # Whatever the process has learned, a search gives the same result and
    # reaches the same samples in every block: with nothing learned, with
    # part of what it needs learned by a budget-100 search, and after a
    # default-budget search of another expression.
    _search_to_the_meter(monkeypatch)
    m = 7
    (_, expr), (_, other) = _seeded_exprs(7012, 2, (m,))
    lines = []
    for budget in (None, 100, _COMPACT_BUDGET):
        compaction._sampled_pivots.cache_clear()
        if budget is not None:
            compact_reduce(other, m, budget)
        before = _pivot_set_counts(m)
        lines += _budget_pin_lines(monkeypatch, [(m, expr)], (_COMPACT_BUDGET,))
        after = _pivot_set_counts(m)
        if budget == 100:
            # The search met known pivot sets and learned new ones.
            assert any(0 < before[k] < after[k] for k in after)
    assert len(lines) == 3 and len(set(lines)) == 1
    for key, search in compaction._search_blocks(m).items():
        rng = random.Random(m * 1009 + key)
        for cols in compaction._sampled_pivots(m, key):
            perm = list(search.coords)
            rng.shuffle(perm)
            rows = [dict(r) for r, *_ in search.rels]
            pivots = identities._echelon(rows, reversed(perm))
            assert cols == sum(1 << i for i in pivots)


def test_threads_learn_each_sample_index_once():
    # Searches of one grade in several threads share the pivot sets the
    # process learns.  With the thread switch interval shortened so that
    # they interleave, each gives the lone search's result, and the lists
    # end as the lone search left them.
    m = 6
    exprs = [expr for _, expr in _seeded_exprs(6013, 4, (m,))]
    compaction._sampled_pivots.cache_clear()
    want = [compact_reduce(expr, m) for expr in exprs]
    blocks = compaction._search_blocks(m)
    learned = {key: list(compaction._sampled_pivots(m, key)) for key in blocks}
    compaction._sampled_pivots.cache_clear()
    _pivot_set_counts(m)  # each block's list exists before the threads start
    got = [None] * len(exprs)

    def run(i):
        got[i] = compact_reduce(exprs[i], m)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(exprs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
    assert {key: compaction._sampled_pivots(m, key) for key in blocks} == learned


def test_warm_search_learns_no_pivot_set_again(monkeypatch):
    # A second search of a grade knows every sampled pivot set it reaches,
    # so its sampled bases pick no basis.  Here the cold search picked
    # 2 551; before the pivot sets were kept across searches, every search
    # picked them all again.
    picked = [0]
    sampling = [False]

    def scoped(real):
        def sample(*args):
            sampling[0] = True
            try:
                return real(*args)
            finally:
                sampling[0] = False
        return sample

    def counted(real):
        def pick(search, order):
            picked[0] += sampling[0]
            return real(search, order)
        return pick

    _search_to_the_meter(monkeypatch)
    monkeypatch.setattr(compaction, "_sample_bases", scoped(compaction._sample_bases))
    monkeypatch.setattr(compaction, "_pivot_set", counted(compaction._pivot_set))
    compaction._sampled_pivots.cache_clear()
    e = bch_term(8, 2)
    cold = compact_reduce(e, 8)
    assert picked[0] > 0
    picked[0] = 0
    assert compact_reduce(e, 8) == cold
    assert picked[0] == 0


def test_pivot_set_is_the_dual_of_the_relation_echelon():
    # The support indices left out of a block's lex-first basis in an order
    # are the pivot columns of an echelon pass over its relations in the
    # reverse order (matroid duality), so the search picks every basis from
    # the basis side.  Checked for every search block of grades 4-10 on the
    # shuffles its sampled bases draw and on a largest-coefficient order.
    values = random.Random(4019)
    for m in range(4, 11):
        for key, search in compaction._search_blocks(m).items():
            draws = random.Random(m * 1009 + key)
            orders = []
            for _ in range(40):
                perm = list(search.coords)
                draws.shuffle(perm)
                orders.append(perm)
            n = len(search.comms)
            nums = {i: values.randint(-9, 9) for i in values.sample(range(n), n // 2)}
            orders.append(sorted(search.coords, key=lambda i: abs(nums.get(i, 0))))
            for order in orders:
                rows = [dict(r) for r, *_ in search.rels]
                pivots = identities._echelon(rows, reversed(order))
                cols = sum(1 << i for i in pivots)
                assert compaction._pivot_set(search, order) == cols, (m, key, order)


def test_compact_search_leaves_no_cyclic_garbage():
    # No block search's table holds a cycle, since a descent step leads to
    # a node that ranks strictly first and an uncomputed step is False, not
    # the node itself, and the proof's walk holds no closure that refers to
    # itself, so with caches warm the search leaves nothing for the cycle
    # collector.  Before tables were unlinked, these calls left 1 531
    # objects in cycles.
    calls = [(expr, m, 1000) for m, expr in _seeded_exprs(2010, 12, (6, 7, 8))]
    calls.append((bch_term(8, 2), 8, _COMPACT_BUDGET))
    for args in calls:
        compact_reduce(*args)
    gc.collect()
    gc.disable()
    try:
        for args in calls:
            compact_reduce(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()
