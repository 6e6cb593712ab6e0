"""Identity discovery among right-nested commutators by exact elimination.

At grade m there are 2^(m-2) canonical two-letter right-nested commutators,
but they span a smaller space: expanding each into associative words gives
rows whose vanishing combinations are linear identities.  The expansion of a
commutator with j X's only touches words with j X's, so elimination runs per
letter multidegree: a sparse pass walks each block's commutators in lex
order and yields the commutator basis (the lexicographically first
independent subset) and the complete identity list.  The dense expansion
matrix, augmented with an identity block, and its reduced form are built
only on demand, for the grade-4 worked example.

All row reduction is fraction-free: ``_eliminate`` clears one column of an
integer row, and ``_pivot_rows`` builds the fully reduced pivot rows behind
the reduced form, the rules and the search's sampled bases.  Fractions
appear only at the edges, in expansions, identities, rules and results.

Rewrite machinery re-expresses series terms over a basis, either with the
full grade-m identity set or with the fixed grade-4/grade-6 tail rules whose
ad-prefixed lifts reproduce the published reduced rows, and a budgeted
deterministic search looks for representations with fewer nonzero terms.
The search runs on integers: each block is held as integer numerators over
one denominator in lowest terms, each identity as a primitive integer
vector, and a move's size is counted before the move is built.  It stays
exact, and it is deterministic for fixed inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product
from math import gcd, lcm
from typing import Callable, Iterable, Sequence, TypeVar

from bchnest.series import bch_term, symmetric_bch_term
from bchnest.terms import (
    Leaves,
    LieExpr,
    ONE,
    Word,
    ZERO,
    accumulate,
    expand_nested,
)

# Published term counts for grades 2..10, used as reference rows by the table
# command and pinned by the acceptance tests.  "dim" is the dimension of the
# grade-m homogeneous component on two letters; the other rows are
# right-nested counts with no identities applied, with the grade-4 / grade-6
# tail rules applied, with the budgeted compaction search, and for the
# symmetric product.  The symmetric row is published through m=9; its m=10
# entry is 0 because even-grade terms of the symmetric product vanish
# identically.  The table command compares computed counts with these over
# the published grades only.
REFERENCE_COUNTS: dict[str, tuple[int, ...]] = {
    "dim": (1, 2, 3, 6, 9, 18, 30, 56, 99),
    "none": (1, 2, 1, 8, 7, 32, 31, 96, 97),
    "grade4": (1, 2, 1, 6, 5, 24, 23, 78, 78),
    "grade6": (1, 2, 1, 6, 4, 18, 17, 67, 65),
    "compact": (1, 2, 1, 6, 4, 18, 13, 38, 52),
    "symmetric": (0, 2, 0, 6, 0, 18, 0, 42, 0),
}

TABLE_MODES = ("none", "grade4", "grade6", "full", "compact")

_COMPACT_BUDGET = 10000


def enumerate_nested(m: int) -> tuple[Leaves, ...]:
    """All canonical grade-m right-nested commutators on {X, Y}, lex order.

    The innermost pair is pinned to (X, Y); the 2^(m-2) prefixes range over
    all words.  Appending the fixed suffix preserves lexicographic order.
    """
    if m < 2:
        raise ValueError(f"grade must be at least 2, got {m}")
    return tuple(prefix + (0, 1) for prefix in product((0, 1), repeat=m - 2))


@dataclass(frozen=True)
class ExactMatrix:
    """Dense rational matrix with labeled columns.

    The first len(word_columns) columns are expansion coefficients per word;
    the remaining columns form the augmented block, one per commutator in
    comm_labels (which also labels the rows of the unreduced matrix).
    """

    rows: tuple[tuple[Fraction, ...], ...]
    word_columns: tuple[Word, ...]
    comm_labels: tuple[Leaves, ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")


def gauss_jordan(matrix: ExactMatrix) -> ExactMatrix:
    """Unique reduced row-echelon form over the rationals.

    The nonzero rows go through ``_pivot_rows`` as primitive integer rows,
    columns left to right; each pivot row is divided by its leading entry
    and zero rows follow.  Column labels carry over unchanged.
    """
    ncols = len(matrix.rows[0]) if matrix.rows else 0
    sparse = ({j: v for j, v in enumerate(r) if v} for r in matrix.rows)
    pivots = _pivot_rows([_primitive(r) for r in sparse if r], range(ncols))
    rows = [
        tuple(Fraction(prow.get(j, 0), prow[col]) for j in range(ncols))
        for col, prow in pivots.items()
    ]
    rows += [(ZERO,) * ncols] * (len(matrix.rows) - len(rows))
    return ExactMatrix(
        rows=tuple(rows),
        word_columns=matrix.word_columns,
        comm_labels=matrix.comm_labels,
    )


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Everything the elimination learns about one grade.

    basis is the lex-first independent subset of the enumeration; identities
    are normalized to coefficient +1 on their dependent commutator (the
    lex-greatest of each identity's support) and expand to zero by
    construction, their word parts cancelled exactly (``identities --verify``
    and the tests check this, not the library).  matrix (the expansion matrix
    with the augmented identity block) and rref (its reduced form) are built
    on first access.
    """

    grade: int
    commutators: tuple[Leaves, ...]
    basis: tuple[Leaves, ...]
    identities: tuple[LieExpr, ...]

    @cached_property
    def matrix(self) -> ExactMatrix:
        expansions = [expand_nested(c).terms for c in self.commutators]
        words = sorted({w for e in expansions for w in e})
        n = len(expansions)
        return ExactMatrix(
            rows=tuple(
                tuple(e.get(w, ZERO) for w in words)
                + tuple(ONE if j == i else ZERO for j in range(n))
                for i, e in enumerate(expansions)
            ),
            word_columns=tuple(words),
            comm_labels=self.commutators,
        )

    @cached_property
    def rref(self) -> ExactMatrix:
        return gauss_jordan(self.matrix)


@lru_cache(maxsize=None)
def identities_and_basis(m: int) -> IdentityReport:
    """Discover the commutator basis and all linear identities at grade m."""
    comms = enumerate_nested(m)
    blocks: dict[int, list[Leaves]] = {}
    for c in comms:
        blocks.setdefault(c.count(0), []).append(c)

    basis: list[Leaves] = []
    identities: list[LieExpr] = []
    for key in sorted(blocks):
        # In-order elimination over the block's commutators in lex order.
        # A row holds c's word expansion plus c itself under the tag (2,) + c,
        # which sorts after every word; a row left with tags only is an
        # identity, its terms in the order elimination added them.
        pivots: list[tuple[Word, dict[Leaves, int]]] = []
        for c in blocks[key]:
            row, den = _to_int(expand_nested(c).terms)
            tag = (2,) + c
            row[tag] = den
            for lead, prow in pivots:
                if lead in row:
                    _eliminate(row, prow, lead)
            lead = min(row)
            if lead[0] != 2:
                pivots.append((lead, row))
                basis.append(c)
            else:
                # Normalized to coefficient 1 on c itself; the rest is
                # supported on lex-earlier basis commutators.
                terms = {k[1:]: Fraction(v, row[tag]) for k, v in row.items()}
                identities.append(LieExpr._from_clean(terms))

    basis.sort()
    identities.sort(key=lambda e: max(e.terms))
    return IdentityReport(
        grade=m,
        commutators=comms,
        basis=tuple(basis),
        identities=tuple(identities),
    )


K = TypeVar("K")
Rules = dict[Leaves, dict[Leaves, Fraction]]

# A search block: integer numerators over one positive denominator, in
# lowest terms.
Block = tuple[dict[Leaves, int], int]


def _to_int(terms: dict[K, Fraction]) -> tuple[dict[K, int], int]:
    """Numerators over the lcm of the reduced denominators, key order kept."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _primitive(terms: dict[K, Fraction]) -> dict[K, int]:
    """The integer multiple of a relation with coprime entries, key order kept."""
    nums, _ = _to_int(terms)
    g = gcd(*nums.values())
    return {k: v // g for k, v in nums.items()}


def _eliminate(row: dict[K, int], pick: dict[K, int], col: K, den: int = 0) -> int:
    """Clear col from row with pick, in place; returns the new denominator.

    row <- (p * row - row[col] * pick) / g with p = |pick[col]|: row is
    scaled in place, then pick's entries are added in pick's order, dropping
    zeros and appending new keys, so row keeps the key order that
    ``accumulate`` would give it; rule right-hand sides inherit that order.
    den is row's common denominator, scaled by p alongside; g is the gcd of
    den and the new entries, so a block stays in lowest terms and a relation
    (den 0) stays primitive.
    """
    p, f = pick[col], row[col]
    if p < 0:
        p, f = -p, -f
    if p != 1:
        for k in row:
            row[k] *= p
    for k, v in pick.items():
        c = row.get(k, 0) - f * v
        if c:
            row[k] = c
        else:
            del row[k]
    den *= p
    g = gcd(den, *row.values())
    if g > 1:
        for k in row:
            row[k] //= g
        den //= g
    return den


def _pivot_rows(rows: list[dict[K, int]], order: Iterable[K]) -> dict[K, dict[K, int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows, in place.

    Per column in order, the first remaining row holding it becomes its
    pivot row and clears it from every other row, earlier pivot rows
    included.  Returns the pivot rows by column, in the order taken; none
    holds another pivot's column.
    """
    pivots: dict[K, dict[K, int]] = {}
    for col in order:
        if not rows:
            break
        pick = next((r for r in rows if col in r), None)
        if pick is None:
            continue
        rows = [r for r in rows if r is not pick]
        for row in chain(rows, pivots.values()):
            if col in row:
                _eliminate(row, pick, col)
        pivots[col] = pick
    return pivots


def relation_rules(
    relations: Iterable[LieExpr],
    priority: Callable[[Leaves], object] | None = None,
) -> Rules:
    """Turn vanishing combinations into substitution rules pivot -> rest.

    Runs exact elimination over the relations with columns visited in
    decreasing `priority` (default: plain lexicographic order, so the
    lex-greatest commutator of each independent relation gets rewritten in
    terms of earlier ones).  The outcome depends only on the span of the
    relations and the priority, not on their order.  Rule right-hand sides
    never mention pivots, so a single substitution pass fully reduces any
    expression.  The relations are reduced by ``_pivot_rows`` as primitive
    integer rows; only the rules are Fractions.
    """
    if priority is None:
        priority = lambda leaves: leaves
    rows = [_primitive(r.terms) for r in relations if r.terms]
    order = sorted({l for r in rows for l in r}, key=priority, reverse=True)
    return {
        col: {l: Fraction(-v, prow[col]) for l, v in prow.items() if l != col}
        for col, prow in _pivot_rows(rows, order).items()
    }


def apply_rules(expr: LieExpr, rules: Rules) -> LieExpr:
    """Substitute every ruled commutator; assumes rule RHSs are pivot-free."""
    out: dict[Leaves, Fraction] = {}
    for leaves, c in expr.terms.items():
        rhs = rules.get(leaves)
        if rhs is None:
            accumulate(out, ((leaves, c),))
        else:
            accumulate(out, rhs.items(), c)
    return LieExpr._from_clean(out)


@lru_cache(maxsize=None)
def _report_rules(m: int) -> Rules:
    # Each identity is +1 on its dependent commutator, the lex-greatest of
    # its support, and otherwise supported on the basis, so it already is
    # the rule that rewrites that commutator onto report.basis.
    rules: Rules = {}
    for ident in identities_and_basis(m).identities:
        dep = max(ident.terms)
        rules[dep] = {l: -c for l, c in ident.terms.items() if l != dep}
    return rules


def rewrite_in_basis(expr: LieExpr, report: IdentityReport) -> LieExpr:
    """Express a homogeneous LieExpr over the report's commutator basis."""
    if not expr:
        return expr
    if expr.grade() != report.grade:
        raise ValueError(
            f"expression grade {expr.grade()} does not match report grade "
            f"{report.grade}"
        )
    return apply_rules(expr, _report_rules(report.grade))


# Tail rewrite rules behind the grade-4 / grade-6 reduction regimes.  Each
# entry maps a trailing leaf pattern to an equivalent combination of same
# grade tails; ad-prefixing by arbitrary leaves lifts them to any grade.
# The grade-4 rule is the unique grade-4 identity; the grade-6 rules are the
# three grade-6 identities that are not lifts of it, oriented (solved for
# the tail on the left) the way that reproduces the published reduced rows.
# Their correctness is checked against word expansions on first use.
_TAIL_RULES_4: dict[Leaves, tuple[tuple[Leaves, Fraction], ...]] = {
    (1, 0, 0, 1): (((0, 1, 0, 1), ONE),),
}
_TAIL_RULES_6: dict[Leaves, tuple[tuple[Leaves, Fraction], ...]] = {
    (0, 0, 0, 1, 0, 1): (
        ((0, 1, 0, 0, 0, 1), Fraction(2)),
        ((1, 0, 0, 0, 0, 1), Fraction(-1)),
    ),
    (0, 0, 1, 1, 0, 1): (
        ((0, 1, 0, 1, 0, 1), Fraction(3)),
        ((1, 0, 0, 1, 0, 1), Fraction(-3)),
        ((1, 1, 0, 0, 0, 1), Fraction(1)),
    ),
    (1, 0, 1, 1, 0, 1): (
        ((1, 1, 0, 1, 0, 1), Fraction(1, 2)),
        ((0, 1, 1, 1, 0, 1), Fraction(1, 2)),
    ),
}


@lru_cache(maxsize=None)
def _checked_tail_rules(regime_grade: int) -> tuple[dict, ...]:
    """Tail rule tables for a regime, word-expansion-checked once."""
    if regime_grade not in (4, 6):
        raise ValueError(f"regime grade must be 4 or 6, got {regime_grade}")
    tables = (_TAIL_RULES_4,) if regime_grade == 4 else (_TAIL_RULES_4, _TAIL_RULES_6)
    for table in tables:
        for tail, rhs in table.items():
            diff = expand_nested(tail)
            for other, coeff in rhs:
                diff = diff - expand_nested(other) * coeff
            if diff:
                raise RuntimeError(f"tail rule for {tail} is not an identity")
    return tables


def _cascade_tail(
    leaves: Leaves, tables: tuple[dict, ...]
) -> dict[Leaves, Fraction] | None:
    """Fully rewrite one commutator through the tail rules; None if stable.

    A rewrite can enable exactly one follow-up (the grade-4 rule may create
    a grade-6 tail), so the worklist stays tiny.
    """
    replaced = False
    out: dict[Leaves, Fraction] = {}
    stack = [(leaves, ONE)]
    while stack:
        t, c = stack.pop()
        rhs = None
        for table in tables:
            for tail, rule in table.items():
                if len(t) >= len(tail) and t[-len(tail):] == tail:
                    rhs = [(t[: -len(tail)] + s, mult) for s, mult in rule]
                    break
            if rhs is not None:
                break
        if rhs is None:
            accumulate(out, ((t, c),))
        else:
            replaced = True
            stack.extend((t2, c * mult) for t2, mult in rhs)
    return out if replaced else None


@lru_cache(maxsize=None)
def lifted_rules(m: int, regime_grade: int) -> Rules:
    """Substitution rules for grade m from the grade-4 / grade-6 tail rules.

    Every grade-m commutator whose tail matches a rule is mapped to its
    fully cascaded replacement, so one ``apply_rules`` pass reproduces the
    fixpoint of repeated tail rewriting.  regime_grade is 4 or 6; at m below
    the regime grade the higher rules simply never match.
    """
    tables = _checked_tail_rules(regime_grade)
    rules: Rules = {}
    for comm in enumerate_nested(m):
        rhs = _cascade_tail(comm, tables)
        if rhs is not None:
            rules[comm] = rhs
    return rules


@lru_cache(maxsize=None)
def lifted_identities(m: int) -> tuple[LieExpr, ...]:
    """All grade-m ad-prefix lifts of identities found at lower grades.

    Bracketing a vanishing combination under m-g extra leaves keeps it
    vanishing and right-nested, so each grade-g identity yields 2^(m-g)
    grade-m ones.  Their span is what "already known below grade m" means;
    identities outside it are genuinely new at grade m.
    """
    if m < 2:
        raise ValueError(f"grade must be at least 2, got {m}")
    lifts = []
    for g in range(2, m):
        for ident in identities_and_basis(g).identities:
            for prefix in product((0, 1), repeat=m - g):
                lifts.append(
                    LieExpr._from_clean(
                        {prefix + leaves: c for leaves, c in ident.terms.items()}
                    )
                )
    return tuple(lifts)


def _ranks_before(a: Block, b: Block) -> bool:
    # Deterministic order on blocks: fewer terms first, ties broken by the
    # sorted (leaves, value) list, values compared by cross-multiplying.
    (an, ad), (bn, bd) = a, b
    if len(an) != len(bn):
        return len(an) < len(bn)
    for (ka, va), (kb, vb) in zip(sorted(an.items()), sorted(bn.items())):
        if ka != kb:
            return ka < kb
        if va * bd != vb * ad:
            return va * bd < vb * ad
    return False


def _moved_len(nums: dict[Leaves, int], rel: dict[Leaves, int], col: Leaves) -> int:
    # Support size after the move that clears col, counted without building
    # it: a shared key k cancels iff nums[k] * rel[col] == nums[col] * rel[k].
    t, r = nums[col], rel[col]
    n = len(nums)
    for k, v in rel.items():
        c = nums.get(k)
        if c is None:
            n += 1
        elif c * r == t * v:
            n -= 1
    return n


def _move(block: Block, rel: dict[Leaves, int], col: Leaves) -> Block:
    nums = dict(block[0])
    return nums, _eliminate(nums, rel, col, block[1])


def _descend(
    current: Block,
    rels: Sequence[dict[Leaves, int]],
    meter: list[int],
    budget: int,
) -> Block:
    # Steepest descent on single-relation moves t -> t - (t_c / r_c) * r,
    # each of which zeroes one shared term.  A move is built only when its
    # counted size can tie or beat the best so far.  The meter counts
    # adopted candidate representations, not probed moves.
    while meter[0] < budget:
        nums = current[0]
        best = current
        best_len = len(nums)
        for rel in rels:
            for leaves in rel:
                if leaves not in nums:
                    continue
                size = _moved_len(nums, rel, leaves)
                if size > best_len:
                    continue
                move = _move(current, rel, leaves)
                if _ranks_before(move, best):
                    best, best_len = move, size
        if best is current:
            break
        meter[0] += 1
        current = best
    return current


def _sample_bases(
    start: Block,
    rels: Sequence[dict[Leaves, int]],
    meter: list[int],
    budget: int,
    rng: random.Random,
) -> Block:
    # Rewrite onto bases drawn at random: a shuffle picks which commutators
    # get eliminated, its last first, and each resulting representation is
    # polished by descent.  Samples representations far apart in move
    # distance, which the local walk cannot reach.
    best = start
    support = sorted({l2 for r in rels for l2 in r})
    while meter[0] < budget:
        meter[0] += 1
        perm = list(support)
        rng.shuffle(perm)
        nums, den = dict(start[0]), start[1]
        for col, prow in _pivot_rows([dict(r) for r in rels], reversed(perm)).items():
            if col in nums:
                den = _eliminate(nums, prow, col, den)
        cand = _descend((nums, den), rels, meter, budget)
        if _ranks_before(cand, best):
            best = cand
    return best


def _anneal(
    start: Block,
    rels: Sequence[dict[Leaves, int]],
    meter: list[int],
    budget: int,
    rng: random.Random,
) -> Block:
    # Random walk that tolerates slightly larger intermediates, polishing
    # with descent whenever it ties the best and restarting from the best
    # whenever it drifts too long without improving on it.  A move's size
    # change is counted; the move is built only when the walk takes it.
    best = _descend(start, rels, meter, budget)
    current = best
    drift = 0
    while meter[0] < budget:
        meter[0] += 1
        rel = rels[rng.randrange(len(rels))]
        nums = current[0]
        shared = [l2 for l2 in rel if l2 in nums]
        if not shared:
            drift += 1
            if drift > 300:
                current = best
                drift = 0
            continue
        leaves = shared[rng.randrange(len(shared))]
        delta = _moved_len(nums, rel, leaves) - len(nums)
        if delta <= 0 or (delta == 1 and rng.random() < 0.35) or (
            delta == 2 and rng.random() < 0.05
        ):
            current = _move(current, rel, leaves)
            if len(current[0]) <= len(best[0]):
                settled = _descend(current, rels, meter, budget)
                if _ranks_before(settled, best):
                    best = current = settled
                    drift = 0
        drift += 1
        if drift > 300:
            current = best
            drift = 0
    return best


def compact_reduce(expr: LieExpr, m: int, budget: int = _COMPACT_BUDGET) -> LieExpr:
    """Budgeted search for a same-element representation with fewer terms.

    Identities never mix letter multidegrees, so the search space splits
    into independent blocks by X-count.  Per block, the search seeds with
    the best block of the global candidates (the input, the basis rewrite,
    both tail-rule regimes, and a largest-coefficient-first elimination),
    then runs steepest-descent single-relation moves followed by a seeded
    random walk that may pass through slightly larger representations.
    The search holds each block as integer numerators over one denominator
    and each identity as a primitive integer vector, scores a move by
    counting the terms it would cancel and builds only the moves it keeps;
    Fractions appear only in the seeds and in the result.
    Deterministic for fixed inputs; exact; makes no optimality claim.  A
    negative budget is refused.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if not expr:
        return expr
    if expr.grade() != m:
        raise ValueError(f"expression grade {expr.grade()} != {m}")
    if m < 2:
        return expr
    report = identities_and_basis(m)
    if not report.identities:
        return expr

    seeds = [expr, rewrite_in_basis(expr, report)]
    for rg in (4, 6):
        seeds.append(apply_rules(expr, lifted_rules(m, rg)))
    weights = {leaves: abs(c) for leaves, c in expr.terms.items()}
    greedy = relation_rules(
        report.identities, priority=lambda lv: (weights.get(lv, ZERO), lv)
    )
    seeds.append(apply_rules(expr, greedy))

    rel_blocks: dict[int, list[dict[Leaves, int]]] = {}
    for ident in report.identities:
        key = max(ident.terms).count(0)
        rel_blocks.setdefault(key, []).append(_primitive(ident.terms))

    blocks: dict[int, list[dict[Leaves, Fraction]]] = {}
    for seed in seeds:
        split: dict[int, dict[Leaves, Fraction]] = {}
        for leaves, c in seed.terms.items():
            split.setdefault(leaves.count(0), {})[leaves] = c
        for key, part in split.items():
            blocks.setdefault(key, []).append(part)

    out: dict[Leaves, Fraction] = {}
    total_rels = sum(len(rel_blocks.get(k, ())) for k in blocks)
    for key in sorted(blocks):
        cands = blocks[key]
        # Seeds represent the same element, so their blocks agree up to
        # identities and the per-block minimum is a valid choice.
        best = _to_int(cands[0])
        for cand in map(_to_int, cands[1:]):
            if _ranks_before(cand, best):
                best = cand
        rels = rel_blocks.get(key)
        if rels:
            share = max(1, budget * len(rels) // max(1, total_rels))
            meter = [0]
            rng = random.Random(m * 1009 + key)
            best = _sample_bases(best, rels, meter, share * 3 // 5, rng)
            best = _anneal(best, rels, meter, share, rng)
        out.update((k, Fraction(v, best[1])) for k, v in best[0].items())
    return LieExpr._from_clean(out)


@lru_cache(maxsize=None)
def compact_bch_term(m: int) -> LieExpr:
    """The plain grade-m series term after the compaction search."""
    if m == 1:
        return bch_term(1, 2)
    return compact_reduce(bch_term(m, 2), m)


def full_reduce(expr: LieExpr, m: int) -> LieExpr:
    """Rewrite over the grade's basis unless that enlarges the expression.

    The basis representation is canonical but not always the shorter one:
    assembling the symmetric series from compacted inputs can beat it.
    Applying the full identity set as a reduction keeps whichever is
    smaller, preferring the canonical form on ties.
    """
    if not expr:
        return expr
    cand = rewrite_in_basis(expr, identities_and_basis(m))
    return cand if len(cand) <= len(expr) else expr


def apply_regime(expr: LieExpr, m: int, regime: str) -> LieExpr:
    """Reduce a grade-m expression under one of ``TABLE_MODES``.

    none keeps the expression, grade4 / grade6 apply the lifted tail rules,
    full rewrites over the grade's basis unless that enlarges it, and
    compact runs the budgeted search.  Below grade 2 there is nothing to
    reduce.  A nonzero expression of another grade is refused under every
    regime.
    """
    if regime not in TABLE_MODES:
        raise ValueError(f"unknown regime {regime!r}")
    if not expr:
        return expr
    if expr.grade() != m:
        raise ValueError(f"expression grade {expr.grade()} != {m}")
    if m < 2 or regime == "none":
        return expr
    if regime == "grade4":
        return apply_rules(expr, lifted_rules(m, 4))
    if regime == "grade6":
        return apply_rules(expr, lifted_rules(m, 6))
    if regime == "full":
        return full_reduce(expr, m)
    return compact_reduce(expr, m)


def series_term(
    m: int, regime: str = "none", variant: str = "plain", nvars: int = 2
) -> LieExpr:
    """One grade of the plain or symmetric series under a reduction regime.

    The symmetric variant and every regime other than none need two
    generators.  The symmetric full and compact regimes assemble from
    compacted plain terms: a shorter starting representation is worth having
    because the basis rewrite is only kept when it does not enlarge the
    expression.  Plain compact terms come from ``compact_bch_term``'s cache,
    which that assembly shares.
    """
    if variant not in ("plain", "symmetric"):
        raise ValueError(f"unknown variant {variant!r}")
    if nvars != 2 and (regime != "none" or variant != "plain"):
        raise ValueError("only the plain unreduced series takes nvars != 2")
    if variant == "symmetric":
        compacted = regime in ("full", "compact")
        e = symmetric_bch_term(m, phi=compact_bch_term if compacted else None)
    elif regime == "compact":
        return compact_bch_term(m)
    else:
        e = bch_term(m, nvars)
    return apply_regime(e, m, regime)


def table_counts(
    max_m: int, mode: str, variant: str = "plain"
) -> tuple[int, ...]:
    """Nonzero-term counts of ``series_term`` for grades 2..max_m."""
    if max_m < 2:
        raise ValueError(f"max grade must be at least 2, got {max_m}")
    return tuple(len(series_term(m, mode, variant)) for m in range(2, max_m + 1))
