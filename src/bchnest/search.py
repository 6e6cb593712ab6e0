"""The budgeted compaction search: representations with fewer nonzero terms.

``compact_reduce`` looks for a representation of a homogeneous grade-m
element with fewer terms than its input, moving only along the grade's
identities, so it is exact and changes no element.  Identities never mix
letter multidegrees, so each X-count block is searched on its own.  The
search runs on integers: each block of the input is converted once to
integer numerators over one denominator in lowest terms, each identity is a
primitive integer row of ``bchnest.identities._identity_rows``, and seeds
and moves are built by that module's fraction-free kernel.  Its keys are
small ints, each commutator's index in its block's lex order, from one
cached table per grade; results map back to leaf tuples once per block, and
terms no identity touches, such as three-generator ones, pass through
unchanged.  Each block's search takes the best of its seeds, stops there if
the rank-first proof below holds, and otherwise samples bases for three
fifths of its meter share and spends the rest on one steepest descent from
its best.  A sampled basis is Prange's information-set step (IRE Trans. Inf.
Theory 8, 1962): a basis drawn at random, with its pivot set cleared, then
descended.  Sampling stops at three fifths of the share so that the rest can
descend from the best when its descent is unfinished: a seed no sample beat,
or a sample the three-fifths mark cut short.  Sampling the whole share made
warm library searches slower and changed their results, and dropping that
last descent changed them too.  Each block's search interns the blocks it
meets, one node per distinct value keyed by its sorted values, which holds
the node's descent step, so no step or sampled basis's descent is computed
twice.  A descent step sizes all moves of one identity in one pass over
its ratio weights, L / v for each of its values v, with L the lcm of their
sizes: a move cancels exactly the terms whose values times weights equal
those of the term it clears, so sizing costs one int product per term the
identity shares with the block.  One routine, ``_pivot_set``, picks every
basis the search uses from the commutators' coordinates; by matroid
duality it leaves out the pivots an echelon pass over the identities takes
in the reverse order.  Each block has one random generator per process,
seeded by the grade and the X-count, owned by the list of the pivot sets
its shuffles picked: the k-th sampled basis is the one its k-th shuffle
picks, the same in every search, so the process learns it once, as one
int, and the generator draws only the shuffles of samples no search has
reached yet.  Every pivot set is cleared one way, from the basis rewrite
with the identities the set leaves free.  A block's search
stops once its best is proven to rank first among the block's
representations of the same element, over parallel classes: the
commutators whose coordinates span one line, each taken as its least index,
which ranks first among them.  The proof is tried only when the independent
sets of at most as many classes as the best has terms number no more than
the meter steps left.  It walks those sets, or, when d, the dependent
classes among the n, are at most two and the C(n, d) bases of classes
counted from them are fewer than the sets it would walk below that size,
solves the element on every basis instead: the matroid dual of the walk,
splitting each basis as Lee and Brickell's information-set step does
(EUROCRYPT 1988).  The elimination kernel clears every such case from the
element, one basis commutator at a time, as it clears every pivot set.
Both sides decide the same.  Equivalent blocks agree off the support, so
the dependent side ranks each basis's representation by its values on the
support against the best's there and builds no block; the walk, which has
no values on hand, ranks a tie by the block ``_sampled_block`` clears for
its set.
The best is only ever replaced by a block that ranks before it, so the stop
changes no result.  It stays exact, and it is deterministic for fixed
inputs.
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm
from typing import Iterable, Literal, NamedTuple, Sequence

from bchnest.identities import (
    _cleared,
    _echelon,
    _eliminate,
    _identity_rows,
    _tail_rows,
    _to_int,
    enumerate_nested,
)
from bchnest.terms import Leaves, LieExpr

_COMPACT_BUDGET = 10000


# A search block: integer numerators over one positive denominator, in
# lowest terms, keyed by each commutator's index in its X-count block's lex
# order, so indices sort as the commutators do.
Block = tuple[dict[int, int], int]

# A block's values as its (index, numerator) pairs in index order, flattened
# to one tuple, and its denominator: its node's key in a block search's
# table, and what ranking compares.
Key = tuple[tuple[int, ...], int]

# A relation of a block search: a primitive identity on commutator indices,
# the bitmask of its support, its least index, and its ratio weights: each
# (index, L // v) for its value v there, in its order, where L is the lcm
# of its values' sizes.  Two indices k, j hold equal ratios t_k / v_k and
# t_j / v_j in a block exactly when t_k * w_k == t_j * w_j.
Relation = tuple[dict[int, int], int, int, tuple[tuple[int, int], ...]]


class _SearchBlock(NamedTuple):
    """One X-count block of a grade as its searches see it.

    Its commutators in lex order and each one's index there, its identities
    as relations in the report's order, the pivot rows by index of the
    basis rewrite (the identities by dependent commutator) and of the
    grade-4 and grade-6 tail rules, and the bitmask of their dependent
    commutators.  A relation's dependent commutator is its greatest index,
    the top bit of its support.  coords holds each index the relations
    touch, in increasing order, with its coordinates over the touched basis
    commutators, up to a positive factor: a basis
    commutator is a unit vector, a dependent one minus the rest of its
    relation.  reps holds, in increasing order, the least index of each
    class of parallel coordinates, those with one primitive vector up to
    sign.
    """

    comms: tuple[Leaves, ...]
    index: dict[Leaves, int]
    rels: tuple[Relation, ...]
    rules: tuple[dict[int, dict[int, int]], ...]
    dependents: int
    coords: dict[int, dict[int, int]]
    reps: tuple[int, ...]
    dependent_classes: tuple[Relation, ...]


class _Node:
    """One distinct block value met by a block search, and what is known of it.

    key is the block's sorted values, the node's key in its table.  step is
    the node ``_step`` leads to, None when no move ranks first, and False
    until it is computed.  A step leads to a node that ranks strictly
    first, so steps link the table's nodes without a cycle, and the table
    is freed as soon as its block's search drops it.  The block is shared
    by every path that reaches the node, so no search code changes a block
    in place; moves and samples work on copies.
    """

    __slots__ = ("block", "key", "step")

    def __init__(self, block: Block, key: Key) -> None:
        self.block = block
        self.key = key
        self.step: _Node | None | Literal[False] = False


# One block search's table of interned blocks, by key.
Table = dict[Key, _Node]


def _key(block: Block) -> Key:
    return tuple(chain.from_iterable(sorted(block[0].items()))), block[1]


def _node(table: Table, block: Block, key: Key | None = None) -> _Node:
    # The table's node for block's values, made on first meeting them.
    if key is None:
        key = _key(block)
    node = table.get(key)
    if node is None:
        node = table[key] = _Node(block, key)
    return node


def _ranks_before(a: Key, b: Key) -> bool:
    # Deterministic order on blocks: fewer terms first, ties broken by the
    # sorted (index, value) list, values compared by cross-multiplying.
    (an, ad), (bn, bd) = a, b
    if len(an) != len(bn):
        return len(an) < len(bn)
    if ad == bd:
        return an < bn
    for i in range(0, len(an), 2):
        if an[i] != bn[i]:
            return an[i] < bn[i]
        va, vb = an[i + 1] * bd, bn[i + 1] * ad
        if va != vb:
            return va < vb
    return False


def _move(block: Block, rel: dict[int, int], col: int) -> Block:
    nums = dict(block[0])
    return nums, _eliminate(nums, rel, col, block[1])


def _step(node: _Node, rels: Sequence[Relation], table: Table) -> _Node | None:
    # One steepest-descent step: the node of the single-relation move that
    # ranks first, or None if none ranks before node's block.  The move
    # t -> t - (t_c / r_c) * r at key c cancels exactly the shared keys k of
    # equal ratio t_k / r_k, those of equal t_k * w_k with the relation's
    # ratio weights, and adds every key of r the block lacks; so one pass
    # over the weights sizes all of a relation's distinct moves, each taken
    # at the first key it cancels.  Blocks rank by size first, so only the
    # distinct moves of the least size count; a relation is skipped when
    # cancelling every key it shares with the block still grows it past
    # that size.  While no move shortens the block, a move is kept only if
    # it ranks before the block, and only at the least low met: a move
    # changes exactly its relation's keys, so it ranks before the block iff
    # at the least of them, low, it adds a term or leaves t - x / r with
    # 0 < x / r != t, where t = nums[low], x = nums[col] * rel[low] and
    # r = rel[col], and such a move also ranks before every such move of a
    # larger low.  Only the moves kept are built, and the first in rank is
    # the step whatever order they are met in: a function of the block's
    # values alone, whatever its key order.
    nums = node.block[0]
    get = nums.get
    mask = sum(1 << k for k in nums)
    least = 0
    lowest: int | None = None
    fewest: list[tuple[dict[int, int], int]] = []
    for rel, support, low, weights in rels:
        shared = (mask & support).bit_count()
        added = len(rel) - shared
        if added - shared > least:
            continue
        # Each distinct move's first key by its ratio t * w, and the number
        # of keys cancelled by each move that cancels more than one.
        firsts: dict[int, int] = {}
        counts: dict[int, int] = {}
        for k, w in weights:
            t = get(k)
            if t is not None:
                ratio = t * w
                if ratio in firsts:
                    counts[ratio] = counts.get(ratio, 1) + 1
                else:
                    firsts[ratio] = k
        for ratio, col in firsts.items():
            delta = added - counts.get(ratio, 1)
            if delta > least:
                continue
            if delta < least:
                least, fewest = delta, [(rel, col)]
            elif least:
                fewest.append((rel, col))
            elif lowest is None or low <= lowest:
                t, x, r = get(low), nums[col] * rel[low], rel[col]
                if t is None or (x * r > 0 and x != t * r):
                    if low == lowest:
                        fewest.append((rel, col))
                    else:
                        lowest, fewest = low, [(rel, col)]
    best: tuple[Block, Key] | None = None
    for rel, col in fewest:
        move = _move(node.block, rel, col)
        key = _key(move)
        if best is None or _ranks_before(key, best[1]):
            best = move, key
    return None if best is None else _node(table, *best)


def _descend(
    node: _Node,
    rels: Sequence[Relation],
    meter: list[int],
    budget: int,
    table: Table,
) -> _Node:
    # Steepest descent: ``_step`` until no move ranks first or the budget
    # runs out.  Each node's step is computed once per search and followed
    # after that, so a descent that reaches a node already descended from
    # follows the stored chain.  The meter counts adopted steps, followed or
    # computed, so a descent cut short stops at the same block either way.
    while meter[0] < budget:
        nxt = node.step
        if nxt is False:
            nxt = node.step = _step(node, rels, table)
        if nxt is None:
            break
        meter[0] += 1
        node = nxt
    return node


def _weights(rel: dict[int, int]) -> tuple[tuple[int, int], ...]:
    # A relation's ratio weights (see Relation).
    scale = lcm(*map(abs, rel.values()))
    return tuple((k, scale // v) for k, v in rel.items())


@lru_cache(maxsize=None)
def _search_blocks(m: int) -> dict[int, _SearchBlock]:
    # The X-count blocks of grade m that hold an identity, by X-count.
    comms: dict[int, list[Leaves]] = {}
    for c in enumerate_nested(m):
        comms.setdefault(c.count(0), []).append(c)
    tables = (_identity_rows(m), _tail_rows(m, 4), _tail_rows(m, 6))
    blocks = {}
    for key in dict.fromkeys(dep.count(0) for dep in tables[0]):
        index = {c: i for i, c in enumerate(comms[key])}
        rules = tuple(
            {
                index[c]: {index[l]: v for l, v in row.items()}
                for c, row in table.items()
                if c in index
            }
            for table in tables
        )
        solved = rules[0]
        rels = tuple(
            (r, sum(1 << i for i in r), min(r), _weights(r)) for r in solved.values()
        )
        support = tuple(sorted({i for r in solved.values() for i in r}))
        dependents = sum(1 << d for d in solved)
        coords = {
            i: {j: -v for j, v in solved[i].items() if j != i} if i in solved
            else {i: 1}
            for i in support
        }
        # Each class of parallel coordinates by its primitive vector, signed
        # positive at its least key, and the class's least index.
        classes: dict[tuple[tuple[int, int], ...], int] = {}
        for i in support:
            vec = coords[i]
            g = gcd(*vec.values()) * (1 if vec[min(vec)] > 0 else -1)
            classes.setdefault(tuple(sorted((j, v // g) for j, v in vec.items())), i)
        reps = tuple(classes.values())
        by_dependent = {max(rel[0]): rel for rel in rels}
        blocks[key] = _SearchBlock(
            tuple(comms[key]), index, rels, rules, dependents, coords,
            reps, tuple(by_dependent[i] for i in reps if i in by_dependent),
        )
    return blocks


# Held to extend a list of ``_sampled_pivots``, so that searches of one
# block in several threads shuffle its generator in turn and learn each
# sample index once.
_LEARNING = threading.Lock()


class _Samples(list):
    """The pivot sets of a block's sampled bases learned so far, by index,
    and the generator whose next shuffle picks the next one."""

    __slots__ = ("rng",)


@lru_cache(maxsize=None)
def _sampled_pivots(m: int, key: int) -> _Samples:
    # The pivot set of each sampled basis of block key at grade m reached so
    # far in this process, as a bitmask, by sample index, with the block's
    # one generator.  Threads that first call this at once may each get a
    # list of their own, of which the cache keeps one: that loses what the
    # others learn, never a result.
    samples = _Samples()
    samples.rng = random.Random(m * 1009 + key)
    return samples


def _sample_cols(samples: _Samples, search: _SearchBlock, k: int) -> int:
    # Sample k's pivot set, learning the ones up to it in order: each is
    # ``_pivot_set`` of the next shuffle of the block's support.
    if k >= len(samples):
        with _LEARNING:
            while len(samples) <= k:
                perm = list(search.coords)
                samples.rng.shuffle(perm)
                samples.append(_pivot_set(search, perm))
    return samples[k]


def _pivot_set(search: _SearchBlock, order: Iterable[int]) -> int:
    # The support indices left out of the lex-first independent subset of
    # search.coords in order, as a bitmask: those off the basis the search
    # picks by order.  By matroid duality they are the pivot columns an
    # echelon pass over the block's relations takes in the reverse order.
    # An index repeated in order is dependent the second time.
    rank = len(search.coords) - len(search.rels)
    rows: dict[int, dict[int, int]] = {}
    cols = sum(1 << i for i in search.coords)
    for i in order:
        if len(rows) == rank:
            break
        vec, _ = _cleared((search.coords[i], 0), rows)
        if vec:
            rows[next(iter(vec))] = vec
            cols ^= 1 << i
    return cols


def _sampled_block(base: Block, search: _SearchBlock, cols: int) -> Block:
    # The one block equivalent to base and zero on the pivot set cols.
    # base must be zero on every dependent commutator: a relation is +1 on
    # its dependent commutator and otherwise on basis ones, so clearing
    # cols may use only the relations whose dependent commutator is not in
    # cols, and those need only clear cols' basis commutators.
    free = [
        dict(r) for r, support, _, _ in search.rels
        if not cols >> (support.bit_length() - 1) & 1
    ]
    basis_cols = cols & ~search.dependents
    pivots = _echelon(free, (i for i in search.coords if basis_cols >> i & 1))
    return _cleared(base, pivots)


def _proven_first(
    node: _Node, base: Block, search: _SearchBlock, allowance: int
) -> bool:
    # True when no block equivalent to node's ranks before it: a search
    # replaces its best only by a block that ranks before it, so such a
    # best is final.  Terms off the support are the same in every
    # equivalent block and change no ranking, so only node's s terms on the
    # support count.  Commutators whose coordinates are parallel span one
    # line, and moving a term from one to the least of its class, search.reps,
    # keeps the size and lowers an index: so a node holding a later member
    # of a class is not first.  Otherwise node is refuted exactly by the one
    # representation on an independent set T of classes that spans the
    # target, base's values on the support, when |T| < s, or |T| = s and T
    # starts below node's least term, or starts there and its block ranks
    # before node's: a representation on a dependent set has one with fewer
    # terms.  Both sides below find every such T.  ``_walked_sets`` walks
    # the independent sets of at most s classes and ranks a tie by its set's
    # block from ``_sampled_block``; ``_solved_cases`` solves every basis of
    # classes, counted from the d dependent classes, by clearing the case's
    # basis commutators from the target with the elimination kernel, one
    # column at a time, and ranks each case by its values on the support
    # against node's there.  The dependent side decides when d is at most 2
    # and its comb(n, d) cases are fewer than the sets the walk visits
    # below s.  Not tried, and False, when the sets to walk may outnumber
    # allowance.  The guard keeps the walk's count although the dependent
    # side may solve fewer cases: a guard on the cases would try proofs the
    # walk never did, so searches would stop at other meter steps and reach
    # other samples, with the same results.
    n = len(search.reps)
    nums = node.block[0]
    s = sum(i in search.coords for i in nums)
    walked = sum(comb(n, k) for k in range(s))
    if walked + comb(n, s) > allowance:
        return False
    target = {i: v for i, v in base[0].items() if i in search.coords}
    if not target:
        return not s
    held = [p for p, i in enumerate(search.reps) if i in nums]
    if len(held) < s:
        return False
    d = len(search.dependent_classes)
    if d <= 2 and comb(n, d) < walked:
        return _solved_cases(node, base, search, target, held)
    return _walked_sets(node, base, search, target, held)


def _walked_sets(
    node: _Node, base: Block, search: _SearchBlock, target: dict[int, int],
    held: list[int],
) -> bool:
    # The proof's class walk: the independent sets of at most s of reps in
    # increasing order, with forward echelon rows of their coordinates and
    # the target reduced by them, held being node's positions in reps.  It
    # fails when the target lies in the span of fewer than s, or of s whose
    # least is below least, node's least position in reps.  On s whose
    # least is least, the one equivalent block is zero off the basis
    # ``_pivot_set`` extends them to; ``_sampled_block`` clears it from base
    # to rank it against node's.  Sets of s whose least is above least are
    # not walked: their block ranks after node's, or lies on a smaller set.
    reps = search.reps
    vectors = [search.coords[i] for i in reps]
    n, s, least = len(vectors), len(held), held[0]
    # The set walked, as positions in reps, its echelon rows, the target
    # reduced by each prefix of them, and the next position to try.
    chosen: list[int] = []
    rows: dict[int, dict[int, int]] = {}
    rests = [target]
    p = 0
    while True:
        size = len(chosen) + 1
        first = chosen[0] if chosen else p
        if p == n or (size == s and first > least):
            # Every extension of chosen is walked: drop its last position.
            if not chosen:
                return True
            p = chosen.pop() + 1
            rows.popitem()
            rests.pop()
            continue
        vec, _ = _cleared((vectors[p], 0), rows)
        if vec:
            col = next(iter(vec))
            left, _ = _cleared((rests[-1], 0), {col: vec})
            if not left:
                if size < s or first != least:
                    return False
                if chosen + [p] != held:
                    order = (reps[q] for q in (*chosen, p, *range(n)))
                    block = _sampled_block(base, search, _pivot_set(search, order))
                    if _ranks_before(_key(block), node.key):
                        return False
            elif size < s:
                chosen.append(p)
                rows[col] = vec
                rests.append(left)
        p += 1


def _solved_cases(
    node: _Node, base: Block, search: _SearchBlock, target: dict[int, int],
    held: list[int],
) -> bool:
    # The proof from the dependent side, for d <= 2.  Classes are r unit
    # ones, the basis commutators, and d dependent ones, each with a
    # relation +1 on its dependent commutator, and base is zero on every
    # dependent commutator.  So a representation is the target less mu_D
    # times the relation of each dependent class D: -mu_D on D, the rest on
    # basis commutators.  Each case is a set D of j dependent classes with j
    # basis commutators Z whose j x j minor of D's relations is nonzero: its
    # one representation, zero on Z, lies on the basis of classes D and the
    # units off Z.  There are sum_j C(d, j) C(r, j) = C(n, d) cases, and
    # every independent set that spans the target extends to one of these
    # bases, so they reach every T the walk can.  A representation whose
    # zero set on the basis commutators has deficient rank against its
    # dependent classes lies on a dependent set: moving along its kernel
    # clears one of those classes, so a case with fewer dependent classes
    # has strictly fewer terms.  So both sides decide exactly the same.
    # Every block equivalent to node's agrees with base off the support, so
    # the first difference of two such blocks' keys falls on the support: a
    # case, its values on the support, ranks against node's block as it
    # ranks against own, node's values there; a case of more than s terms
    # never does.  A case on node's own classes with other values occurs
    # only when those classes are dependent, and then a case with fewer
    # terms refutes node anyway.  The kernel clears every case, one column
    # at a time, so each is the target less a combination of relations,
    # over a positive denominator in lowest terms.  j = 1 clears a basis
    # commutator z1 of a relation rel from the target.  j = 2 clears z1
    # from a copy of a later relation, then each basis commutator z2 left
    # in the copy from that j = 1 case: the copy's entry at z2 is the minor
    # on z1 and z2 up to a nonzero factor, and every pair with a nonzero
    # minor has a member in rel, met as z1.  Blocks of more dependent
    # classes keep the walk, which proves them in the series compactions
    # through grade 9: grade 8's 11-class blocks (d = 4) have fewer cases
    # than sets only from five terms, where the walk's 1 024 sets exceed
    # the library workload's budget of 1 000, so solving j >= 3 would speed
    # no measured search.
    nums, nden = node.block
    s = len(held)
    own = _key(({i: v for i, v in nums.items() if i in search.coords}, nden))

    def before(block: Block) -> bool:
        return len(block[0]) <= s and _ranks_before(_key(block), own)

    start = (target, base[1])
    if before(start):
        return False
    rels = [rel for rel, *_ in search.dependent_classes]
    dependents = search.dependents
    for a, rel in enumerate(rels):
        for z1 in rel:
            if dependents >> z1 & 1:
                continue
            one = _cleared(start, {z1: rel})
            if before(one):
                return False
            for other in rels[a + 1:]:
                pair = dict(other)
                if z1 in pair:
                    _eliminate(pair, rel, z1)
                for z2 in pair:
                    if not dependents >> z2 & 1 and before(_cleared(one, {z2: pair})):
                        return False
    return True


def _sample_bases(
    start: _Node,
    base: Block,
    search: _SearchBlock,
    samples: _Samples,
    meter: list[int],
    share: int,
    table: Table,
) -> _Node:
    # Rewrite onto bases drawn at random, until three fifths of the block's
    # meter share is spent: a shuffle picks which commutators get
    # eliminated, its last first, and each resulting representation is
    # polished by descent.  Samples representations far apart in move
    # distance, which descent alone cannot reach.  The k-th basis is
    # samples' k-th pivot set, learned on first use.  Each pivot set met is
    # cleared once, from base (zero on every dependent commutator), and met
    # again descends from its cleared node along the stored steps, metered
    # alike; its end was compared with a best that has only improved since.
    # A new best proven rank-first spends the whole share, ending the search.
    best = start
    rels = search.rels
    budget = share * 3 // 5
    cleared: dict[int, _Node] = {}
    sample = 0
    while meter[0] < budget:
        meter[0] += 1
        cols = _sample_cols(samples, search, sample)
        sample += 1
        node = cleared.get(cols)
        if node is None:
            node = cleared[cols] = _node(table, _sampled_block(base, search, cols))
        cand = _descend(node, rels, meter, budget, table)
        if _ranks_before(cand.key, best.key):
            best = cand
            if _proven_first(best, base, search, share - meter[0]):
                meter[0] = share
    return best


def compact_reduce(expr: LieExpr, m: int, budget: int = _COMPACT_BUDGET) -> LieExpr:
    """Budgeted search for a same-element representation with fewer terms.

    Exact: it moves only along the grade's identities, so the result is the
    input's element.  Deterministic: identical input and budget give
    identical output, whatever earlier calls in the process have learned.
    At any budget, 0 included, no X-count block of the result ranks after
    the input's block or any seed's (the basis rewrite, both tail-rule
    regimes and a largest-coefficient-first elimination), so the result is
    never longer than the input or any seed; terms no identity touches are
    kept as they are.  The budget meters steps, one per sampled basis and
    one per adopted descent step, shared among the X-count blocks by their
    identity counts; a negative budget is refused.  A block whose best is
    proven to rank first among all representations of its element (fewest
    terms, then the order on indices and values) stops there, and that
    best is a shortest one; no other optimality is claimed.  The module
    docstring describes the design.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if not expr:
        return expr
    if expr.grade() != m:
        raise ValueError(f"expression grade {expr.grade()} != {m}")
    if m < 2:
        return expr
    blocks = _search_blocks(m)
    if not blocks:
        return expr

    parts: dict[int, dict[Leaves, Fraction]] = {}
    for leaves, c in expr.terms.items():
        parts.setdefault(leaves.count(0), {})[leaves] = c

    out: dict[Leaves, Fraction] = {}
    total_rels = sum(len(blocks[k].rels) for k in parts if k in blocks)
    for key in sorted(parts):
        if key not in blocks:
            out.update(parts[key])
            continue
        search = blocks[key]
        comms, index, rels = search.comms, search.index, search.rels
        terms: dict[int, Fraction] = {}
        for leaves, c in parts[key].items():
            if leaves in index:
                terms[index[leaves]] = c
            else:
                out[leaves] = c  # no identity touches it
        start = _to_int(terms)
        # Each seed is the one block equivalent to start and zero on a
        # rewrite's pivots, so it equals that rewrite's block.  The first,
        # the basis rewrite, is zero on every dependent commutator.
        table: Table = {}
        best = _node(table, start)
        nums = start[0]
        heavy = sorted(search.coords, key=lambda i: abs(nums.get(i, 0)))
        seeds = [_cleared(start, pivots) for pivots in search.rules]
        seeds.append(_sampled_block(seeds[0], search, _pivot_set(search, heavy)))
        for seed in seeds:
            cand = _node(table, seed)
            if _ranks_before(cand.key, best.key):
                best = cand
        # Each block has its own meter share, and a best seed proven
        # rank-first, an empty one included, is not searched.
        share = max(1, budget * len(rels) // max(1, total_rels))
        if not _proven_first(best, seeds[0], search, share):
            meter = [0]
            best = _sample_bases(
                best, seeds[0], search, _sampled_pivots(m, key), meter, share, table
            )
            best = _descend(best, rels, meter, share, table)
        nums, den = best.block
        out.update((comms[i], Fraction(v, den)) for i, v in nums.items())
    return LieExpr._from_clean(out)
