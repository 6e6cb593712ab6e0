"""Workload definitions: the CLI request mixes and the seeded library inputs.

The CLI requests are fixed; the seed only sets their order within each pass.
The library inputs are drawn from the seed: homogeneous two-generator
expressions of grades 6-8 on random supports, with nonzero numerators in
-9..9 over denominators 1..12.  Each pass holds the same number of
expressions per grade and the same support size per grade, so the mix of
cheap and dear calls (and the grade a percentile lands in) does not depend
on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

CLI_WORKLOADS: dict[str, list[list[str]]] = {
    # bch_term's (m-1)! permutation loop does nearly all the work; the
    # three-generator request drives it with more distinct letters and the
    # symmetric request reuses lower grades through bch_term's cache.
    "assembly": [
        ["bch", "--grade", "10", "--format", "json"],
        ["bch", "--grade", "9", "--vars", "3", "--format", "json"],
        ["symbch", "--grade", "9"],
    ],
    # Exact elimination, lifts and rules; skips the permutation loop and the
    # search, so it is the no-change workload for assembly and search work.
    "identities": [
        ["identities", "--grade", "10", "--format", "json"],
        ["identities", "--grade", "9"],
        ["bch", "--grade", "8", "--regime", "full"],
        ["bch", "--grade", "8", "--regime", "grade6"],
    ],
    # The compaction search dominates; output_terms catches speed bought
    # with answer quality.  Grade 8, not 9: a grade-9 request runs 8-15 s,
    # so a run would hold only one or two samples of it.
    "compact": [
        ["bch", "--grade", "8", "--regime", "compact", "--format", "json"],
        ["symbch", "--grade", "7", "--regime", "compact"],
    ],
}

LIBRARY = "reduce-library"
WORKLOADS = tuple(CLI_WORKLOADS) + (LIBRARY,)

LIBRARY_GRADES = (6, 7, 8)
LIBRARY_PER_GRADE = 34
# Below the library default of 10000, so a run holds well over a hundred
# calls; the same fixed value on every commit.
LIBRARY_BUDGET = 1000
# Enough calls per run that ten lie beyond the 90th percentile.
LIBRARY_MIN_CALLS = 100
_NUMERATORS = tuple(n for n in range(-9, 10) if n)


def cli_pass_order(requests: list[list[str]], rng: random.Random) -> list[int]:
    """Seeded order of the request indices for one pass."""
    order = list(range(len(requests)))
    rng.shuffle(order)
    return order


def library_inputs(seed: int) -> list[tuple[int, dict[tuple[int, ...], Fraction]]]:
    """The seeded (grade, terms) requests of one reduce-library pass.

    Leaves are canonical right-nested commutators on {X, Y}: any prefix over
    {0, 1} followed by the innermost pair (0, 1).  Support size is 3/8 of the
    grade's 2^(m-2) commutators.
    """
    rng = random.Random(seed)
    requests = []
    for m in LIBRARY_GRADES:
        commutators = [prefix + (0, 1) for prefix in product((0, 1), repeat=m - 2)]
        size = len(commutators) * 3 // 8
        for _ in range(LIBRARY_PER_GRADE):
            support = rng.sample(commutators, size)
            terms = {
                leaves: Fraction(rng.choice(_NUMERATORS), rng.randint(1, 12))
                for leaves in support
            }
            requests.append((m, terms))
    rng.shuffle(requests)
    return requests
