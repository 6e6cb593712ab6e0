"""The reduce-library workload's set-up and call, shared by the worker
process and the in-process replay.  Importing this module imports bchnest."""

from __future__ import annotations

from fractions import Fraction

# Called through the module so that the traced replay's wrappers apply.
from bchnest import identities
from bchnest.terms import LieExpr

from workloads import LIBRARY_BUDGET, LIBRARY_GRADES


def setup() -> None:
    """Build the identity tables a library user warms before calling."""
    for m in LIBRARY_GRADES:
        report = identities.identities_and_basis(m)
        # One nonzero rewrite builds the grade's basis rules.
        identities.rewrite_in_basis(LieExpr({report.commutators[-1]: 1}), report)
        identities.lifted_rules(m, 4)
        identities.lifted_rules(m, 6)


def call(m: int, expr: LieExpr) -> str:
    """One request: basis rewrite, full reduction and compaction, serialized."""
    outputs = (
        identities.rewrite_in_basis(expr, identities.identities_and_basis(m)),
        identities.full_reduce(expr, m),
        identities.compact_reduce(expr, m, LIBRARY_BUDGET),
    )
    return "\n".join(serialize(e.terms) for e in outputs)


def serialize(terms: dict[tuple[int, ...], Fraction]) -> str:
    """Canonical text of a term map: 'leaves:coeff' in sorted order."""
    return " ".join(
        "".join(map(str, leaves)) + ":" + str(c) for leaves, c in sorted(terms.items())
    )
