"""Module layering: the search's home, the re-exports and import order."""

import os
import subprocess
import sys

import pytest

import bchnest
from bchnest import identities, search

# The names bchnest/__init__.py took from bchnest.identities before the
# compaction search moved to bchnest.search, and the default budget.
IDENTITIES_EXPORTS = (
    "ExactMatrix",
    "IdentityReport",
    "REFERENCE_COUNTS",
    "TABLE_MODES",
    "apply_regime",
    "apply_rules",
    "compact_bch_term",
    "compact_reduce",
    "enumerate_nested",
    "full_reduce",
    "gauss_jordan",
    "identities_and_basis",
    "lifted_identities",
    "lifted_rules",
    "relation_rules",
    "rewrite_in_basis",
    "series_term",
    "table_counts",
    "_COMPACT_BUDGET",
)

# Search helpers that tests patch, which live in bchnest.search only.
SEARCH_ONLY = (
    "_descend",
    "_move",
    "_pivot_set",
    "_proven_first",
    "_sample_bases",
    "_sample_cols",
    "_sampled_block",
    "_sampled_pivots",
    "_search_blocks",
    "_solved_cases",
    "_step",
    "_walked_sets",
    "random",
)


@pytest.mark.parametrize(
    "module", ["bchnest.search", "bchnest.identities", "bchnest.series", "bchnest.cli"]
)
def test_each_module_imports_first(module):
    src = os.path.dirname(os.path.dirname(bchnest.__file__))
    code = (
        f"import {module}\n"
        "from bchnest.identities import compact_reduce, _COMPACT_BUDGET\n"
        "import bchnest.search\n"
        "assert compact_reduce is bchnest.search.compact_reduce\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_imports_from_the_package():
    for name in bchnest.__all__:
        assert hasattr(bchnest, name), name


def test_identities_keeps_its_exports():
    for name in IDENTITIES_EXPORTS:
        assert hasattr(identities, name), name
    assert identities.compact_reduce is search.compact_reduce
    assert identities._COMPACT_BUDGET == search._COMPACT_BUDGET


def test_search_helpers_live_in_search_only():
    # A patch left on bchnest.identities fails instead of patching nothing.
    for name in SEARCH_ONLY:
        assert hasattr(search, name), name
        assert not hasattr(identities, name), name


def test_identities_binds_the_search_by_import():
    # One module-level import, not a lookup on each use.
    names = vars(identities)
    assert names["compact_reduce"] is search.compact_reduce
    assert names["_COMPACT_BUDGET"] == search._COMPACT_BUDGET
    assert "__getattr__" not in names
