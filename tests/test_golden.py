"""Byte-exact CLI documents against the files in tests/golden/.

Term-count bounds cannot see a refactor that changes which representation
the search returns or how a document is laid out; these files can.  They are
rewritten only by ``python tests/golden/regen.py``, in a change that means to
alter output.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_document(name):
    expected = (GOLDEN / name).read_bytes()
    assert regen.golden_bytes(name, regen.CASES[name]) == expected
