"""Rewrite the golden CLI documents in this directory from the current checkout.

    python tests/golden/regen.py

Each case in ``CASES`` is one ``bchnest`` command line whose stdout is stored
byte for byte under ``<name>``; a case named ``*.sha256`` stores only the
sha256 hex digest of the document (for outputs too large to commit).
``tests/test_golden.py`` renders the same cases and compares bytes.  Only the
cases whose bytes differ are written, and each case prints ``changed NAME``
or ``unchanged NAME``, so a change that means to move one golden shows that
it moved exactly that one.  Run this only in a change that means to alter
output, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    formats = (("txt", "text"), ("json", "json"), ("tex", "latex"))
    for grade, regime in (
        (9, "none"), (9, "grade4"), (9, "grade6"), (9, "full"), (8, "compact"),
    ):
        for ext, fmt in formats:
            cases[f"bch-{grade}-{regime}.{ext}"] = [
                "bch", "--grade", str(grade), "--regime", regime, "--format", fmt,
            ]
    for grade in (9, 10):
        cases[f"bch-{grade}-compact.json"] = [
            "bch", "--grade", str(grade), "--regime", "compact", "--format", "json",
        ]
    # Grade-9 symmetric full runs as long as the compact case, which pins
    # the compacted plain inputs both assemble from.
    for grade, regime in (
        (9, "none"), (9, "grade4"), (9, "grade6"), (7, "full"), (7, "compact"),
        (9, "compact"),
    ):
        cases[f"symbch-{grade}-{regime}.json"] = [
            "symbch", "--grade", str(grade), "--regime", regime, "--format", "json",
        ]
    # The text and LaTeX layouts of the symmetric, identity and table
    # documents, one small case each.
    for ext, fmt in (("txt", "text"), ("tex", "latex")):
        cases[f"symbch-7-compact.{ext}"] = [
            "symbch", "--grade", "7", "--regime", "compact", "--format", fmt,
        ]
        cases[f"identities-6.{ext}"] = [
            "identities", "--grade", "6", "--format", fmt,
        ]
        cases[f"table-8.{ext}"] = ["table", "--max-grade", "8", "--format", fmt]
    cases["bch-7-vars3.json"] = [
        "bch", "--grade", "7", "--vars", "3", "--format", "json",
    ]
    for grade in range(2, 10):
        cases[f"identities-{grade}.json"] = [
            "identities", "--grade", str(grade), "--format", "json",
        ]
    cases["identities-10.json.sha256"] = [
        "identities", "--grade", "10", "--format", "json",
    ]
    cases["table-8.json"] = ["table", "--max-grade", "8", "--format", "json"]
    return cases


CASES = _cases()


def render(argv: list[str]) -> bytes:
    """Stdout of one in-process CLI run, as stored in a golden file."""
    from bchnest import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"bchnest {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def golden_bytes(name: str, argv: list[str]) -> bytes:
    """What the golden file for a case holds: the document or its digest."""
    doc = render(argv)
    if name.endswith(".sha256"):
        return (hashlib.sha256(doc).hexdigest() + "\n").encode("ascii")
    return doc


def main() -> int:
    for name, argv in CASES.items():
        path = HERE / name
        doc = golden_bytes(name, argv)
        if path.exists() and path.read_bytes() == doc:
            print(f"unchanged {name}")
        else:
            path.write_bytes(doc)
            print(f"changed {name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
