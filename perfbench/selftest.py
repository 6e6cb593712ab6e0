"""Self-test of the exactness gate.

    python3 perfbench/selftest.py

For each output format the benchmark checks, take a real output, double one
coefficient, and tally the true and the corrupted output as two attempted
requests.  The gate must pass the first and fail the second, so the tally
reads attempted 2, failed 1.  Exits 0 when every case behaves so.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bchnest import cli  # noqa: E402
from bchnest.terms import LieExpr  # noqa: E402

import library  # noqa: E402
from gate import Gate, Instance  # noqa: E402
from workloads import library_inputs  # noqa: E402

CLI_CASES = [
    ["bch", "--grade", "6", "--format", "json"],
    ["bch", "--grade", "5", "--vars", "3", "--format", "json"],
    ["bch", "--grade", "6", "--regime", "grade6"],
    ["symbch", "--grade", "5"],
    ["identities", "--grade", "6", "--format", "json"],
    ["identities", "--grade", "6"],
]


def _double(token: str) -> str:
    return str(Fraction(token) * 2)


def corrupt(text: str) -> str:
    """Double the coefficient of the last term of the last expression."""
    try:
        doc = json.loads(text)
    except ValueError:
        lines = text.splitlines()
        tokens = lines[-1].split(" ")
        at = len(tokens) - (3 if tokens[-2:] == ["=", "0"] else 1)  # the symbol
        if re.fullmatch(r"-?\d+(/\d+)?", tokens[at - 1]):
            tokens[at - 1] = _double(tokens[at - 1])
        else:
            tokens.insert(at, "2")
        return "\n".join(lines[:-1] + [" ".join(tokens)]) + "\n"
    entry = (doc["identities"][-1] if "identities" in doc else doc["terms"])[-1]
    entry["coeff"] = _double(entry["coeff"])
    return json.dumps(doc, indent=2) + "\n"


def _cli_output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(argv) != 0:
            raise RuntimeError(f"{argv} failed")
    return buf.getvalue()


def main() -> int:
    gate = Gate()
    cases = []
    for argv in CLI_CASES:
        true = _cli_output(argv)
        cases.append((" ".join(argv), true, corrupt(true), lambda k, c, a=argv: gate.check_cli(a, c)))
    m, terms = library_inputs(1)[0]
    true = library.call(m, LieExpr(terms))
    rewrite, full, compact = true.split("\n")
    leaves, coeff = compact.split(" ")[0].split(":")
    bad_compact = " ".join([f"{leaves}:{_double(coeff)}"] + compact.split(" ")[1:])
    cases.append(
        (
            f"library grade {m}",
            true,
            "\n".join([rewrite, full, bad_compact]),
            lambda k, c: gate.check_library(m, terms, c),
        )
    )

    ok = True
    for name, true, bad, check in cases:
        tally = gate.tally([Instance(0, true), Instance(1, bad)], check)
        fired = (tally.attempted, tally.failed) == (2, 1) and bool(tally.reasons)
        ok = ok and fired
        print(f"{'ok ' if fired else 'BAD'} {name}: attempted {tally.attempted}, failed {tally.failed}")
        for reason in tally.reasons:
            print(f"    {reason}")
    print("gate self-test passed" if ok else "gate self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
