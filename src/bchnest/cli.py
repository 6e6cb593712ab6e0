"""Command line front end.

Four subcommands: ``bch`` prints the series terms grade by grade, ``symbch``
does the same for the symmetric product exp(X/2) exp(Y) exp(X/2),
``identities`` prints the commutator basis and identity list for one grade,
and ``table`` reproduces the published term-count table next to the counts
this build computes.  Formats: plain text, JSON (rationals as "p/q" strings,
never floats), and LaTeX (nested brackets or the comma-list shorthand
[X,X,Y,X,Y]).  Output is deterministic: identical flags give byte-identical
documents.

Exit codes: 0 success, 1 usage error, 2 verification failure (--verify
checks what is printed and emits nothing on a mismatch: bch, symbch and
table cross-check the series routes at every grade up to the requested one,
table only when it prints a row that counts series terms, bch and symbch
the word expansion of every printed grade, table its dim row against
Witt's formula; identities checks its basis size and novel count against
Witt's formula and that every printed identity expands to zero),
3 the --output file or stdout cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from typing import Callable

from bchnest import __version__
from bchnest.identities import (
    REFERENCE_COUNTS,
    TABLE_MODES,
    IdentityReport,
    identities_and_basis,
    lifted_identities,
    series_term,
    table_counts,
)
from bchnest.series import bch_term, bch_term_dynkin, log_product
from bchnest.terms import (
    AssocPoly,
    Leaves,
    LieExpr,
    Word,
    accumulate,
    expand_lie,
    expand_nested,
)

GRADE_CAP = 10
GENERATORS = "XYZWVUTSRQ"
FORMATS = ("text", "json", "latex")
TABLE_ROWS = tuple(REFERENCE_COUNTS)


class VerificationError(Exception):
    """Raised when --verify finds a printed result disagreeing with its check."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for verification
    # failures here, so remap.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _leaf_names(leaves: Leaves) -> list[str]:
    return [GENERATORS[i] for i in leaves]


def _bracket(leaves: Leaves, style: str = "nested") -> str:
    names = _leaf_names(leaves)
    if len(names) == 1:
        return names[0]
    if style == "flat":
        return "[" + ",".join(names) + "]"
    out = names[-1]
    for name in reversed(names[:-1]):
        out = f"[{name},{out}]"
    return out


def _text_mag(mag: Fraction) -> str:
    return "" if mag == 1 else f"{mag} "


def _latex_mag(mag: Fraction) -> str:
    if mag == 1:
        return ""
    if mag.denominator == 1:
        return f"{mag.numerator}\\,"
    return f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}\\,"


def _signed_join(
    pieces: list[tuple[Fraction, str]],
    mag_str: Callable[[Fraction], str] = _text_mag,
) -> str:
    """Join (coefficient, symbol) pieces into '+/-' separated text."""
    if not pieces:
        return "0"
    chunks = []
    for i, (c, sym) in enumerate(pieces):
        body = mag_str(abs(c)) + sym
        if i == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" {'+' if c > 0 else '-'} {body}")
    return "".join(chunks)


def series_text(expr: LieExpr, style: str = "nested") -> str:
    return _signed_join(
        [(c, _bracket(leaves, style)) for leaves, c in expr.sorted_terms()]
    )


def series_latex(expr: LieExpr, style: str = "nested") -> str:
    return _signed_join(
        [(c, _bracket(leaves, style)) for leaves, c in expr.sorted_terms()],
        _latex_mag,
    )


def series_json_doc(expr: LieExpr, meta: dict) -> dict:
    return {
        "meta": meta,
        "terms": [
            {"leaves": _leaf_names(leaves), "coeff": str(c)}
            for leaves, c in expr.sorted_terms()
        ],
    }


def render_series_json(expr: LieExpr, meta: dict) -> str:
    return json.dumps(series_json_doc(expr, meta), indent=2) + "\n"


def parse_series_json(text: str) -> tuple[dict, LieExpr]:
    """Inverse of render_series_json: returns (meta, expression)."""
    doc = json.loads(text)
    terms = {}
    for entry in doc["terms"]:
        leaves = tuple(GENERATORS.index(name) for name in entry["leaves"])
        terms[leaves] = Fraction(entry["coeff"])
    return doc["meta"], LieExpr(terms)


def _identity_order(ident: LieExpr) -> list[tuple[Leaves, Fraction]]:
    # Dependent commutator (the lex-greatest, normalized to +1) first.
    return sorted(ident.terms.items(), key=lambda kv: kv[0], reverse=True)


def identity_text(ident: LieExpr, style: str = "nested") -> str:
    pieces = [(c, _bracket(leaves, style)) for leaves, c in _identity_order(ident)]
    return _signed_join(pieces) + " = 0"


def run_verification(max_m: int) -> AssocPoly:
    """Cross-check the three series routes at grades 1..max_m; raise on any
    mismatch.  Returns the two-generator word series through max_m."""
    words = log_product(max_m, 2)
    for m in range(1, max_m + 1):
        phi = expand_lie(bch_term(m, 2))
        dyn = expand_lie(bch_term_dynkin(m))
        if (phi - dyn) or (phi - words.homogeneous_part(m)):
            raise VerificationError(
                f"series routes disagree at grade {m}; refusing to print"
            )
    return words


def _symmetric_words(max_m: int) -> AssocPoly:
    # log(exp(X/2) exp(Y) exp(X/2)) through grade max_m from the three-
    # generator word route: Z becomes X, every X or Z letter brings 1/2.
    out: dict[Word, Fraction] = {}
    for word, c in log_product(max_m, 3).terms.items():
        halves = sum(1 for g in word if g != 1)
        z_as_x = tuple(0 if g == 2 else g for g in word)
        accumulate(out, ((z_as_x, c / 2**halves),))
    return AssocPoly._from_clean(out)


def verify_series(terms: dict[int, LieExpr], nvars: int, symmetric: bool) -> None:
    """Cross-check the series routes, then each grade's printed expression
    against the word route; raise on any mismatch."""
    top = max(terms)
    words = run_verification(top)
    if symmetric or nvars != 2:
        words = _symmetric_words(top) if symmetric else log_product(top, nvars)
    for m, expr in terms.items():
        if expand_lie(expr) != words.homogeneous_part(m):
            raise VerificationError(
                f"printed grade {m} disagrees with the word route; "
                "refusing to print"
            )


def _lie_dimension(m: int) -> int:
    """Witt's formula for the grade-m dimension L(m) of the free Lie algebra
    on two generators, by the relation it inverts: sum_{d | m} d L(d) = 2^m."""
    return (2**m - sum(d * _lie_dimension(d) for d in range(1, m) if m % d == 0)) // m


def _witt_novel(m: int) -> int:
    # i(m) - 2 i(m-1): i(k) = 2^(k-2) - L(k) identities hold at grade k >= 2
    # (i(1) = 0), and the lifts of the grade-(m-1) ones have rank 2 i(m-1).
    i = [2 ** (k - 2) - _lie_dimension(k) if k > 1 else 0 for k in (m - 1, m)]
    return i[1] - 2 * i[0]


def _emit(text: str, path: str | None) -> int:
    """Write the document to stdout or path; returns the exit code."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:
            # The text is still buffered, and flushing it again at exit
            # would fail once more: send it to the null device instead.
            with open(os.devnull, "wb") as null:
                with contextlib.suppress(OSError, ValueError):
                    os.dup2(null.fileno(), sys.stdout.fileno())
        reason = exc.strerror or exc
        target = "stdout" if path is None else path
        print(f"bchnest: error: cannot write {target}: {reason}", file=sys.stderr)
        return 3
    return 0


def _series_document(args: argparse.Namespace, symmetric: bool) -> str:
    letter = "Psi" if symmetric else "Phi"
    variant = "symmetric" if symmetric else "plain"
    nvars = 2 if symmetric else args.vars

    # JSON shows the top grade only; --verify checks every grade up to it.
    low = args.grade if args.format == "json" and not args.verify else 1
    terms = {
        m: series_term(m, args.regime, variant, nvars)
        for m in range(low, args.grade + 1)
    }
    if args.verify:
        verify_series(terms, nvars, symmetric)

    if args.format == "json":
        meta = {
            "grade": args.grade,
            "vars": nvars,
            "regime": args.regime,
            "variant": variant,
            "version": __version__,
        }
        return render_series_json(terms[args.grade], meta)
    lines = []
    for m in range(1, args.grade + 1):
        if args.format == "latex":
            body = series_latex(terms[m], args.latex_style)
            lines.append(f"\\{letter}_{{{m}}} = {body} \\\\")
        else:
            lines.append(f"{letter}_{m} = {series_text(terms[m])}")
    return "\n".join(lines) + "\n"


def cmd_bch(args: argparse.Namespace) -> str:
    return _series_document(args, symmetric=False)


def cmd_symbch(args: argparse.Namespace) -> str:
    return _series_document(args, symmetric=True)


def _novel_count(report: IdentityReport) -> int:
    # Identities beyond the span of ad-prefix lifts from lower grades; the
    # published per-grade identity counts quote exactly these.  The lifts
    # are independent, so their number is their rank.
    return len(report.identities) - len(lifted_identities(report.grade))


def _identities_json(report: IdentityReport) -> dict:
    return {
        "meta": {
            "grade": report.grade,
            "vars": 2,
            "version": __version__,
        },
        "commutators": [_leaf_names(c) for c in report.commutators],
        "basis": [_leaf_names(c) for c in report.basis],
        "novel": _novel_count(report),
        "identities": [
            [
                {"leaves": _leaf_names(leaves), "coeff": str(c)}
                for leaves, c in _identity_order(ident)
            ]
            for ident in report.identities
        ],
    }


def _identities_header(report: IdentityReport) -> str:
    return (
        f"grade {report.grade}: {len(report.commutators)} commutators, "
        f"basis {len(report.basis)}, identities {len(report.identities)} "
        f"({_novel_count(report)} beyond lifts from lower grades)"
    )


def cmd_identities(args: argparse.Namespace) -> str:
    report = identities_and_basis(args.grade)
    if args.verify:
        if len(report.basis) != _lie_dimension(args.grade):
            raise VerificationError(
                f"grade {args.grade} basis disagrees with Witt's formula; "
                "refusing to print"
            )
        # Each commutator's word expansion, through expand_nested as
        # expand_lie would, made once per run however many identities
        # hold it; the check stays independent of the elimination.
        words: dict[Leaves, dict[Word, Fraction]] = {}
        for ident in report.identities:
            total: dict[Word, Fraction] = {}
            for leaves, c in ident.terms.items():
                if leaves not in words:
                    words[leaves] = expand_nested(leaves).terms
                accumulate(total, words[leaves].items(), c)
            if total:
                raise VerificationError(
                    f"grade {args.grade} identity does not expand to zero; "
                    "refusing to print"
                )
        if _novel_count(report) != _witt_novel(args.grade):
            raise VerificationError(
                f"grade {args.grade} novel identity count disagrees with "
                "Witt's formula; refusing to print"
            )
    if args.format == "json":
        return json.dumps(_identities_json(report), indent=2) + "\n"
    if args.format == "latex":
        style = args.latex_style
        lines = [f"% {_identities_header(report)}"]
        lines += [f"{_bracket(c, style)} \\\\" for c in report.basis]
        lines += [f"{identity_text(i, style)} \\\\" for i in report.identities]
        return "\n".join(lines) + "\n"
    lines = [
        _identities_header(report),
        "basis:",
    ]
    lines += [f"  {_bracket(c)}" for c in report.basis]
    lines.append("identities:")
    lines += [f"  {identity_text(i)}" for i in report.identities]
    return "\n".join(lines) + "\n"


def _table_rows(max_m: int, rows: tuple[str, ...]) -> dict[str, dict]:
    out = {}
    for row in rows:
        if row == "dim":
            computed = tuple(
                len(identities_and_basis(m).basis) for m in range(2, max_m + 1)
            )
        elif row == "symmetric":
            computed = table_counts(max_m, "compact", variant="symmetric")
        else:
            computed = table_counts(max_m, row)
        published = REFERENCE_COUNTS[row][: max_m - 1]
        out[row] = {
            "computed": computed,
            "published": published,
            # Past the published grades there is nothing to compare.
            "match": computed[: len(published)] == published,
        }
    return out


def cmd_table(args: argparse.Namespace) -> str:
    rows = TABLE_ROWS if args.row == "all" else (args.row,)
    data = _table_rows(args.max_grade, rows)
    if args.verify:
        if any(row != "dim" for row in data):
            # Every row but dim counts series terms.
            run_verification(args.max_grade)
        witt = tuple(_lie_dimension(m) for m in range(2, args.max_grade + 1))
        if "dim" in data and data["dim"]["computed"] != witt:
            raise VerificationError(
                "dim row disagrees with Witt's formula; refusing to print"
            )
    if args.format == "json":
        meta = {"max_grade": args.max_grade, "version": __version__}
        return json.dumps({"meta": meta, "rows": data}, indent=2) + "\n"
    head = f"terms per grade, m = 2..{args.max_grade}"
    sep = " & " if args.format == "latex" else "   "
    eol = " \\\\" if args.format == "latex" else ""
    lines = [head if args.format == "text" else f"% {head}"]
    for row, info in data.items():
        computed = ",".join(map(str, info["computed"]))
        published = ",".join(map(str, info["published"]))
        flag = "ok" if info["match"] else "DIFFERS"
        lines.append(
            f"{row:<9s}{sep}computed {computed}{sep}published {published}"
            f"{sep}{flag}{eol}"
        )
    return "\n".join(lines) + "\n"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    p.add_argument(
        "--latex-style",
        choices=("nested", "flat"),
        default="nested",
        help="bracket rendering: [X,[Y,[X,Y]]] or the [X,Y,X,Y] shorthand",
    )
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    p.add_argument(
        "--verify",
        action="store_true",
        help="check what is printed against independent routes first",
    )
    p.add_argument(
        "--unsafe-grade",
        action="store_true",
        help=f"allow grades above {GRADE_CAP} (cost grows combinatorially)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bchnest",
        description="Exact Baker-Campbell-Hausdorff series in right-nested "
        "commutators, with identity discovery and term-count reduction.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bch = sub.add_parser("bch", help="series terms of log(exp X exp Y)")
    p_bch.add_argument("--grade", type=int, required=True, help="highest grade")
    p_bch.add_argument(
        "--vars", type=int, default=2, help="number of generators (default 2)"
    )
    p_bch.add_argument(
        "--regime",
        choices=TABLE_MODES,
        default="none",
        help="identity reduction applied to each grade (two generators only)",
    )
    _add_common(p_bch)

    p_sym = sub.add_parser(
        "symbch", help="series terms of log(exp(X/2) exp Y exp(X/2))"
    )
    p_sym.add_argument("--grade", type=int, required=True, help="highest grade")
    p_sym.add_argument(
        "--regime", choices=TABLE_MODES, default="none", help="identity reduction"
    )
    _add_common(p_sym)

    p_id = sub.add_parser(
        "identities", help="commutator basis and identities at one grade"
    )
    p_id.add_argument("--grade", type=int, required=True, help="grade (at least 2)")
    _add_common(p_id)

    p_tab = sub.add_parser(
        "table", help="published term-count table next to computed counts"
    )
    p_tab.add_argument(
        "--max-grade", type=int, default=GRADE_CAP, help="last grade (default 10)"
    )
    p_tab.add_argument(
        "--row",
        choices=("all",) + TABLE_ROWS,
        default="all",
        help="single row to print (default: all rows)",
    )
    _add_common(p_tab)
    return parser


def _doc_grade(args: argparse.Namespace) -> int:
    return args.grade if hasattr(args, "grade") else args.max_grade


def _validate(parser: _Parser, args: argparse.Namespace) -> None:
    grade = _doc_grade(args)
    if grade < 1:
        parser.error("grade must be at least 1")
    if grade > GRADE_CAP and not args.unsafe_grade:
        parser.error(
            f"grade {grade} exceeds the default cap {GRADE_CAP}; "
            "pass --unsafe-grade to proceed"
        )
    if args.command == "bch":
        if not 2 <= args.vars <= len(GENERATORS):
            parser.error(f"--vars must be between 2 and {len(GENERATORS)}")
        if args.vars != 2 and args.regime != "none":
            parser.error("identity regimes are defined for two generators only")
    if args.command == "identities" and grade < 2:
        parser.error("identities need grade at least 2")
    if args.command == "table" and grade < 2:
        parser.error("the table starts at grade 2")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    grade = _doc_grade(args)
    if grade > GRADE_CAP:
        print(
            f"warning: grade {grade} is above the published range; time and "
            "memory grow combinatorially",
            file=sys.stderr,
        )
    try:
        handler = {
            "bch": cmd_bch,
            "symbch": cmd_symbch,
            "identities": cmd_identities,
            "table": cmd_table,
        }[args.command]
        document = handler(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    return _emit(document, args.output)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
