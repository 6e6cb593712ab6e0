"""Exactness gate, untimed.

Every output is parsed here, independently of the program's own renderers
and parsers, and checked against an independent route:

- series terms (bch): word expansion equals ``log_product_words(m, nvars)``;
- symmetric terms (symbch): word expansion equals the three-generator word
  route with X -> X/2, Y -> Y, Z -> X/2 substituted;
- identities: each printed identity expands to zero, its leading commutator
  has coefficient 1 and is not in the basis, the leading commutators are
  distinct (so the identities are independent), the basis size equals
  ``REFERENCE_COUNTS["dim"]`` and basis plus identities cover all 2^(m-2)
  commutators;
- library calls: each returned expression expands to the input's words, and
  the full and compact reductions are no longer than the input.

``tally`` also requires every instance of a request to be byte-identical to
its first instance, so nondeterminism counts as a failure.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from bchnest.identities import REFERENCE_COUNTS
from bchnest.series import log_product_words
from bchnest.terms import AssocPoly, LieExpr, expand_lie

GENERATORS = "XYZWVUTSRQ"
Terms = dict[tuple[int, ...], Fraction]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    terms: int  # nonzero terms in the returned or top-grade expressions
    why: str = ""


@dataclass(frozen=True)
class Instance:
    """One attempted request: which request, what it printed, what failed."""

    key: int
    content: str
    error: str | None = None


@dataclass(frozen=True)
class Tally:
    attempted: int
    failed: int
    output_terms: int
    reasons: tuple[str, ...]


class GateError(ValueError):
    """An output that does not parse or does not check out."""


def _nested(leaves: tuple[int, ...]) -> str:
    names = [GENERATORS[i] for i in leaves]
    out = names[-1]
    for name in reversed(names[:-1]):
        out = f"[{name},{out}]"
    return out


def _leaves(names: Iterable[str]) -> tuple[int, ...]:
    leaves = tuple(GENERATORS.index(n) for n in names)
    if not leaves:
        raise GateError("empty commutator")
    return leaves


def _symbol(sym: str) -> tuple[int, ...]:
    leaves = _leaves(re.findall(r"[A-Z]", sym))
    if sym != _nested(leaves):
        raise GateError(f"not a right-nested commutator: {sym!r}")
    return leaves


def _add(terms: Terms, leaves: tuple[int, ...], c: Fraction) -> None:
    if leaves in terms:
        raise GateError(f"term {leaves} printed twice")
    if not c:
        raise GateError(f"zero coefficient printed for {leaves}")
    terms[leaves] = c


def parse_signed(body: str) -> Terms:
    """Parse the text form 'a - 1/2 [X,Y] + ...' ('0' when empty)."""
    terms: Terms = {}
    if body == "0":
        return terms
    parts = re.split(r" ([+-]) ", body)
    first = parts[0]
    signs = ["-" if first.startswith("-") else "+"] + parts[1::2]
    chunks = [first[1:] if first.startswith("-") else first] + parts[2::2]
    for sign, chunk in zip(signs, chunks):
        mag, _, sym = chunk.rpartition(" ")
        c = Fraction(mag) if mag else Fraction(1)
        if c <= 0:
            raise GateError(f"bad magnitude in {chunk!r}")
        _add(terms, _symbol(sym), -c if sign == "-" else c)
    return terms


def _json_terms(entries: list[dict]) -> Terms:
    terms: Terms = {}
    for entry in entries:
        _add(terms, _leaves(entry["leaves"]), Fraction(entry["coeff"]))
    return terms


def parse_serialized(text: str) -> Terms:
    """Inverse of library.serialize."""
    terms: Terms = {}
    for item in text.split():
        word, _, coeff = item.partition(":")
        _add(terms, tuple(int(ch) for ch in word), Fraction(coeff))
    return terms


def _options(argv: list[str]) -> dict[str, str]:
    # Every request used here is a subcommand followed by --flag value pairs.
    return dict(zip(argv[1::2], argv[2::2]))


class Gate:
    """Holds the oracle word polynomials and each distinct output's verdict.

    The oracles are memoized here rather than in the program's caches, which
    the traced replay clears before every request.
    """

    def __init__(self) -> None:
        self._words: dict[tuple[int, int], AssocPoly] = {}
        self._sym_words: dict[int, AssocPoly] = {}
        self._verdicts: dict[tuple[int, str], Verdict] = {}

    def words(self, m: int, nvars: int) -> AssocPoly:
        if (m, nvars) not in self._words:
            self._words[m, nvars] = log_product_words(m, nvars)
        return self._words[m, nvars]

    def symmetric_words(self, m: int) -> AssocPoly:
        """Grade m of log(exp(X/2) exp(Y) exp(X/2)) from the 3-generator route."""
        if m not in self._sym_words:
            half = Fraction(1, 2)
            table = {0: (0, half), 1: (1, Fraction(1)), 2: (0, half)}
            out: dict[tuple[int, ...], Fraction] = {}
            for word, c in self.words(m, 3).terms.items():
                for g in word:
                    c *= table[g][1]
                key = tuple(table[g][0] for g in word)
                out[key] = out.get(key, Fraction(0)) + c
            self._sym_words[m] = AssocPoly(out)
        return self._sym_words[m]

    # -- CLI outputs ------------------------------------------------------

    def check_cli(self, argv: list[str], text: str) -> Verdict:
        try:
            if argv[0] in ("bch", "symbch"):
                return self._check_series(argv, text)
            if argv[0] == "identities":
                return self._check_identities(argv, text)
            raise GateError(f"no check for {argv[0]!r}")
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            return Verdict(False, 0, f"{' '.join(argv)}: {exc!r}")

    def _check_series(self, argv: list[str], text: str) -> Verdict:
        opts = _options(argv)
        grade = int(opts["--grade"])
        symmetric = argv[0] == "symbch"
        nvars = 2 if symmetric else int(opts.get("--vars", "2"))
        grades: dict[int, Terms] = {}
        if opts.get("--format", "text") == "json":
            doc = json.loads(text)
            want = {
                "grade": grade,
                "vars": nvars,
                "regime": opts.get("--regime", "none"),
                "variant": "symmetric" if symmetric else "plain",
            }
            if {k: doc["meta"].get(k) for k in want} != want:
                raise GateError(f"meta {doc['meta']} does not match the request")
            grades[grade] = _json_terms(doc["terms"])
        else:
            letter = "Psi" if symmetric else "Phi"
            lines = text.splitlines()
            if len(lines) != grade or not text.endswith("\n"):
                raise GateError(f"expected {grade} lines")
            for m, line in enumerate(lines, start=1):
                head = f"{letter}_{m} = "
                if not line.startswith(head):
                    raise GateError(f"line {m} does not start with {head!r}")
                grades[m] = parse_signed(line[len(head):])
        for m, terms in grades.items():
            if any(len(leaves) != m for leaves in terms):
                raise GateError(f"grade {m} holds a term of another grade")
            want_words = self.symmetric_words(m) if symmetric else self.words(m, nvars)
            if expand_lie(LieExpr(terms)) != want_words:
                raise GateError(f"grade {m} differs from the word route")
        return Verdict(True, len(grades[grade]))

    def _check_identities(self, argv: list[str], text: str) -> Verdict:
        grade = int(_options(argv)["--grade"])
        if _options(argv).get("--format", "text") == "json":
            doc = json.loads(text)
            if doc["meta"]["grade"] != grade:
                raise GateError("meta grade does not match the request")
            n_comms = len(doc["commutators"])
            basis = [_leaves(c) for c in doc["basis"]]
            idents = [_json_terms(i) for i in doc["identities"]]
            leading = [_leaves(i[0]["leaves"]) for i in doc["identities"]]
            lead_coeffs = [Fraction(i[0]["coeff"]) for i in doc["identities"]]
        else:
            lines = text.splitlines()
            head = re.fullmatch(
                r"grade (\d+): (\d+) commutators, basis (\d+), identities (\d+) "
                r"\(\d+ beyond lifts from lower grades\)",
                lines[0],
            )
            split = lines.index("identities:")
            if head is None or lines[1] != "basis:":
                raise GateError("malformed identities header")
            if int(head.group(1)) != grade:
                raise GateError("header grade does not match the request")
            n_comms = int(head.group(2))
            basis = [_symbol(line.removeprefix("  ")) for line in lines[2:split]]
            bodies = [line.removeprefix("  ") for line in lines[split + 1 :]]
            if not all(b.endswith(" = 0") for b in bodies):
                raise GateError("identity line without '= 0'")
            idents = [parse_signed(b[: -len(" = 0")]) for b in bodies]
            leading = [next(iter(t)) for t in idents]
            lead_coeffs = [t[lead] for t, lead in zip(idents, leading)]
            if (int(head.group(3)), int(head.group(4))) != (len(basis), len(idents)):
                raise GateError("header counts do not match the lists")
        total = 2 ** (grade - 2)
        if len(basis) != REFERENCE_COUNTS["dim"][grade - 2]:
            raise GateError(f"basis size {len(basis)} is not the reference dimension")
        if n_comms != total or len(basis) + len(idents) != total:
            raise GateError("basis and identities do not cover the commutators")
        if any(c != 1 for c in lead_coeffs):
            raise GateError("an identity's leading coefficient is not 1")
        if len(set(leading)) != len(leading) or set(leading) & set(basis):
            raise GateError("leading commutators repeat or lie in the basis")
        for terms in idents:
            if any(len(leaves) != grade for leaves in terms):
                raise GateError("identity of the wrong grade")
            if expand_lie(LieExpr(terms)):
                raise GateError(f"identity does not expand to zero: {terms}")
        return Verdict(True, sum(len(t) for t in idents))

    # -- library outputs --------------------------------------------------

    def check_library(self, m: int, terms_in: Terms, text: str) -> Verdict:
        try:
            outputs = [parse_serialized(part) for part in text.split("\n")]
            if len(outputs) != 3:
                raise GateError(f"expected 3 outputs, got {len(outputs)}")
            want = expand_lie(LieExpr(terms_in))
            for name, terms in zip(("rewrite", "full", "compact"), outputs):
                if expand_lie(LieExpr(terms)) != want:
                    raise GateError(f"{name} output changes the element")
                if name != "rewrite" and len(terms) > len(terms_in):
                    raise GateError(f"{name} output is longer than its input")
            return Verdict(True, sum(len(t) for t in outputs))
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            return Verdict(False, 0, f"library grade {m}: {exc!r}")

    # -- accounting -------------------------------------------------------

    def tally(
        self, instances: Iterable[Instance], check: Callable[[int, str], Verdict]
    ) -> Tally:
        """Count failures: an error, a failed check, or bytes that differ
        from the request's first instance.  output_terms sums the first
        instance of each request."""
        first: dict[int, str] = {}
        attempted = failed = terms = 0
        reasons: list[str] = []
        for inst in instances:
            attempted += 1
            if inst.key not in first:
                first[inst.key] = inst.content
                terms += self.verdict(inst.key, inst.content, check).terms
            verdict = self.verdict(inst.key, inst.content, check)
            if inst.error:
                reasons.append(inst.error)
            elif not verdict.ok:
                reasons.append(verdict.why)
            elif inst.content != first[inst.key]:
                reasons.append(f"request {inst.key}: output differs between passes")
            else:
                continue
            failed += 1
        return Tally(attempted, failed, terms, tuple(reasons))

    def verdict(self, key: int, content: str, check: Callable[[int, str], Verdict]) -> Verdict:
        digest = hashlib.sha256(content.encode()).hexdigest()
        if (key, digest) not in self._verdicts:
            self._verdicts[key, digest] = check(key, content)
        return self._verdicts[key, digest]
