"""Command line behavior: fixtures, formats, round-trips, exit codes."""

import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from bchnest import __version__, cli, identities
from bchnest.cli import (
    build_parser,
    main,
    parse_series_json,
    render_series_json,
    series_latex,
    series_text,
)
from bchnest.series import log_product, log_product_words
from bchnest.terms import AssocPoly, LieExpr

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bch_grade_one(capsys):
    code, out, _ = run_cli(capsys, "bch", "--grade", "1")
    assert code == 0
    assert out == "Phi_1 = X + Y\n"


def test_bch_grade_four_text(capsys):
    code, out, _ = run_cli(capsys, "bch", "--grade", "4", "--regime", "none")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Phi_1 = X + Y"
    assert lines[1] == "Phi_2 = 1/2 [X,Y]"
    assert lines[2] == "Phi_3 = 1/12 [X,[X,Y]] - 1/12 [Y,[X,Y]]"
    assert lines[3] == "Phi_4 = -1/24 [X,[Y,[X,Y]]]"


def test_bch_three_vars(capsys):
    code, out, _ = run_cli(capsys, "bch", "--grade", "2", "--vars", "3")
    assert code == 0
    assert out.splitlines()[1] == "Phi_2 = 1/2 [X,Y] + 1/2 [X,Z] + 1/2 [Y,Z]"


def test_symbch_even_grade_zero(capsys):
    code, out, _ = run_cli(capsys, "symbch", "--grade", "2")
    assert code == 0
    assert out.splitlines()[1] == "Psi_2 = 0"


def test_symbch_grade_three(capsys):
    code, out, _ = run_cli(capsys, "symbch", "--grade", "3")
    assert out.splitlines()[2] == "Psi_3 = -1/24 [X,[X,Y]] - 1/12 [Y,[X,Y]]"


def test_bch_grade6_json_has_four_terms(capsys):
    code, out, _ = run_cli(
        capsys, "bch", "--grade", "6", "--regime", "grade6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"] == {
        "grade": 6,
        "vars": 2,
        "regime": "grade6",
        "variant": "plain",
        "version": __version__,
    }
    assert len(doc["terms"]) == 4
    for term in doc["terms"]:
        assert set(term) == {"leaves", "coeff"}
        assert "/" in term["coeff"] or term["coeff"].lstrip("-").isdigit()


def test_json_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "bch", "--grade", "5", "--regime", "full", "--format", "json"
    )
    meta, expr = parse_series_json(out)
    assert meta["grade"] == 5
    assert render_series_json(expr, meta) == out


def test_json_round_trip_unit():
    expr = LieExpr({(0, 1): F(1, 2), (1, 0, 1): F(-3)})
    # Mixed grades are not emitted by the CLI but round-trip regardless.
    meta = {"grade": 0, "vars": 2, "regime": "none", "variant": "plain"}
    parsed_meta, parsed = parse_series_json(render_series_json(expr, meta))
    assert parsed_meta == meta
    assert parsed.terms == expr.terms


def test_identities_grade_four_text(capsys):
    code, out, _ = run_cli(capsys, "identities", "--grade", "4")
    assert code == 0
    assert out == (
        "grade 4: 4 commutators, basis 3, identities 1 "
        "(1 beyond lifts from lower grades)\n"
        "basis:\n"
        "  [X,[X,[X,Y]]]\n"
        "  [X,[Y,[X,Y]]]\n"
        "  [Y,[Y,[X,Y]]]\n"
        "identities:\n"
        "  [Y,[X,[X,Y]]] - [X,[Y,[X,Y]]] = 0\n"
    )


def test_identities_grade_two_empty(capsys):
    code, out, _ = run_cli(capsys, "identities", "--grade", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("grade 2: 1 commutators, basis 1, identities 0")
    assert "  [X,Y]" in lines
    assert lines[-1] == "identities:"


def test_identities_grade_six_header(capsys):
    code, out, _ = run_cli(capsys, "identities", "--grade", "6")
    assert code == 0
    head = out.splitlines()[0]
    assert head == (
        "grade 6: 16 commutators, basis 9, identities 7 "
        "(3 beyond lifts from lower grades)"
    )


def test_identities_json(capsys):
    _, out, _ = run_cli(
        capsys, "identities", "--grade", "4", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["meta"]["grade"] == 4
    assert doc["basis"] == [
        ["X", "X", "X", "Y"], ["X", "Y", "X", "Y"], ["Y", "Y", "X", "Y"]
    ]
    assert doc["novel"] == 1
    assert doc["identities"] == [
        [
            {"leaves": ["Y", "X", "X", "Y"], "coeff": "1"},
            {"leaves": ["X", "Y", "X", "Y"], "coeff": "-1"},
        ]
    ]


def test_latex_nested_and_flat(capsys):
    _, nested, _ = run_cli(capsys, "bch", "--grade", "4", "--format", "latex")
    assert "\\Phi_{4} = -\\frac{1}{24}\\,[X,[Y,[X,Y]]] \\\\" in nested.splitlines()
    _, flat, _ = run_cli(
        capsys, "bch", "--grade", "4", "--format", "latex",
        "--latex-style", "flat",
    )
    assert "\\Phi_{4} = -\\frac{1}{24}\\,[X,Y,X,Y] \\\\" in flat.splitlines()


def test_text_format_ignores_latex_style(capsys):
    _, out, _ = run_cli(
        capsys, "bch", "--grade", "4", "--latex-style", "flat"
    )
    assert out.splitlines()[3] == "Phi_4 = -1/24 [X,[Y,[X,Y]]]"


def test_table_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--max-grade", "4", "--row", "grade4"
    )
    assert code == 0
    assert "computed 1,2,1" in out
    assert "published 1,2,1" in out
    assert "ok" in out


def test_table_all_rows_match_at_low_grade(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-grade", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "terms per grade, m = 2..6"
    assert len(lines) == 7
    assert all("ok" in line for line in lines[1:])
    assert not any("DIFFERS" in line for line in lines)


def test_table_json(capsys):
    _, out, _ = run_cli(
        capsys, "table", "--max-grade", "5", "--row", "none",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["rows"]["none"] == {
        "computed": [1, 2, 1, 8],
        "published": [1, 2, 1, 8],
        "match": True,
    }


def test_output_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run_cli(capsys, "bch", "--grade", "3")
    path = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "bch", "--grade", "3", "--output", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == stdout_text


def test_determinism(capsys):
    _, first, _ = run_cli(
        capsys, "bch", "--grade", "6", "--regime", "compact", "--format", "json"
    )
    _, second, _ = run_cli(
        capsys, "bch", "--grade", "6", "--regime", "compact", "--format", "json"
    )
    assert first == second


def test_verify_passes(capsys):
    code, out, err = run_cli(capsys, "bch", "--grade", "3", "--verify")
    assert code == 0
    assert "Phi_3" in out
    assert err == ""


def test_verify_checks_every_requested_grade(capsys, monkeypatch):
    real = cli.bch_term

    def wrong_at_seven(m, nvars=2):
        e = real(m, nvars)
        return e * 2 if m == 7 else e

    monkeypatch.setattr(cli, "bch_term", wrong_at_seven)
    code, out, err = run_cli(capsys, "bch", "--grade", "7", "--verify")
    assert code == 2
    assert out == ""
    assert "grade 7" in err


def test_verify_checks_three_generator_output(capsys, monkeypatch):
    real = identities.bch_term

    def doubled_at_three(m, nvars=2):
        e = real(m, nvars)
        return e * 2 if (m, nvars) == (3, 3) else e

    monkeypatch.setattr(identities, "bch_term", doubled_at_three)
    code, out, err = run_cli(capsys, "bch", "--grade", "3", "--vars", "3", "--verify")
    assert code == 2
    assert out == ""
    assert "grade 3" in err


def test_verify_checks_reduced_output(capsys, monkeypatch):
    real = identities.compact_bch_term

    def corrupted_at_five(m):
        e = real(m)
        if m != 5:
            return e
        terms = dict(e.terms)
        leaves = min(terms)
        terms[leaves] += 1
        return LieExpr(terms)

    monkeypatch.setattr(identities, "compact_bch_term", corrupted_at_five)
    code, out, err = run_cli(
        capsys, "bch", "--grade", "5", "--regime", "compact", "--verify"
    )
    assert code == 2
    assert out == ""
    assert "grade 5" in err
    # The symmetric series assembles from the same compacted terms.
    code, out, err = run_cli(
        capsys, "symbch", "--grade", "5", "--regime", "compact", "--verify"
    )
    assert code == 2
    assert out == ""


def test_verify_builds_each_word_series_once(capsys, monkeypatch):
    # --verify reads every grade from one truncated word series per
    # generator count instead of rebuilding the product for each grade.
    real = AssocPoly.concat
    calls = []

    def counted(self, other, max_grade=None):
        calls.append(max_grade)
        return real(self, other, max_grade)

    monkeypatch.setattr(AssocPoly, "concat", counted)
    log_product_words.cache_clear()
    log_product_words(6, 3)
    single = len(calls)
    log_product_words.cache_clear()
    calls.clear()
    code, _, _ = run_cli(
        capsys, "symbch", "--grade", "6", "--verify", "--format", "json"
    )
    assert code == 0
    # One three-generator build for the printed grades and one smaller
    # two-generator build for the cross-check of the series routes.
    assert 0 < len(calls) <= 2 * single


def test_bch_verify_builds_one_two_generator_series(capsys, monkeypatch):
    # The cross-check of the series routes and the check of the printed
    # two-generator series read the same truncated word series.
    real = AssocPoly.concat
    calls = []

    def counted(self, other, max_grade=None):
        calls.append(max_grade)
        return real(self, other, max_grade)

    monkeypatch.setattr(AssocPoly, "concat", counted)
    log_product(6, 2)
    single = len(calls)
    calls.clear()
    code, _, _ = run_cli(capsys, "bch", "--grade", "6", "--verify", "--format", "json")
    assert code == 0
    assert 0 < len(calls) <= single


def test_identities_verify_checks_basis_size(capsys, monkeypatch):
    real = cli.identities_and_basis

    def short_basis(m):
        report = real(m)
        return dataclasses.replace(report, basis=report.basis[:-1])

    monkeypatch.setattr(cli, "identities_and_basis", short_basis)
    code, out, err = run_cli(capsys, "identities", "--grade", "6", "--verify")
    assert code == 2
    assert out == ""
    assert "grade 6" in err


def test_identities_verify_checks_identity_expansion(capsys, monkeypatch):
    real = cli.identities_and_basis

    def corrupted_identity(m):
        report = real(m)
        first = report.identities[0]
        changed = dict(first.terms)
        leaves = min(changed)
        changed[leaves] += 1
        return dataclasses.replace(
            report, identities=(LieExpr(changed),) + report.identities[1:]
        )

    monkeypatch.setattr(cli, "identities_and_basis", corrupted_identity)
    code, out, err = run_cli(capsys, "identities", "--grade", "6", "--verify")
    assert code == 2
    assert out == ""
    assert "grade 6" in err


def test_identities_verify_expands_each_commutator_once(capsys, monkeypatch):
    # --verify expands each commutator once per run, through expand_nested,
    # however many identities hold it.  The last identity, corrupted on a
    # commutator an earlier identity already expanded, still exits 2.
    report = identities.identities_and_basis(7)
    held = {c for ident in report.identities for c in ident.terms}
    expanded = []
    real_expand = cli.expand_nested

    def counted(leaves):
        expanded.append(leaves)
        return real_expand(leaves)

    monkeypatch.setattr(cli, "expand_nested", counted)
    code, _, _ = run_cli(capsys, "identities", "--grade", "7", "--verify")
    assert code == 0
    assert sorted(expanded) == sorted(held)

    last = report.identities[-1]
    earlier = {c for ident in report.identities[:-1] for c in ident.terms}
    changed = dict(last.terms)
    changed[min(c for c in changed if c in earlier)] += 1
    corrupted = dataclasses.replace(
        report, identities=report.identities[:-1] + (LieExpr(changed),)
    )
    monkeypatch.setattr(cli, "identities_and_basis", lambda m: corrupted)
    code, out, err = run_cli(capsys, "identities", "--grade", "7", "--verify")
    assert code == 2
    assert out == ""
    assert "grade 7" in err


def test_identities_verify_checks_novel_count(capsys, monkeypatch):
    real = cli.lifted_identities
    monkeypatch.setattr(cli, "lifted_identities", lambda m: real(m)[1:])
    code, out, _ = run_cli(capsys, "identities", "--grade", "6")
    assert code == 0
    assert "(4 beyond lifts from lower grades)" in out
    code, out, err = run_cli(capsys, "identities", "--grade", "6", "--verify")
    assert code == 2
    assert out == ""
    assert "grade 6" in err


def test_identities_verify_skips_series_check(capsys, monkeypatch):
    # identities prints no series, so --verify neither builds nor checks one.
    code, plain, _ = run_cli(capsys, "identities", "--grade", "6")
    assert code == 0

    def refuse(*args):
        raise AssertionError("identities built a series")

    monkeypatch.setattr(cli, "run_verification", refuse)
    monkeypatch.setattr(cli, "bch_term", refuse)
    monkeypatch.setattr(identities, "bch_term", refuse)
    code, out, _ = run_cli(capsys, "identities", "--grade", "6", "--verify")
    assert code == 0
    assert out == plain


def test_identities_builds_only_its_own_and_the_previous_grade(
    capsys, monkeypatch
):
    grades = []
    real = identities.enumerate_nested

    def recorded(m):
        grades.append(m)
        return real(m)

    calls = []
    real_rules = identities.relation_rules

    def counted(*args, **kwargs):
        calls.append(args)
        return real_rules(*args, **kwargs)

    monkeypatch.setattr(identities, "enumerate_nested", recorded)
    monkeypatch.setattr(identities, "relation_rules", counted)
    identities.identities_and_basis.cache_clear()
    identities.lifted_identities.cache_clear()
    code, _, _ = run_cli(capsys, "identities", "--grade", "10")
    assert code == 0
    assert identities.identities_and_basis.cache_info().misses == 2
    assert sorted(grades) == [9, 10]
    assert calls == []
    assert not hasattr(cli, "relation_rules")


def test_table_verify_checks_dim_row(capsys, monkeypatch):
    real = cli.identities_and_basis

    def short_basis(m):
        report = real(m)
        return dataclasses.replace(report, basis=report.basis[:-1])

    monkeypatch.setattr(cli, "identities_and_basis", short_basis)
    code, out, err = run_cli(
        capsys, "table", "--max-grade", "6", "--row", "dim", "--verify"
    )
    assert code == 2
    assert out == ""
    assert "dim" in err


def test_table_verify_checks_series_only_for_series_rows(capsys, monkeypatch):
    # The dim row counts basis commutators, not series terms, so it needs
    # only its Witt check; any other row brings the series cross-check.
    code, plain, _ = run_cli(capsys, "table", "--max-grade", "6", "--row", "dim")
    assert code == 0

    def refuse(*args):
        raise AssertionError("table --row dim built a series")

    monkeypatch.setattr(cli, "run_verification", refuse)
    code, out, _ = run_cli(
        capsys, "table", "--max-grade", "6", "--row", "dim", "--verify"
    )
    assert code == 0
    assert out == plain

    calls = []
    monkeypatch.setattr(cli, "run_verification", calls.append)
    code, _, _ = run_cli(
        capsys, "table", "--max-grade", "6", "--row", "compact", "--verify"
    )
    assert code == 0
    assert calls == [6]


def test_unwritable_output_exits_three(tmp_path, capsys):
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = run_cli(capsys, "bch", "--grade", "2", "--output", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"bchnest: error: cannot write {path}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_unwritable_stdout_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(["bch", "--grade", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"bchnest: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_stdout_exits_three():
    # The document is flushed inside the error handling, and nothing is
    # left buffered to fail again when the interpreter exits.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bchnest.cli", "bch", "--grade", "3"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            text=True,
            timeout=120,
        )
    assert proc.returncode == 3
    assert proc.stderr == (
        f"bchnest: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    )


def test_usage_errors_exit_one(capsys):
    for argv in (
        ["bch", "--grade", "0"],
        ["bch", "--grade", "11"],
        ["bch", "--grade", "3", "--vars", "1"],
        ["bch", "--grade", "3", "--vars", "3", "--regime", "grade4"],
        ["identities", "--grade", "1"],
        ["table", "--max-grade", "1"],
        ["nosuchcommand"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()


def test_unsafe_grade_flag_allows_and_warns(capsys):
    code, out, err = run_cli(
        capsys, "identities", "--grade", "11", "--unsafe-grade"
    )
    assert code == 0
    assert "warning" in err
    # 2^9 canonical commutators; the grade-11 homogeneous component has
    # dimension (2^11 - 2) / 11 = 186.
    assert out.startswith("grade 11: 512 commutators, basis 186,")
    # The published rows stop at grade 10; the extra computed grade is not
    # a difference.
    code, out, _ = run_cli(
        capsys, "table", "--max-grade", "11", "--unsafe-grade", "--row", "dim"
    )
    assert code == 0
    assert out.splitlines()[1].endswith("ok")
    assert "computed 1,2,3,6,9,18,30,56,99,186" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_renderers_unit():
    e = LieExpr({(0, 1): F(1, 2)})
    assert series_text(e) == "1/2 [X,Y]"
    assert series_latex(e) == "\\frac{1}{2}\\,[X,Y]"
    assert series_text(LieExpr.zero()) == "0"
    two = LieExpr({(0, 0, 1): F(2)})
    assert series_latex(two) == "2\\,[X,[X,Y]]"
    one = LieExpr({(0,): F(1), (1,): F(-1)})
    assert series_text(one) == "X - Y"
