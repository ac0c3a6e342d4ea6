"""Command-line interface: exit codes, JSON output, determinism; and the
package's export list."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import biorder
from biorder import braid, cli
from biorder.cli import main
from biorder.freegroup import magnus_compare, magnus_expand, parse_word


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_json_roundtrips_through_serialization(capsys):
    code, out, _ = run(capsys, "expand", "x1 x2^-1", "--degree", "3", "--json")
    assert code == 0
    obj = json.loads(out)["series"]
    terms = {tuple(key): Fraction(num, den) for key, num, den in obj["terms"]}
    series = magnus_expand(parse_word("x1 x2^-1", 2), 3)
    assert (obj["rank"], obj["trunc"], terms) == (series.rank, series.trunc, series.terms)


def test_expand_human_output_lists_monomials(capsys):
    code, out, _ = run(capsys, "expand", "x1", "--degree", "2")
    assert code == 0
    assert "X1: 1" in out
    assert "degree: 2" in out


def test_compare_words_human_and_json(capsys):
    code, out, _ = run(capsys, "compare", "x2", "x1")
    assert code == 0
    assert "x2 < x1" in out
    assert "monomial X1" in out
    code, out, _ = run(capsys, "compare", "x2", "x1", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "LESS"
    assert payload["monomial"] == [1]
    assert payload["coefficients"] == [[0, 1], [1, 1]]


def test_compare_braids(capsys):
    code, out, _ = run(capsys, "compare", "A13", "A12", "--braid", "--strands", "3")
    assert code == 0
    assert "A13 < A12" in out
    assert "level 1" in out


def test_compare_braids_parses_both_at_the_larger_strand_count(capsys):
    code, out, err = run(capsys, "compare", "A12", "A14", "--braid", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "GREATER"
    code, out, err = run(capsys, "compare", "A14", "A12", "--braid", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "LESS"


def test_compare_classes_method_reports_undecidedness(capsys):
    # First difference in degree 2, invisible at class 1.
    code, out, _ = run(
        capsys, "compare", "x1 x2", "x2 x1", "--method", "classes",
        "--max-class", "1", "--json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] is None
    code, out, _ = run(
        capsys, "compare", "x1 x2", "x2 x1", "--method", "classes", "--max-class", "2"
    )
    assert code == 0
    assert "x1 x2 > x2 x1" in out


def test_compare_holonomy_method(capsys):
    code, out, _ = run(
        capsys, "compare", "1", "x1", "--method", "holonomy", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "LESS"


def test_comb_output(capsys):
    code, out, _ = run(capsys, "comb", "A12 A13", "--strands", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [[1], [1]]
    assert payload["normal_form"] == "A12 A13"


def test_comb_on_ten_strands_uses_the_comma_form(capsys):
    code, out, _ = run(capsys, "comb", "A1,10 A23", "--strands", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["strands"] == 10
    assert payload["braid"] == "A1,10 A23"
    assert payload["factors"] == [[], [2]] + [[]] * 6 + [[1]]
    assert payload["normal_form"] == "A23 A1,10"


def test_invariants_output(capsys):
    code, out, _ = run(
        capsys, "invariants", "A13 A23", "--strands", "3", "--factor", "2",
        "--degree", "2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["Y1"] == [1, 1]
    assert payload["invariants"]["Y1Y2"] == [1, 1]
    assert payload["invariants"]["Y2Y1"] == [0, 1]


def test_invariants_validate_factor_and_degree_before_the_table(capsys):
    for flags, message in [
        (("--factor", "0"), "factor must be in 1..2, got 0"),
        (("--factor", "3", "--degree", "0"), "factor must be in 1..2, got 3"),
        (("--factor", "1", "--degree", "-2"), "degree must be >= 0, got -2"),
    ]:
        code, out, err = run(capsys, "invariants", "A12", "--strands", "3", *flags)
        assert (code, out) == (1, "")
        assert err == f"biorder: error: {message}\n"


def test_singular_sum_witness_value(capsys):
    code, out, _ = run(
        capsys, "singular-sum", "*A13 *A13", "--strands", "3",
        "--factor", "2", "--monomial", "1,1", "--json",
    )
    assert code == 0
    assert json.loads(out)["sum"] == [4, 1]


def test_holonomy_subcommand(capsys):
    code, out, _ = run(capsys, "holonomy", "x1", "--degree", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    value, err = payload["coefficients"]["X1X1"]
    assert abs(value - 0.5) <= err + 1e-9


def test_holonomy_of_a_long_power_exits_zero(capsys):
    argv = ["holonomy", " ".join(["x1"] * 30), "--rank", "1", "--degree", "4"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "X1X1X1X1: +" in out
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    value, bar = json.loads(out)["coefficients"]["X1X1X1X1"]
    assert abs(value - 30**4 / 24) <= bar


def test_holonomy_compare_decides_below_a_failing_degree(capsys):
    left = " ".join(["x1"] * 40)
    code, out, _ = run(
        capsys, "compare", left, "x2", "--rank", "2", "--method", "holonomy", "--json"
    )
    assert code == 0
    expected = magnus_compare(parse_word(left, 2), parse_word("x2", 2))
    assert json.loads(out)["verdict"] == expected.name == "GREATER"


def test_holonomy_degree_cap_names_real_options(capsys):
    code, _, err = run(capsys, "holonomy", "x1 x2", "--degree", "5")
    assert code == 1
    assert "pass --allow-deep" in err
    assert "allow_deep=True" not in err
    code, out, _ = run(capsys, "holonomy", "x1", "--degree", "5", "--allow-deep")
    assert code == 0
    assert "X1X1X1X1X1:" in out
    code, _, err = run(
        capsys, "compare", "x1", "x2", "--method", "holonomy", "--degree", "5"
    )
    assert code == 1
    assert "holonomy route of compare is capped at degree 4" in err
    assert "allow" not in err
    # Freely equal words stay EQUAL at any degree, as before.
    code, out, _ = run(
        capsys, "compare", "x1", "x1", "--method", "holonomy", "--degree", "5"
    )
    assert code == 0
    assert out == "x1 == x1\n"


def test_verify_passes_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--samples", "30", "--json")
    assert code == 0
    assert json.loads(first)["passed"] is True
    code, second, _ = run(capsys, "verify", "--samples", "30", "--json")
    assert code == 0
    assert first == second


def test_verify_on_two_strands_has_no_relators_to_insert(capsys):
    code, out, err = run(capsys, "verify", "--samples", "20", "--strands", "2", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["relator_insertions"] == {"samples": 0, "failures": []}
    assert payload["passed"] is True


def test_verify_builds_only_the_relators_it_draws(capsys, monkeypatch):
    argvs = [("verify", "--samples", "60", "--strands", n, "--json") for n in ("5", "6")]
    outputs = [run(capsys, *argv) for argv in argvs]
    with monkeypatch.context() as patch:  # the route through every relator
        patch.setattr(cli, "conjugation_relator", lambda n, k: braid.conjugation_relators(n)[k])
        assert [run(capsys, *argv) for argv in argvs] == outputs

    def refuse(strands):
        raise AssertionError(f"built all relators of P_{strands}")

    monkeypatch.setattr(braid, "conjugation_relators", refuse)
    monkeypatch.setattr(cli, "conjugation_relators", refuse, raising=False)
    code, out, err = run(capsys, "verify", "--samples", "20", "--strands", "12", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["relator_insertions"] == {"samples": 5, "failures": []}


def test_verify_human_output_names_suites(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "20")
    assert code == 0
    assert "seed: 7" in out
    assert "relator-insertion invariance" in out
    assert out.strip().endswith("PASS")


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "compare", "x1")[0] == 1  # missing operand
    code, _, err = run(capsys, "expand", "x1 !!")
    assert code == 1
    assert "col" in err
    code, _, err = run(
        capsys, "singular-sum", "*A13", "--strands", "3",
        "--factor", "2", "--monomial", "one",
    )
    assert code == 1
    assert "monomial" in err
    code, _, err = run(capsys, "verify", "--strands", "1")
    assert code == 1
    assert err == "biorder: error: strands must be >= 2, got 1\n"
    code, out, err = run(capsys, "verify", "--samples", "-3")
    assert (code, out) == (1, "")
    assert err == "biorder: error: samples must be >= 0, got -3\n"
    for argv in (
        ("holonomy", "x1", "--degree", "-1"),
        ("compare", "x1", "x2", "--method", "holonomy", "--degree", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "biorder: error: degree must be >= 0, got -1\n"


def test_braid_syntax_errors_exit_one(capsys):
    code, _, err = run(capsys, "comb", "A21", "--strands", "3")
    assert code == 1
    assert "col 1" in err


def test_degree_env_var_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("BIORDER_DEGREE", "2")
    code, out, _ = run(capsys, "expand", "x1", "--json")
    assert code == 0
    assert json.loads(out)["degree"] == 2
    monkeypatch.setenv("BIORDER_DEGREE", "junk")
    code, _, err = run(capsys, "expand", "x1")
    assert code == 1
    assert "BIORDER_DEGREE" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "compare", "--help")[0] == 0


def test_rank_inference(capsys):
    code, out, _ = run(capsys, "expand", "x3", "--degree", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["rank"] == 3


def test_closed_stdout_pipe_exits_one_without_traceback():
    # stdout is a pipe nobody reads from, as after `biorder ... | head` exits
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "biorder.cli", "expand", "x1 x2", "--degree", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_every_export_resolves_once():
    assert len(set(biorder.__all__)) == len(biorder.__all__)
    missing = [name for name in biorder.__all__ if not hasattr(biorder, name)]
    assert not missing
