"""Command-line behavior: outputs, exit codes, JSON reports."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nilregular import cli
from nilregular.reports import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_goldens(capsys):
    code, out, _ = run_cli(capsys, "reduce", "q^2 x q x q^3 x^2 q")
    assert code == 0
    assert out.strip() == "q^4 x^2 q"
    assert run_cli(capsys, "reduce", "x^3")[1].strip() == "0"
    assert run_cli(capsys, "reduce", "1")[1].strip() == "1"


def test_reduce_element_literal_in_canonical_order(capsys):
    code, out, _ = run_cli(capsys, "reduce", "1 - x q + 2 q^2 x + q x q")
    assert code == 0
    assert out.strip() == "1 + q - x q + 2 q^2 x"


def test_reduce_in_the_other_presentation(capsys):
    code, out, _ = run_cli(capsys, "reduce", "b a b a^2", "--presentation", "R")
    assert code == 0
    assert out.strip() == "0"


def test_reduce_parse_error_is_usage(capsys):
    code, out, err = run_cli(capsys, "reduce", "q^^2")
    assert code == 2
    assert "position" in err


def test_reduce_json(capsys):
    code, out, _ = run_cli(capsys, "reduce", "q x q", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["normal_form"] == "q"
    assert payload["input"] == "q x q"
    assert payload["terms"] == {"q": "1"}


def test_basis_counts_and_count_line(capsys):
    code, out, _ = run_cli(capsys, "basis", "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "7 words of length <= 2"
    assert lines[:-1] == ["1", "x", "q", "x^2", "x q", "q x", "q^2"]
    code, out, _ = run_cli(capsys, "basis", "0")
    assert out.strip().splitlines() == ["1", "1 words of length <= 0"]
    code, out, _ = run_cli(capsys, "basis", "3", "--json")
    assert json.loads(out)["count"] == 12


def test_basis_other_presentation(capsys):
    code, out, _ = run_cli(capsys, "basis", "2", "--presentation", "R", "--json")
    payload = json.loads(out)
    assert payload["count"] == 6
    assert "a b" in payload["words"]


def test_verify_pass_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "separativity")
    assert code == 0
    assert out.startswith("[pass] separativity")


def test_verify_exhausted_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "unit-regular-search",
                           "--max-word-len", "2", "--field", "gf2")
    assert code == 0
    assert out.startswith("[exhausted]")


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "determinant", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["check"] == "determinant"
    assert payload["status"] == "pass"
    assert payload["parameters"]["seed"] == 0
    assert "witness" not in payload


def test_main_calls_share_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(parser, *args, **kwargs):
        parsers.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert run_cli(capsys, "reduce", "x q x")[:2] == (0, "x\n")
    assert run_cli(capsys, "basis", "0")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_verify_unknown_check_is_usage(capsys):
    code = cli.main(["verify", "not-a-check"])
    capsys.readouterr()
    assert code == 2


def test_missing_subcommand_is_usage(capsys):
    code = cli.main([])
    capsys.readouterr()
    assert code == 2


def test_bad_flag_value_is_usage(capsys):
    code = cli.main(["basis", "2", "--n", "0"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "phi-faithful", "--n", "2"),
    ("verify", "primeness", "--n", "2"),
    ("verify", "unit-regular-search", "--n", "1"),
    ("reduce", "x", "--n", "1"),
    ("basis", "2", "--n", "1"),
    ("reduce", "1/0 x"),
    ("reduce", "--field", "gf2", "1/2 x"),
    ("reduce", "q^1000000 q^1000000"),
], ids=" ".join)
def test_rejected_config_is_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("argv, flag", [
    (("reduce", "x", "--n", "1000001"), "--n"),
    (("basis", "2", "--n", "1000001"), "--n"),
    (("reduce", "x", "--n", str(10**20)), "--n"),
    (("verify", "regularity", "--n", str(10**20)), "--n"),
    (("verify", "regularity", "--n", "10**20"), "--n"),
    (("verify", "regularity", "--field", "gf7\n"), "--field"),
    (("verify", "regularity", "--field", "gf\u0663"), "--field"),
    (("verify", "regularity", "--field", "gf\uff17"), "--field"),
    (("basis", "2", "--n", "\u0663"), "--n"),
    (("basis", "2", "--n", "+3"), "--n"),
    (("basis", "2", "--n", " 3 "), "--n"),
    (("basis", "2", "--n", "1_0"), "--n"),
    (("verify", "regularity", "--max-len", "1_0"), "--max-len"),
    (("verify", "regularity", "--max-word-len", "\uff13"), "--max-word-len"),
    (("verify", "regularity", "--seed", " -\u0663"), "--seed"),
    (("verify", "regularity", "--seed", "1_0"), "--seed"),
    (("basis", "\u0662"), "max_len"),
], ids=["reduce-n-1000001", "basis-n-1000001", "reduce-n-10^20",
        "verify-n-10^20", "verify-n-10**20-text", "field-gf7-newline",
        "field-arabic-indic-3", "field-fullwidth-7", "n-arabic-indic-3",
        "n-plus-3", "n-blank-padded-3", "n-underscore-10", "max-len-underscore-10",
        "max-word-len-fullwidth-3", "seed-blank-minus-arabic-indic-3",
        "seed-underscore-10", "basis-arabic-indic-2"])
def test_flag_values_out_of_range_are_usage(capsys, argv, flag):
    # refused by the flag's type, before a presentation is built; an
    # integer takes ASCII digits only, with no sign but -, blank or _
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[0]}: error: argument {flag}: " in err


def test_integer_flags_keep_their_ranges(capsys):
    args = cli.build_parser().parse_args(
        ["verify", "primeness", "--seed", "-1", "--n", "1000000",
         "--max-len", "0", "--max-word-len", "0"])
    assert (args.seed, args.n, args.max_len, args.max_word_len) == (-1, 10**6, 0, 0)
    assert cli.build_parser().parse_args(["basis", "0", "--n", "1"]).max_len_arg == 0
    # past int()'s digit limit a seed is still refused by its flag's type
    code, out, err = run_cli(capsys, "verify", "primeness", "--seed", "9" * 5000)
    assert (code, out) == (2, "")
    assert "verify: error: argument --seed: " in err


def test_n_at_the_word_length_cap_still_reduces(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--n", "1000000", "x^200000")
    assert (code, out) == (0, "x^200000\n")


@pytest.mark.parametrize("argv", [
    ("basis", "2", "--presentation", "R", "--n", "1"),
    ("reduce", "a", "--presentation", "R", "--n", "1"),
    ("verify", "confluence", "--presentation", "R", "--n", "1"),
], ids=" ".join)
def test_presentation_r_refuses_n_1_in_terms_of_n(capsys, argv):
    # R is a^(n-1) = 0: the refusal names the n the user gave, not n - 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: presentation R needs n >= 2, not n = 1\n"


@pytest.mark.parametrize("literal, position", [
    ("q^" + "9" * 5000, 0),
    ("9" * 5000 + " x", 0),
    ("1/" + "9" * 5000 + " x", 2),
], ids=["exponent", "coefficient", "denominator"])
def test_overlong_digit_strings_are_usage(capsys, literal, position):
    # past 4,300 digits CPython's int() raises its own bare ValueError
    code, out, err = run_cli(capsys, "reduce", literal)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")
    assert f"(at position {position})" in line


@pytest.mark.parametrize("literal, reason, position", [
    ("q^99999999", "exponent too large", 0),
    ("q^1000000 q^1000000", "word too long", 10),
    ("x + 2 x y", "unexpected character", 8),
], ids=["exponent", "length", "letter"])
def test_word_errors_keep_their_reason(capsys, literal, reason, position):
    code, out, err = run_cli(capsys, "reduce", literal)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: bad word in term: {reason} (at position {position})"]


@pytest.mark.parametrize("check", ["types-lemma", "tau-forms", "tau-unique",
                                   "separativity", "determinant"])
def test_checks_fixed_at_n3_refuse_other_n(capsys, check):
    code, out, err = run_cli(capsys, "verify", check, "--n", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: {check} is stated for n = 3 only, not n = 4\n"


@pytest.mark.parametrize("check", sorted(set(cli.CHECKS) - {"confluence"}))
def test_checks_stated_for_s_refuse_presentation_r(capsys, check):
    code, out, err = run_cli(capsys, "verify", check, "--presentation", "R")
    assert code == 2
    assert out == ""
    assert err == (f"error: {check} is stated for presentation = S only, "
                   "not presentation = R\n")


def test_confluence_runs_in_presentation_r(capsys):
    code, out, _ = run_cli(capsys, "verify", "confluence",
                           "--presentation", "R", "--max-len", "4")
    assert code == 0
    assert out.startswith("[pass] confluence")


@pytest.mark.parametrize("argv", [
    ("reduce", "x", "--seed", "1"),
    ("reduce", "x", "--max-len", "3"),
    ("basis", "2", "--max-len", "3"),
    ("basis", "2", "--field", "gf2"),
], ids=" ".join)
def test_flags_a_command_does_not_read_are_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_n2_variant_ignores_n(capsys):
    for n in ("2", "4"):
        code, out, _ = run_cli(capsys, "verify", "n2-variant", "--n", n)
        assert code == 0
        assert out.startswith("[pass] n2-variant")


def test_invariant_failures_still_raise(monkeypatch):
    def broken(field):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli, "check_separativity_identities", broken)
    with pytest.raises(RuntimeError):
        cli.main(["verify", "separativity"])


def test_field_flag_accepts_any_library_prime(capsys):
    code, out, _ = run_cli(capsys, "verify", "regularity", "--field", "gf5")
    assert code == 0
    assert out.startswith("[pass] regularity")


def test_field_flag_rejects_a_composite(capsys):
    code = cli.main(["verify", "regularity", "--field", "gf4"])
    assert code == 2
    assert "4 is not prime" in capsys.readouterr().err


def test_field_flag_rejects_a_huge_prime_quickly(capsys):
    started = time.perf_counter()
    code = cli.main(["verify", "regularity", "--field", "gf2305843009213693951"])
    assert code == 2
    assert time.perf_counter() - started < 1.0
    assert "cap" in capsys.readouterr().err


def test_primeness_over_the_largest_prime_field_is_quick(capsys):
    # the coefficient pool is a range, never a list of all p elements
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "primeness", "--field",
                           "gf2147483647", "--max-len", "2")
    assert code == 0
    assert time.perf_counter() - started < 1.0
    assert out.startswith("[pass] primeness")


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = VerificationReport(
        check="separativity", parameters={}, status="fail",
        witness={"identity": "left"}, candidates_examined=1, elapsed_ms=0.1)
    monkeypatch.setattr(cli, "check_separativity_identities",
                        lambda field: failing)
    code, out, _ = run_cli(capsys, "verify", "separativity")
    assert code == 1
    assert out.startswith("[fail]")


@pytest.mark.parametrize("check", sorted(cli.CHECKS))
def test_verify_without_flags_runs_the_run_config_defaults(capsys, monkeypatch, check):
    # the parser takes every default from RunConfig
    seen = []
    passing = VerificationReport(
        check=check, parameters={}, status="pass", witness=None,
        candidates_examined=1, elapsed_ms=0.1)

    def recording_run_check(name, cfg):
        seen.append((name, cfg))
        return passing

    monkeypatch.setattr(cli, "run_check", recording_run_check)
    code, _, _ = run_cli(capsys, "verify", check)
    assert code == 0
    assert seen == [(check, cli.RunConfig(output="text"))]


def test_json_reports_are_reproducible():
    cfg = cli.RunConfig(field_name="gf2", seed=4, max_len=4)
    first = cli.run_check("primeness", cfg).to_dict()
    second = cli.run_check("primeness", cfg).to_dict()
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_every_named_check_dispatches():
    fast = cli.RunConfig(field_name="gf2", max_len=3, max_word_len=1, seed=0)
    slow_names = {"tau-forms", "tau-unique"}  # these sweep 10^4 families
    for name in cli.CHECKS:
        if name in slow_names:
            continue
        report = cli.run_check(name, fast)
        assert report.check == name
        assert report.passed, name


def _child_env():
    # the child interpreter does not inherit pytest's pythonpath setting
    return dict(os.environ,
                PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))


def test_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "nilregular", "reduce", "q x q x"],
        capture_output=True, text=True, env=_child_env())
    assert completed.returncode == 0
    assert completed.stdout.strip() == "q x"


def test_import_does_not_load_the_process_pool():
    # the search runs in one process whatever workers it is given, so
    # neither the import nor a search with a hit loads a process pool
    code = ("import sys, nilregular, nilregular.cli\n"
            "from nilregular.analysis import search_unit_regular_witness\n"
            "from nilregular.fields import PrimeField\n"
            "report = search_unit_regular_witness(\n"
            "    max_word_len=4, field=PrimeField(5), n=2, workers=2)\n"
            "print(report.candidates_examined)\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))")
    completed = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, env=_child_env())
    assert completed.returncode == 0, completed.stderr
    examined, loaded = completed.stdout.split("\n")[:2]
    assert int(examined) == 750 * 5 ** 3 + 32
    assert loaded == "[]"


@pytest.mark.parametrize("argv", [
    ("types-lemma", "--max-len", "5"),
    ("unit-regular-search", "--field", "gf3", "--max-word-len", "2"),
    ("phi-faithful", "--max-len", "6"),
    ("primeness", "--field", "gf2", "--max-len", "4"),
    ("confluence", "--max-len", "6"),
], ids=lambda argv: argv[0])
def test_json_reports_do_not_depend_on_the_hash_seed(argv):
    # words hash as strings, and string hashes are salted per process
    reports = []
    for seed in ("0", "1"):
        completed = subprocess.run(
            [sys.executable, "-m", "nilregular", "verify", *argv, "--json"],
            capture_output=True, text=True,
            env=dict(_child_env(), PYTHONHASHSEED=seed))
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        report.pop("elapsed_ms")
        reports.append(report)
    assert reports[0] == reports[1]


def test_reduce_of_a_long_literal(capsys):
    literal = " ".join(["x", "q"] * 10000 + ["x"])
    code, out, _ = run_cli(capsys, "reduce", "--json", literal)
    assert code == 0
    assert json.loads(out)["terms"] == {"x": "1"}


def test_workers_flag_is_a_usage_error(capsys):
    # the search runs in one process, and the CLI has no flag for workers
    code, out, err = run_cli(capsys, "verify", "unit-regular-search",
                             "--max-word-len", "2", "--field", "gf2",
                             "--workers", "2", "--json")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --workers 2" in err
