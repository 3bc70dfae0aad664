"""Command-line behavior: outputs, exit codes, JSON reports."""

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


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = VerificationReport(
        check="separativity", parameters={}, status="fail",
        witness={"identity": "left"}, candidates_examined=1, elapsed_ms=0.1)
    monkeypatch.setattr(cli, "check_separativity_identities",
                        lambda field: failing)
    code, out, _ = run_cli(capsys, "verify", "separativity")
    assert code == 1
    assert out.startswith("[fail]")


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
    code = ("import sys, nilregular, nilregular.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)))")
    completed = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, env=_child_env())
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_reduce_of_a_long_literal(capsys):
    literal = " ".join(["x", "q"] * 10000 + ["x"])
    code, out, _ = run_cli(capsys, "reduce", "--json", literal)
    assert code == 0
    assert json.loads(out)["terms"] == {"x": "1"}


def test_workers_flag_reaches_the_search(capsys):
    code, out, _ = run_cli(capsys, "verify", "unit-regular-search",
                           "--max-word-len", "2", "--field", "gf2",
                           "--workers", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["parameters"]["workers"] == 2
    assert payload["status"] == "exhausted"
