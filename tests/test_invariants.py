"""Invariants the code relies on raise explicit errors, so they still hold
under ``python -O``, which strips ``assert`` statements."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import nilregular

PACKAGE_ROOT = str(Path(nilregular.__file__).resolve().parents[1])


def run_optimized(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env)


def test_concat_reduce_seam_uniqueness_survives_optimization():
    # a system labelled S whose nonzero products need two steps at the seam
    completed = run_optimized("""
        from nilregular.rewriting import RewriteSystem, Rule, parse_word, concat_reduce
        assert False  # proves asserts are stripped
        system = RewriteSystem(label="S", letters=("x", "q"), nilpotent_letter="x",
                               nilpotency_degree=3, rules=(Rule(("x", "x"), ("x",)),),
                               interior_min_exponent=2)
        concat_reduce(parse_word("x"), parse_word("x^2"), system)
    """)
    assert completed.returncode == 1
    assert "RuntimeError: interface reduction not unique for x * x^2" in completed.stderr


def test_find_tau_off_form_survives_optimization():
    completed = run_optimized("""
        from nilregular.analysis import COccurrence, CSet, find_tau
        from nilregular.rewriting import parse_word, xq_system
        assert False  # proves asserts are stripped
        word = parse_word("q x q^2 x")
        occurrence = COccurrence(word, parse_word("q"), parse_word("x"), "type-I", 1)
        find_tau(CSet((occurrence,), xq_system(3)))
    """)
    assert completed.returncode == 1
    assert "RuntimeError: largest C-word q x q^2 x off-form" in completed.stderr
