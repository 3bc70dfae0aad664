"""Tests of the benchmark itself: seeded inputs, the reference oracles,
injected faults, the traced wrappers, and the refusal to run without
sources.  Run with ``python3 -m pytest perfbench/tests`` from the root."""

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import nilregular as nr  # noqa: E402
import probe  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# one small op per kind, so each test runs in well under a second
SMALL_SLOTS = {
    "tau_sweep": [("forms", 6), ("unique", 7)],
    "unit_search": [],
    "matrix_membership": [("member", 4), ("nonmember", 4), ("faithful", 5)],
    "long_reduce": [(40, "16z"), (24, 12)],
}


def small_ops(name: str, seed: int = 0) -> list[dict]:
    if name == "unit_search":
        return [{"p": 2, "max_word_len": 3, "n": 3}, {"p": 3, "max_word_len": 2, "n": 3}]
    workload = WORKLOADS[name]()
    rng = random.Random(seed)
    return [workload.make(slot, rng) for slot in SMALL_SLOTS[name]]


def run_ops(name: str, ops: list[dict], tracer: Tracer | None = None) -> list:
    workload = WORKLOADS[name]()
    ctx = probe.build(name, nr)
    return [worker.run_op(workload, op, nr, ctx, i, tracer) for i, op in enumerate(ops)]


def error_ratio(records: list) -> float:
    return sum(1 for r in records if not r[1]) / len(records)


@pytest.mark.parametrize("name", WORKLOADS)
def test_fixed_seed_gives_identical_inputs(name):
    def rounds(seed):
        return list(itertools.islice(WORKLOADS[name]().rounds(seed), 2))
    assert rounds(3) == rounds(3)
    assert rounds(3) != rounds(4)
    assert json.loads(json.dumps(rounds(3))) == rounds(3)  # plain data only


@pytest.mark.parametrize("name", WORKLOADS)
def test_unmodified_program_passes_every_oracle(name):
    records = run_ops(name, small_ops(name))
    assert error_ratio(records) == 0
    assert all(r[2] > 0 for r in records)


def test_reference_agrees_with_the_package_at_small_bounds():
    s, r = nr.xq_system(3), nr.ab_system(2)
    assert ref.s_basis(6) == ["".join(w.letters()) for w in nr.enumerate_basis(6, s)]
    assert sorted(ref.r_basis(5)) == sorted(
        "".join(w.letters()) for w in nr.enumerate_basis(5, r))
    assert ref.left_shape(5) == ["".join(w.letters()) for w in nr.left_shape_words(5, s)]
    assert ref.right_shape(5) == ["".join(w.letters()) for w in nr.right_shape_words(5, s)]
    model = nr.MatrixModel(3, nr.QQ)
    for word in ref.s_basis(5):
        image = model.phi(nr.parse_word(word) if word else nr.IDENTITY_WORD)
        expected = ref.phi_word(word)
        for i, j in itertools.product((0, 1), repeat=2):
            got = {"".join(w.letters()): c for w, c in image.entry(i, j).terms().items()}
            assert got == expected[i][j]
        assert ref.word_text(word) == str(nr.parse_word(word) if word else nr.IDENTITY_WORD)


def test_reduce_that_drops_a_letter_raises_error_ratio(monkeypatch):
    original = nr.elements.reduce

    def lossy(word, system, rng=None):
        outcome = original(word, system, rng)
        if outcome.is_zero or outcome.result.is_identity:
            return outcome
        shorter = nr.Word.from_letters(outcome.result.letters()[1:])
        return nr.ReductionOutcome(shorter, outcome.steps)

    monkeypatch.setattr(nr.elements, "reduce", lossy)
    assert error_ratio(run_ops("long_reduce", small_ops("long_reduce"))) > 0


def test_membership_that_flips_in_t_raises_error_ratio(monkeypatch):
    original = nr.MatrixModel.membership

    def flipped(self, matrix, degree_bound=None):
        answer = original(self, matrix, degree_bound)
        return dataclasses.replace(answer, in_t=not answer.in_t)

    monkeypatch.setattr(nr.MatrixModel, "membership", flipped)
    records = run_ops("matrix_membership", small_ops("matrix_membership")[:2])
    assert error_ratio(records) == 1


def test_wrong_candidate_count_raises_error_ratio(monkeypatch):
    original = nr.search_unit_regular_witness

    def short(**kwargs):
        return dataclasses.replace(original(**kwargs), candidates_examined=1)

    monkeypatch.setattr(nr, "search_unit_regular_witness", short)
    assert error_ratio(run_ops("unit_search", small_ops("unit_search"))) == 1


def test_exception_is_counted_not_fatal(monkeypatch):
    original = nr.check_tau_forms_families
    calls = []

    def flaky(**kwargs):
        calls.append(kwargs)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return original(**kwargs)

    monkeypatch.setattr(nr, "check_tau_forms_families", flaky)
    ops = small_ops("tau_sweep")[:1] * 2
    records = run_ops("tau_sweep", ops)
    assert [r[1] for r in records] == [False, True]
    assert records[0][3] == "raised RuntimeError"
    assert error_ratio(records) == 0.5


def test_op_times_are_scaled_by_the_speed_probe(monkeypatch):
    # a host at half the reference speed: scaled times are half the raw ones
    monkeypatch.setattr(probe, "speed_probe", lambda: 2 * probe.REFERENCE_PROBE_S)
    workload = WORKLOADS["long_reduce"]()
    workload.slots = SMALL_SLOTS["long_reduce"]
    records, raw_ms, probe_s = worker.run_pass(
        workload, 1, nr, probe.build("long_reduce", nr), rounds=2)
    assert len(records) == len(raw_ms) == 4
    assert probe_s == 2 * probe.REFERENCE_PROBE_S
    assert [r[0] for r in records] == pytest.approx([ms / 2 for ms in raw_ms])
    assert error_ratio(records) == 0


def test_speed_probe_takes_a_few_milliseconds():
    assert 0.0005 < min(probe.speed_probe() for _ in range(3)) < 0.05


def test_tracer_counts_each_layer_and_restores_the_originals():
    originals = (nr.rewriting.reduce, nr.elements.reduce, nr.MatrixModel.membership,
                 nr.matrixrep.solve, nr.AlgebraElement.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert nr.elements.reduce is not originals[1]
        assert nr.reduce is nr.rewriting.reduce is nr.analysis.reduce
        records = [r for name in WORKLOADS
                   for r in run_ops(name, small_ops(name), tracer)]
    finally:
        tracer.uninstall()
    assert (nr.rewriting.reduce, nr.elements.reduce, nr.MatrixModel.membership,
            nr.matrixrep.solve, nr.AlgebraElement.__mul__) == originals
    assert error_ratio(records) == 0
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _, _ in PER_LAYER} - {"trace.overhead_ratio"}
    for name in ("rewriting.reduce", "rewriting.concat_reduce", "elements.mul",
                 "elements.linear_combination", "elements.parse_element",
                 "analysis.build_c_set", "analysis.classify_tau_occurrences",
                 "matrixrep.membership", "matrixrep.phi", "matrixrep.matrix_mul",
                 "matrixrep.verify_phi_faithful", "linalg.solve", "linalg.rank",
                 "cli.main"):
        assert metrics[f"{name}.calls"] > 0, name
        assert metrics[f"{name}.self_s"] > 0, name
    assert metrics["analysis.families"] == 2 * ref.tau_family_count(1, 100)
    assert 0 < metrics["rewriting.concat_reduce.repeat_ratio"] < 1
    assert metrics["cli.output_bytes"] > 0
    assert all(metrics[f"{layer}.errors"] == 0
               for layer in ("rewriting", "elements", "analysis", "matrixrep",
                             "linalg", "cli"))


def test_traced_exception_counts_once_where_it_started(monkeypatch):
    def broken(rows, field):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(nr.linalg, "row_reduce", broken)
    tracer = Tracer()
    tracer.install()
    try:
        records = run_ops("matrix_membership", small_ops("matrix_membership")[:1], tracer)
    finally:
        tracer.uninstall()
    assert records[0][3] == "raised ZeroDivisionError"
    metrics = tracer.metrics()
    assert metrics["linalg.errors"] == 1
    assert metrics["matrixrep.errors"] == 0


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tau_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
