"""The byte-identical report contract across versions.

Every named check, run at small fixed bounds, must reproduce the JSON
report stored in ``golden_reports.json`` in every field except
``elapsed_ms``.  The two tau sweeps default to 10^4 random families on the
command line, so they are pinned through the library with 100.

After a deliberate change to a report, regenerate the file with
``PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json``
and review the diff.
"""

import json
from pathlib import Path

import pytest

from nilregular import cli
from nilregular.analysis import (
    check_tau_forms_families, check_tau_uniqueness_families)

GOLDEN = Path(__file__).with_name("golden_reports.json")

CONFIGS = {
    "gf2": {"field_name": "gf2", "max_len": 4, "max_word_len": 2, "seed": 3},
    "rational": {"field_name": "rational", "max_len": 4, "max_word_len": 1,
                 "seed": 3},
    "R-n4-gf3": {"presentation": "R", "n": 4, "field_name": "gf3",
                 "max_len": 5, "seed": 1},
    "n4-gf3": {"n": 4, "field_name": "gf3", "max_len": 5, "seed": 1},
    "n2-gf5": {"n": 2, "field_name": "gf5", "max_len": 4, "max_word_len": 1,
               "seed": 2},
    "n2-gf3-L4": {"n": 2, "field_name": "gf3", "max_word_len": 4},
}

SWEEPS = {"tau-forms": check_tau_forms_families,
          "tau-unique": check_tau_uniqueness_families}

_BOUNDED = ("types-lemma", "unit-regular-search", "regularity", "separativity",
            "primeness", "confluence", "phi-faithful", "determinant",
            "n2-variant")

CASES = (
    [(name, "gf2") for name in _BOUNDED]
    + [(name, "rational") for name in _BOUNDED]
    + [("confluence", "R-n4-gf3")]
    + [(name, "n4-gf3") for name in
       ("regularity", "primeness", "phi-faithful", "n2-variant")]
    + [(name, "n2-gf5") for name in
       ("confluence", "regularity", "unit-regular-search", "n2-variant")]
    + [("unit-regular-search", "n2-gf3-L4")]
    + [(name, "library") for name in SWEEPS]
)
IDS = [f"{name}/{config}" for name, config in CASES]


def _report(name: str, config: str):
    if config == "library":
        return SWEEPS[name](random_trials=100, seed=0)
    return cli.run_check(name, cli.RunConfig(**CONFIGS[config]))


def _comparable(report) -> dict:
    data = json.loads(report.to_json())
    data.pop("elapsed_ms")
    return data


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,config", CASES, ids=IDS)
def test_report_matches_golden(golden, name, config):
    assert _comparable(_report(name, config)) == golden[f"{name}/{config}"]


def test_every_named_check_has_a_golden(golden):
    assert {name for name, _ in CASES} == set(cli.CHECKS)
    assert set(golden) == set(IDS)


if __name__ == "__main__":
    print(json.dumps({case_id: _comparable(_report(name, config))
                      for case_id, (name, config) in zip(IDS, CASES)},
                     indent=1, sort_keys=True))
