"""Command-line front end: normal forms, basis enumeration, and the
verification harnesses, with text or machine-readable JSON output.

Exit codes distinguish three outcomes so the tool is CI-friendly:
0 means pass (or an exhaustive search that found no witness), 1 means a
check failed and the report carries a witness, 2 means a usage error
(bad flags, unparseable input, unknown check, or a config the command,
check or presentation rejects).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, fields

from .analysis import (
    check_primeness_bounded, check_regularity_identities,
    check_separativity_identities, check_tau_forms_families,
    check_tau_uniqueness_families, check_types_lemma,
    search_unit_regular_witness)
from .elements import Algebra, parse_element
from .fields import field_from_name
from .matrixrep import (
    check_determinant_obstruction, n2_variant_check, verify_phi_faithful)
from .reports import VerificationReport
from .rewriting import (
    MAX_EXPONENT, check_confluence, enumerate_basis, system_from_label)

@dataclass
class RunConfig:
    """Everything a subcommand needs; the seed fully determines any
    randomized behavior."""

    presentation: str = "S"
    n: int = 3
    field_name: str = "rational"
    max_len: int = 6
    max_word_len: int = 3
    seed: int = 0
    output: str = "text"

    @property
    def field(self):
        return field_from_name(self.field_name)

    def algebra(self) -> Algebra:
        return Algebra(system_from_label(self.presentation, self.n), self.field)


def _integer(low: int | None = None, high: int | None = None):
    """A flag type: an integer in ASCII digits with an optional leading -,
    at least low and at most high where they are given."""
    def parse(text: str) -> int:
        if not re.fullmatch(r"-?[0-9]+", text):
            raise argparse.ArgumentTypeError("must be an integer in ASCII digits")
        try:
            value = int(text)
        except ValueError:  # CPython's int() refuses over 4,300 digits
            raise argparse.ArgumentTypeError("has too many digits") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}")
        return value
    return parse


def _field_name(text: str) -> str:
    try:
        field_from_name(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process, on first use: building costs about as much as
    # a whole short reduce.  Flag groups, so that each subcommand accepts
    # only flags it reads; every default is RunConfig's.
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--presentation", choices=("S", "R"),
                       default=RunConfig.presentation,
                       help="which presentation to work in (default %(default)s)")
    # x^n = 0 is spelled out as a rule, so a degree past the word-length cap
    # is refused before that rule is built
    shape.add_argument("--n", type=_integer(1, MAX_EXPONENT), default=RunConfig.n,
                       help="nilpotency degree of the main presentation, at "
                            f"most {MAX_EXPONENT} (default %(default)s; "
                            "R uses degree n-1)")
    shape.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", type=_field_name, default=RunConfig.field_name,
                       dest="field_name",
                       help="coefficient field: rational or gf<p> for a "
                            "prime p < 2^31 in ASCII digits "
                            "(default %(default)s)")
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--max-len", type=_integer(0), default=RunConfig.max_len,
                        help="word-length bound for bounded checks, in ASCII "
                             "digits (default %(default)s)")
    bounds.add_argument("--max-word-len", type=_integer(0),
                        default=RunConfig.max_word_len,
                        help="word-length bound for search pools, in ASCII "
                             "digits (default %(default)s)")
    bounds.add_argument("--seed", type=_integer(), default=RunConfig.seed,
                        help="seed for randomized checks, an integer in ASCII "
                             "digits (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="nilregular",
        description="Exact computations in a nilpotent-generator algebra: "
                    "normal forms, basis enumeration, verification harnesses.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    reduce_parser = subparsers.add_parser(
        "reduce", parents=[shape, field],
        help="print the normal form of an element expression")
    reduce_parser.add_argument("expression",
                               help="element literal, e.g. 'q^2 x q x q^3 x^2 q' "
                                    "or '1 - x q + 2 q^2 x'")

    basis_parser = subparsers.add_parser(
        "basis", parents=[shape],
        help="list the basis words up to a length bound")
    basis_parser.add_argument("max_len_arg", type=_integer(0),
                              metavar="max_len",
                              help="maximum word length to enumerate")

    verify_parser = subparsers.add_parser(
        "verify", parents=[shape, field, bounds],
        help="run one verification harness and report pass/fail")
    verify_parser.add_argument("check", choices=CHECKS,
                               help="which check to run")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The subcommand's flags over the RunConfig defaults."""
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                if hasattr(args, f.name)}
    return RunConfig(**settings, output="json" if args.json else "text")


def cmd_reduce(expression: str, cfg: RunConfig) -> int:
    """Parse an element literal and print its normal form in canonical
    term order."""
    element = parse_element(expression, cfg.algebra())
    if cfg.output == "json":
        payload = {"input": expression, "normal_form": str(element),
                   "terms": element.to_json_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(element)
    return 0


def cmd_basis(max_len: int, cfg: RunConfig) -> int:
    """List the basis words of length at most max_len, sorted, with a
    count line."""
    words = enumerate_basis(max_len, system_from_label(cfg.presentation, cfg.n))
    if cfg.output == "json":
        payload = {"presentation": cfg.presentation, "n": cfg.n,
                   "max_len": max_len, "count": len(words),
                   "words": [str(word) for word in words]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for word in words:
            print(word)
        print(f"{len(words)} words of length <= {max_len}")
    return 0


# Entries resolve their check function when called, so replacing a module
# attribute takes effect.
CHECKS = {
    "types-lemma": lambda cfg: check_types_lemma(max_len=cfg.max_len),
    "tau-forms": lambda cfg: check_tau_forms_families(
        random_len=cfg.max_len, seed=cfg.seed),
    "tau-unique": lambda cfg: check_tau_uniqueness_families(
        random_len=cfg.max_len, seed=cfg.seed),
    "unit-regular-search": lambda cfg: search_unit_regular_witness(
        max_word_len=cfg.max_word_len, field=cfg.field, n=cfg.n),
    "regularity": lambda cfg: check_regularity_identities(n=cfg.n, field=cfg.field),
    "separativity": lambda cfg: check_separativity_identities(field=cfg.field),
    "primeness": lambda cfg: check_primeness_bounded(
        max_len=cfg.max_len, n=cfg.n, field=cfg.field, seed=cfg.seed),
    "confluence": lambda cfg: check_confluence(
        system_from_label(cfg.presentation, cfg.n), max_len=cfg.max_len,
        seed=cfg.seed),
    "phi-faithful": lambda cfg: verify_phi_faithful(max_len=cfg.max_len, n=cfg.n),
    "determinant": lambda cfg: check_determinant_obstruction(seed=cfg.seed),
    "n2-variant": lambda cfg: n2_variant_check(field=cfg.field),
}

# What each check's statement fixes; run_check refuses any other value.
# Only confluence is stated for both presentations.
FIXED = {name: {"presentation": "S"} for name in CHECKS if name != "confluence"}
FIXED.update({name: {"presentation": "S", "n": 3} for name in (
    "types-lemma", "tau-forms", "tau-unique", "separativity", "determinant")})


def run_check(name: str, cfg: RunConfig) -> VerificationReport:
    """Run one named check with the config's bounds, field, and seed."""
    if name not in CHECKS:
        raise ValueError(f"unknown check: {name}")
    for flag, value in FIXED.get(name, {}).items():
        actual = getattr(cfg, flag)
        if actual != value:
            raise ValueError(f"{name} is stated for {flag} = {value} only, "
                             f"not {flag} = {actual}")
    return CHECKS[name](cfg)


def cmd_verify(check: str, cfg: RunConfig) -> int:
    report = run_check(check, cfg)
    if cfg.output == "json":
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other exits too
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    try:
        if args.command == "reduce":
            return cmd_reduce(args.expression, cfg)
        if args.command == "basis":
            return cmd_basis(args.max_len_arg, cfg)
        return cmd_verify(args.check, cfg)
    except ValueError as exc:
        # a rejected config or unparseable input (WordSyntaxError included)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
