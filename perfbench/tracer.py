"""Spans and counters at the boundaries of nilregular's layers, from outside.

:meth:`Tracer.install` replaces each traced entry point with a wrapper in
every nilregular module that binds it (``reduce`` is bound in
``rewriting``, ``elements``, ``analysis`` and the package itself) and on
the classes that own the traced methods; :meth:`Tracer.uninstall` puts the
originals back.  A wrapper records one span (name, start, end, parent and
the op it belongs to) in flat arrays kept in memory, adds its self time
(duration minus the time its child spans cover) to its name's total, and
updates the counters that make ratios measurable where the work happens.
``fields`` is not wrapped: its calls run millions of times per run, so their
cost shows inside the self time of ``elements`` and ``linalg``.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("rewriting.reduce.calls", "count", "lower"),
    ("rewriting.reduce.self_s", "s", "lower"),
    ("rewriting.reduce.letters_in", "letters", "lower"),
    ("rewriting.reduce.steps", "count", "lower"),
    ("rewriting.concat_reduce.calls", "count", "lower"),
    ("rewriting.concat_reduce.self_s", "s", "lower"),
    ("rewriting.concat_reduce.distinct", "count", "lower"),
    ("rewriting.concat_reduce.repeat_ratio", "ratio", "higher"),
    ("elements.mul.calls", "count", "lower"),
    ("elements.mul.self_s", "s", "lower"),
    ("elements.mul.term_pairs", "count", "lower"),
    ("elements.linear_combination.calls", "count", "lower"),
    ("elements.linear_combination.self_s", "s", "lower"),
    ("elements.linear_combination.terms_in", "count", "lower"),
    ("elements.parse_element.calls", "count", "lower"),
    ("elements.parse_element.self_s", "s", "lower"),
    ("elements.parse_element.chars_in", "chars", "lower"),
    ("analysis.families", "count", "higher"),
    ("analysis.check_tau_families.self_s", "s", "lower"),
    ("analysis.build_c_set.calls", "count", "lower"),
    ("analysis.build_c_set.self_s", "s", "lower"),
    ("analysis.build_c_set.occurrences", "count", "lower"),
    ("analysis.classify_tau_occurrences.calls", "count", "lower"),
    ("analysis.classify_tau_occurrences.self_s", "s", "lower"),
    ("analysis.c_sets_per_family", "ratio", "lower"),
    ("analysis.search.self_s", "s", "lower"),
    ("analysis.search.candidates", "count", "higher"),
    ("matrixrep.membership.calls", "count", "lower"),
    ("matrixrep.membership.self_s", "s", "lower"),
    ("matrixrep.phi.calls", "count", "lower"),
    ("matrixrep.phi.self_s", "s", "lower"),
    ("matrixrep.matrix_mul.calls", "count", "lower"),
    ("matrixrep.matrix_mul.self_s", "s", "lower"),
    ("matrixrep.verify_phi_faithful.calls", "count", "lower"),
    ("matrixrep.verify_phi_faithful.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.solve.cells", "count", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.rank.cells", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("rewriting.errors", "count", "lower"),
    ("elements.errors", "count", "lower"),
    ("analysis.errors", "count", "lower"),
    ("matrixrep.errors", "count", "lower"),
    ("linalg.errors", "count", "lower"),
    ("cli.errors", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# (module, attribute or Class.method, span name, layer)
TARGETS = (
    ("rewriting", "reduce", "rewriting.reduce", "rewriting"),
    ("rewriting", "concat_reduce", "rewriting.concat_reduce", "rewriting"),
    ("elements", "AlgebraElement.__mul__", "elements.mul", "elements"),
    ("elements", "linear_combination", "elements.linear_combination", "elements"),
    ("elements", "parse_element", "elements.parse_element", "elements"),
    ("analysis", "check_tau_forms_families", "analysis.check_tau_families", "analysis"),
    ("analysis", "check_tau_uniqueness_families", "analysis.check_tau_families",
     "analysis"),
    ("analysis", "build_c_set", "analysis.build_c_set", "analysis"),
    ("analysis", "classify_tau_occurrences", "analysis.classify_tau_occurrences",
     "analysis"),
    ("analysis", "search_unit_regular_witness", "analysis.search", "analysis"),
    ("matrixrep", "MatrixModel.phi", "matrixrep.phi", "matrixrep"),
    ("matrixrep", "MatrixModel.membership", "matrixrep.membership", "matrixrep"),
    ("matrixrep", "MatrixElement.__mul__", "matrixrep.matrix_mul", "matrixrep"),
    ("matrixrep", "verify_phi_faithful", "matrixrep.verify_phi_faithful", "matrixrep"),
    ("linalg", "solve", "linalg.solve", "linalg"),
    ("linalg", "rank", "linalg.rank", "linalg"),
    ("cli", "main", "cli.main", "cli"),
)


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


class Tracer:
    """Records spans and counters for one traced run (single thread)."""

    def __init__(self):
        self.counters: defaultdict[str, float] = defaultdict(int)
        self.op = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("H")
        self._span_parent = array("l")
        self._span_op = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[tuple] = []
        self._stats: dict[str, list] = {}
        self._last_error = None
        self._seen_pairs: set = set()
        self._restore: list[tuple] = []
        self._run_op = self._wrap(lambda call: call(), "op", "benchmark")

    # ---- counter hooks: ``before`` may replace the arguments and returns a
    # token for ``after``; term maps are sized through the private
    # ``_terms`` slot because the public accessor copies them

    def _hooks(self) -> dict:
        c = self.counters

        def reduce_after(args, result, token):
            c["rewriting.reduce.letters_in"] += len(args[0])
            c["rewriting.reduce.steps"] += result.steps

        def concat_before(args):
            key = args[:3]
            if key in self._seen_pairs:
                c["rewriting.concat_reduce.repeats"] += 1
            else:
                self._seen_pairs.add(key)
            return args, None

        def mul_after(args, result, token):
            if hasattr(args[1], "_terms"):
                c["elements.mul.term_pairs"] += len(args[0]._terms) * len(args[1]._terms)

        def combination_before(args):
            pairs = list(args[1])
            c["elements.linear_combination.terms_in"] += sum(
                len(element._terms) for _, element in pairs)
            return (args[0], pairs) + args[2:], None

        def counting(key, measure):
            def after(args, result, token):
                c[key] += measure(args, result)
            return after

        def stdout_before(args):
            return args, sys.stdout.tell()

        def stdout_after(args, result, token):
            c["cli.output_bytes"] += sys.stdout.tell() - token

        return {
            "rewriting.reduce": (None, reduce_after),
            "rewriting.concat_reduce": (concat_before, None),
            "elements.mul": (None, mul_after),
            "elements.linear_combination": (combination_before, None),
            "elements.parse_element": (None, counting(
                "elements.parse_element.chars_in", lambda a, r: len(a[0]))),
            "analysis.check_tau_families": (None, counting(
                "analysis.families", lambda a, r: r.candidates_examined)),
            "analysis.build_c_set": (None, counting(
                "analysis.build_c_set.occurrences", lambda a, r: len(r))),
            "analysis.search": (None, counting(
                "analysis.search.candidates", lambda a, r: r.candidates_examined)),
            "linalg.solve": (None, counting("linalg.solve.cells", lambda a, r: _cells(a[0]))),
            "linalg.rank": (None, counting("linalg.rank.cells", lambda a, r: _cells(a[0]))),
            "cli.main": (stdout_before, stdout_after),
        }

    def _wrap(self, fn, name: str, layer: str, before=None, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        name_id = self._name_ids[name]
        stat = self._stats.setdefault(name, [0, 0.0])
        stack = self._stack
        names, parents, ops = self._span_name, self._span_parent, self._span_op
        starts, ends = self._span_start, self._span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = None
            if before is not None:
                args, token = before(args)
            index = len(starts)
            frame = [0.0]
            names.append(name_id)
            parents.append(stack[-1][1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append((frame, index))
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.counters[f"{layer}.errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                ends[index] = end
                duration = end - start
                if stack:
                    stack[-1][0][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
            if after is not None:
                after(args, result, token)
            return result

        return traced

    def run_op(self, index: int, call):
        """Run one op's call as a root span; its child spans share its index."""
        self.op = index
        return self._run_op(call)

    def install(self) -> None:
        """Wrap every target in every loaded nilregular module binding it."""
        modules = [module for name, module in list(sys.modules.items())
                   if name == "nilregular" or name.startswith("nilregular.")]
        hooks = self._hooks()
        for module_name, attr, name, layer in TARGETS:
            owner = sys.modules.get(f"nilregular.{module_name}")
            if owner is None:
                continue  # not imported, so nothing can call it
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, name, layer, before, after))
                self._restore.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, layer, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_ratio, which needs
        the untraced run."""
        c = self.counters
        values = dict(c)
        for name, (calls, self_s) in self._stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        concat_calls = values.get("rewriting.concat_reduce.calls", 0)
        values["rewriting.concat_reduce.distinct"] = len(self._seen_pairs)
        values["rewriting.concat_reduce.repeat_ratio"] = (
            c["rewriting.concat_reduce.repeats"] / concat_calls if concat_calls else 0.0)
        families = c["analysis.families"]
        values["analysis.c_sets_per_family"] = (
            values.get("analysis.build_c_set.calls", 0) / families if families else 0.0)
        values["trace.spans"] = len(self._span_start)
        return {name: values.get(name, 0) for name, _, _ in PER_LAYER
                if name != "trace.overhead_ratio"}

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line, times in seconds from
        the first span: op, index, parent, name, start, end."""
        origin = self._span_start[0] if self._span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self._span_start)):
                out.write(f"{self._span_op[i]}\t{i}\t{self._span_parent[i]}\t"
                          f"{self._names[self._span_name[i]]}\t"
                          f"{self._span_start[i] - origin:.7f}\t"
                          f"{self._span_end[i] - origin:.7f}\n")
