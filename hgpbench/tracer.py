"""Per-layer tracing of hgpforge from outside the package.

`Tracer.install` replaces each public layer function named in
`LAYER_FUNCTIONS` with a timing wrapper on every binding of it across the
loaded `hgpforge.*` modules: modules that import a function by name hold
their own reference, and patching only the defining module would miss
those calls.  `uninstall` restores the originals.

Per function it records calls, self time (span time minus the time covered
by wrapped children) and exceptions raised, plus a few counts read from
arguments and return values.  Spans (name, start, end, parent span, op id)
stay in memory, in compact arrays, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

LAYER_FUNCTIONS = (
    "cli.main", "cli.read_bundle",
    "product.build_product",
    "css.assemble_css", "css.kunneth_parameters", "css.canonical_logical_basis",
    "css.brute_distance",
    "classical.distance",
    "correctability.is_correctable",
    "diagonal.parse_circuit_text", "diagonal.format_circuit_text",
    "diagonal.preserves_codespace", "diagonal.difference", "diagonal.substitute",
    "diagonal.logical_action", "diagonal.hierarchy_level",
    "diagonal.kernel_mod_power_of_two", "diagonal.transversal_nogo_harness",
    "toric_cnz.build_bundle", "toric_cnz.verify_invariance", "toric_cnz.verify_logical_cnz",
    "f2la.rref", "f2la.kernel_basis", "f2la.solve", "f2la.mat_vec", "f2la.matmul",
    "f2la.kron", "f2la.transpose", "f2la.RowSpace.contains",
)
STATS = (("calls", "count", "lower"), ("self_s", "s", "lower"), ("errors", "count", "lower"))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_difference(c, args, kwargs, result):
    c["diagonal.difference.terms_out"] += len(result)
    c["diagonal.difference.zero"] += result.is_zero()


def _count_substitute(c, args, kwargs, result):
    c["diagonal.substitute.terms_in"] += len(_arg(args, kwargs, 0, "f"))
    c["diagonal.substitute.terms_out"] += len(result)
    c["diagonal.substitute.zero"] += result.is_zero()


def _count_kernel(c, args, kwargs, result):
    c["diagonal.kernel_mod_power_of_two.cells"] += (
        len(_arg(args, kwargs, 0, "rows")) * _arg(args, kwargs, 1, "ncols")
    )
    c["diagonal.kernel_mod_power_of_two.generators"] += len(result)


def _count_preserves(c, args, kwargs, result):
    c["diagonal.preserves_codespace.violations"] += not result.preserves


COUNTERS = {
    "diagonal.difference": _count_difference,
    "diagonal.substitute": _count_substitute,
    "diagonal.kernel_mod_power_of_two": _count_kernel,
    "diagonal.preserves_codespace": _count_preserves,
}
# name -> (unit, better); a zero_ratio is the share of calls whose result
# was the zero polynomial, i.e. work that ended without output.
COUNT_METRICS = {
    "diagonal.difference.terms_out": ("count", "lower"),
    "diagonal.difference.zero_ratio": ("1", "higher"),
    "diagonal.substitute.terms_in": ("count", "lower"),
    "diagonal.substitute.terms_out": ("count", "lower"),
    "diagonal.substitute.zero_ratio": ("1", "higher"),
    "diagonal.kernel_mod_power_of_two.cells": ("count", "lower"),
    "diagonal.kernel_mod_power_of_two.generators": ("count", "lower"),
    "diagonal.preserves_codespace.violations": ("count", "lower"),
}
# The raw counters behind COUNT_METRICS: a zero_ratio is kept as a count of
# zero results and divided by the calls when reported.
RAW_COUNTS = tuple(name.removesuffix("_ratio") for name in COUNT_METRICS)
OVERHEAD_METRIC = ("trace.overhead_ratio", "1", "lower")
SPANS_PER_OP = 2000  # spans kept per op; later ones are counted as dropped
MAX_SPANS = 200_000  # spans kept per tracer


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{fn}.{stat}", unit, better) for fn in LAYER_FUNCTIONS for stat, unit, better in STATS]
    specs += [(name, unit, better) for name, (unit, better) in COUNT_METRICS.items()]
    specs.append(OVERHEAD_METRIC)
    return specs


class Tracer:
    def __init__(self):
        self.op = -1  # id of the op being run; -1 is set-up
        self.stats = {fn: [0, 0.0, 0] for fn in LAYER_FUNCTIONS}  # calls, self_s, errors
        self.counts = dict.fromkeys(RAW_COUNTS, 0)
        self.epoch = perf_counter()
        self.span_name = array("h")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self._op_spans = (None, 0)  # (op id, spans recorded for it)
        self._open: list[int] = []  # span index per open wrapped call, -1 if not kept
        self._child: list[float] = []  # time covered by wrapped children, per open call
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hgpforge" or name.startswith("hgpforge."))]
        for index, key in enumerate(LAYER_FUNCTIONS):
            module_name, *path = key.split(".")
            owner = sys.modules[f"hgpforge.{module_name}"]
            if len(path) == 2:  # a method: patch the class, shared by every module
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                self._patch(cls, path[1], original, self._wrap(index, key, original))
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(index, key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, original, wrapper) -> None:
        self._undo.append((obj, attr, original))
        setattr(obj, attr, wrapper)

    def _wrap(self, index: int, key: str, fn):
        stat = self.stats[key]
        counter = COUNTERS.get(key)
        counts = self.counts
        open_spans, child = self._open, self._child
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            span = self._new_span()
            if span >= 0:
                names.append(index)
                ops.append(self.op)
                parents.append(open_spans[-1] if open_spans else -1)
                starts.append(0.0)
                ends.append(0.0)
            open_spans.append(span)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                t1 = perf_counter()
                elapsed = t1 - t0
                stat[0] += 1
                stat[1] += elapsed - child.pop()
                if child:
                    child[-1] += elapsed
                open_spans.pop()
                if span >= 0:
                    starts[span] = t0 - self.epoch
                    ends[span] = t1 - self.epoch
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def exclude(self, seconds: float) -> None:
        """Count `seconds` spent inside the innermost open call, outside the
        program (a calibration probe), as covered, not as its self time."""
        if self._child:
            self._child[-1] += seconds

    def _new_span(self) -> int:
        """Index for a new span, or -1 once this op or the run is at its cap
        (the span is then counted in the stats but not kept)."""
        op, used = self._op_spans
        if op != self.op:
            op, used = self.op, 0
        if used >= SPANS_PER_OP or len(self.span_start) >= MAX_SPANS:
            self.spans_dropped += 1
            self._op_spans = (op, used)
            return -1
        self._op_spans = (op, used + 1)
        return len(self.span_start)

    # -- results -----------------------------------------------------------

    def values(self) -> dict[str, float]:
        """Raw totals: per-function stats and the argument/result counts."""
        out: dict[str, float] = {}
        for fn, (calls, self_s, errors) in self.stats.items():
            out[f"{fn}.calls"] = calls
            out[f"{fn}.self_s"] = self_s
            out[f"{fn}.errors"] = errors
        out.update(self.counts)
        return out

    def span_columns(self) -> dict:
        return {
            "dropped": self.spans_dropped,
            "name": self.span_name.tolist(),
            "op": self.span_op.tolist(),
            "parent": self.span_parent.tolist(),
            "start_s": [round(x, 7) for x in self.span_start],
            "end_s": [round(x, 7) for x in self.span_end],
        }


def per_layer_metrics(setup: Tracer, loop: Tracer, passes: int, overhead_ratio: float) -> dict[str, dict]:
    """Per-layer metrics for one set-up plus one traced pass of the ladder.

    Loop totals are divided by the number of traced passes, so counts
    repeat exactly from run to run whatever the number of passes.
    """
    a, b = setup.values(), loop.values()
    values = {key: a[key] + b[key] / passes for key in a}
    for name in COUNT_METRICS:
        if name.endswith(".zero_ratio"):
            fn = name[: -len(".zero_ratio")]
            calls = values[f"{fn}.calls"]
            values[name] = values[f"{fn}.zero"] / calls if calls else 0.0
    values[OVERHEAD_METRIC[0]] = overhead_ratio
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()}


def write_spans(path: str, setup: Tracer, loop: Tracer) -> None:
    """Spans of the set-up (op -1) and of the traced passes, with times
    relative to each tracer's creation."""
    payload = {"names": list(LAYER_FUNCTIONS), "setup": setup.span_columns(), "loop": loop.span_columns()}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
