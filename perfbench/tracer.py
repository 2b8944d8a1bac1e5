"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of every ``evqc.*``
module in each ``evqc`` namespace that binds it (modules import by name,
so ``evqc.engine.total_spin`` and ``evqc.cli.total_spin`` are both
replaced), and wraps ``__post_init__`` of the public classes, where their
construction-time validation runs.  Each call becomes a span
``[name, layer, start, end, parent, operation id]`` kept in memory; the
layer is the defining module.  ``uninstall`` puts the originals back.

A few hooks count work from the calls' arguments and results ("computed"
counters); they depend only on the inputs, so they repeat exactly between
runs of the same code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("funcspace", "spinops", "states", "engine", "measstruct", "adversary", "timedomain", "cli")
VERDICTS = ("cn_decide_thermal", "dj_decide_lifted", "dj_decide_pseudopure")
READOUTS = ("expectation", "s_functional", "trace_expectation")


def _operator_built(counts, args, kwargs, result):
    from evqc.spinops import Operator

    if isinstance(result, Operator):
        counts["spinops.builds"] += 1
        counts["spinops.bytes_built"] += result.dim * result.dim * 16


def _signal_bytes(counts, args, kwargs, result):
    from evqc import timedomain

    bound = inspect.signature(timedomain.signal).bind(*args, **kwargs)
    rho, m = bound.arguments["rho"], bound.arguments["m"]
    nonzero = int((rho.mat * m.mat.T != 0).sum())
    counts["timedomain.signal.bytes_computed"] += bound.arguments["count"] * nonzero * 16


def _search_result(counts, args, kwargs, result):
    counts["measstruct.evaluations"] += result.evaluations
    counts["measstruct.searches"] += 1
    counts["measstruct.feasible"] += int(result.feasible)


HOOKS = {
    ("timedomain", "signal"): _signal_bytes,
    ("measstruct", "search_max_c_ratio"): _search_result,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)  # per operation id
        self.op = -1
        self._stack: list[int] = []
        self._patches = self._plan()
        self._installed = False

    def _open(self, name, layer) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, layer, hook=None):
        if inspect.isgeneratorfunction(fn):
            # Time each resumption, so the consumer's work between items
            # is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name, layer)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                # Its own span, so the caller's self time does not include it.
                idx = self._open("hook", "trace")
                try:
                    hook(self.counters[self.op], args, kwargs, result)
                finally:
                    self._close(idx)
            return result

        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every binding to patch."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "evqc" or name.startswith("evqc."))]
        wrappers: dict[object, object] = {}
        patches = []
        for module in modules:
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__name__", "_").startswith("_"):
                    continue
                origin = getattr(value, "__module__", "") or ""
                if not origin.startswith("evqc."):
                    continue
                layer = origin.split(".")[1]
                if inspect.isfunction(value):
                    if value not in wrappers:
                        hook = HOOKS.get((layer, value.__name__))
                        if hook is None and layer == "spinops":
                            hook = _operator_built
                        wrappers[value] = self._wrap(value, value.__name__, layer, hook)
                    patches.append((module, attr, value, wrappers[value]))
                elif inspect.isclass(value) and "__post_init__" in vars(value) and value not in wrappers:
                    original = vars(value)["__post_init__"]
                    wrappers[value] = self._wrap(original, value.__name__, layer)
                    patches.append((value, "__post_init__", original, wrappers[value]))
        return patches

    def install(self) -> None:
        if not self._installed:
            for target, attr, _, wrapper in self._patches:
                setattr(target, attr, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)
            self._installed = False

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; layer 'bench'."""
        self.op = op_id
        idx = self._open("op", "bench")
        try:
            yield
        finally:
            self._close(idx)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [sp[3] - sp[2] - c for sp, c in zip(self.spans, child)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, first_pass: set[int], n_ops: int) -> dict[str, float]:
        """Per-layer metrics.

        Times are seconds per operation over every traced operation (span
        durations are inclusive, ``self_s`` excludes child spans).  Counts
        cover the operations in ``first_pass`` only, so they repeat exactly.
        """
        selfs = self.self_times()
        self_s = Counter()
        incl = Counter()
        calls = Counter()  # first pass
        all_calls = Counter()
        for span, own in zip(self.spans, selfs):
            name, layer, start, end, parent, op = span
            self_s[layer] += own
            incl[f"{layer}.{name}"] += end - start
            all_calls[f"{layer}.{name}"] += 1
            if op in first_pass:
                calls[layer] += 1
                calls[f"{layer}.{name}"] += 1
        counts = Counter()
        all_counts = Counter()
        for op, c in self.counters.items():
            all_counts.update(c)
            if op in first_pass:
                counts.update(c)
        ops1 = len(first_pass)

        def per_op(value):
            return value / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        m = {f"{layer}.self_s": per_op(self_s[layer]) for layer in LAYERS + ("bench",)}
        for key in ("spinops.total_spin", "spinops.single_spin", "spinops.w_projector",
                    "spinops.spectral_range", "spinops.Operator",
                    "states.pulsed_thermal", "states.pseudopure", "states.thermal_state",
                    "engine.b_matrix", "engine.s_functional", "engine.expectation",
                    "measstruct.search_max_c_ratio", "adversary.verify_adversary",
                    "funcspace.parse_function", "funcspace.sample_cn", "funcspace.is_in_cn",
                    "funcspace.BoolFunc",
                    "timedomain.signal", "timedomain.hamiltonian", "timedomain.spectrum",
                    "timedomain.find_peaks"):
            m[f"{key}.s"] = per_op(incl[key])
        m["timedomain.csv.s"] = per_op(incl["timedomain.write_trace_csv"] + incl["timedomain.write_spectrum_csv"])
        for layer in ("spinops", "engine", "funcspace", "cli"):
            m[f"{layer}.calls"] = float(calls[layer])
        m["engine.s_functional.calls"] = float(calls["engine.s_functional"])
        m["spinops.bytes_built"] = float(counts["spinops.bytes_built"])
        m["spinops.builds_per_op"] = ratio(counts["spinops.builds"], ops1)
        m["spinops.spectral_range.calls_per_op"] = ratio(calls["spinops.spectral_range"], ops1)
        m["engine.readouts_per_verdict"] = ratio(
            sum(calls[f"engine.{r}"] for r in READOUTS), sum(calls[f"engine.{v}"] for v in VERDICTS)
        )
        m["measstruct.evaluations"] = float(counts["measstruct.evaluations"])
        m["measstruct.evals_per_s"] = ratio(all_counts["measstruct.evaluations"],
                                            incl["measstruct.search_max_c_ratio"])
        m["measstruct.feasible_frac"] = ratio(counts["measstruct.feasible"], counts["measstruct.searches"])
        m["adversary.query_sets"] = float(calls["adversary.cn_witness"])
        m["adversary.query_sets_per_s"] = ratio(all_calls["adversary.cn_witness"],
                                                incl["adversary.verify_adversary"])
        m["timedomain.signal.bytes_computed"] = float(counts["timedomain.signal.bytes_computed"])
        return m
