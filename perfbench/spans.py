"""Spans around calls into dickekw, recorded from outside the package.

``install`` wraps every public function of ``qmat``, ``states``,
``correlations``, ``tomography`` and ``io`` -- plus scipy's ``minimize`` as
bound in ``correlations`` -- and rebinds the wrapper at every name through
which a dickekw module holds the function (module attributes and
``from .qmat import ...`` aliases alike).  Nothing under ``src/`` changes.

Each call becomes a span: name, start, end, parent span id and op id.
Self time is the span's duration minus the time its direct children cover.
Every call feeds the per-(op, function) aggregate; the full span record is
kept only for the first ``SPANS_PER_OP_AND_NAME`` calls of each function in
each op, because ``correlations.class_of`` alone runs about 220k times per
report.  Private helpers (``_conditional_entropy``, ``_psd_project``, ...),
dataclass methods and scipy internals are not wrapped and count as their
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("qmat", "states", "correlations", "tomography", "io")
SPANS_PER_OP_AND_NAME = 200


class _Counter(dict):
    def __missing__(self, key):
        return 0


def _accumulate(counts, key, value):
    """Add a counter; ``stack_mb`` keeps the largest value instead."""
    if key.endswith(".stack_mb"):
        counts[key] = max(counts[key], value)
    else:
        counts[key] += value


def _minimize_counts(counts, args, kwargs, result):
    counts["correlations.minimize.nfev"] += int(result.nfev)


def _mle_counts(counts, args, kwargs, result):
    records = list(args[0] if args else kwargs["counts"])
    if not records:
        return
    live = sum(1 for r in records if float(r.count) > 0)
    dim = 2 ** len(records[0].setting)
    counts["tomography.mle_reconstruct.iterations"] += int(result.iterations)
    counts["tomography.mle_reconstruct.converged"] += int(bool(result.converged))
    # computed, not measured: live outcomes x d^2 complex128 entries
    _accumulate(counts, "tomography.mle_reconstruct.stack_mb",
                live * dim * dim * 16 / 1e6)


def _write_counts(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["io.bytes_written"] += len(text.encode())


COUNT_HOOKS = {
    "correlations.minimize": _minimize_counts,
    "tomography.mle_reconstruct": _mle_counts,
    "io.atomic_write_text": _write_counts,
}


class Tracer:
    """In-memory span store.  ``op`` names the op that new spans belong to."""

    def __init__(self):
        self.op = None
        self.stack = []          # [span id, time covered by children]
        self.next_id = 0
        self.spans = []          # (id, parent, op, name, start, end)
        self.agg = {}            # (op, name) -> [calls, total_s, self_s]
        self.counts = {}         # op -> {counter name: value}
        self._installed = []     # (module, attribute, original)

    def wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else None
            frame = [span_id, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - start
                if self.stack:
                    self.stack[-1][1] += duration
                entry = self.agg.setdefault((self.op, name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if entry[0] <= SPANS_PER_OP_AND_NAME:
                    self.spans.append((span_id, parent, self.op, name, start, end))
            if hook is not None:
                counts = self.counts.setdefault(self.op, _Counter())
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap the public functions of every layer at every binding."""
        package = importlib.import_module("dickekw")
        modules = {m: importlib.import_module(f"dickekw.{m}")
                   for m in LAYERS + ("cli",)}
        wrappers = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        minimize = getattr(modules["correlations"], "minimize", None)
        if minimize is not None:
            wrappers[id(minimize)] = self.wrap("correlations.minimize", minimize)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def dump(self, handle):
        """Write every kept span, then every aggregate, as JSON lines."""
        for span_id, parent, op, name, start, end in self.spans:
            handle.write(json.dumps({"span": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")
        for (op, name), (calls, total, own) in sorted(
                self.agg.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            handle.write(json.dumps({"aggregate": name, "op": op, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")
        for op, counts in self.counts.items():
            handle.write(json.dumps({"counts": dict(counts), "op": op}) + "\n")


def merge_dump(lines, tracer):
    """Fold a dump written by another process into ``tracer``'s aggregates."""
    for line in lines:
        rec = json.loads(line)
        if "aggregate" in rec:
            entry = tracer.agg.setdefault((rec["op"], rec["aggregate"]), [0, 0.0, 0.0])
            entry[0] += rec["calls"]
            entry[1] += rec["total_s"]
            entry[2] += rec["self_s"]
        elif "counts" in rec:
            counts = tracer.counts.setdefault(rec["op"], _Counter())
            for key, value in rec["counts"].items():
                _accumulate(counts, key, value)


CALL_METRICS = (
    "qmat.check_density_matrix", "correlations.classical_correlations",
    "correlations.minimize", "correlations.extract_pc", "correlations.class_of",
    "correlations.kw_symmetric", "tomography.born_probabilities",
)
SELF_METRICS = (
    "qmat.check_density_matrix", "qmat.partial_trace", "qmat.von_neumann_entropy",
    "qmat.fidelity_pure", "correlations.classical_correlations",
    "correlations.minimize", "correlations.entanglement_of_formation",
    "correlations.kw_from_correlators", "tomography.mle_reconstruct",
    "tomography.bootstrap_fidelity", "tomography.simulate_counts",
    "tomography.linear_inversion", "tomography.correlators_from_counts",
    "io.load_density_matrix", "io.load_counts", "io.load_correlators",
    "io.atomic_write_text",
)


def layer_metrics(tracer, n_ops):
    """Per-op layer metrics from the aggregates of ``n_ops`` traced ops.

    Returns (metrics, absent): ``absent`` maps a metric that had nothing to
    measure (the layer was never called) to the reason; its value is 0.
    """
    calls = _Counter()
    own = _Counter()
    for (_, name), (n, _, self_s) in tracer.agg.items():
        calls[name] += n
        own[name] += self_s
    counts = _Counter()
    for per_op in tracer.counts.values():
        for key, value in per_op.items():
            _accumulate(counts, key, value)

    metrics = {}
    absent = {}
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = calls[name] / n_ops
        if not calls[name]:
            absent[f"{name}.calls"] = "not called in this workload"
    for name in SELF_METRICS:
        metrics[f"{name}.self_ms"] = own[name] * 1e3 / n_ops
        if not calls[name]:
            absent[f"{name}.self_ms"] = "not called in this workload"
    for layer in LAYERS:
        total = sum(v for k, v in own.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = total * 1e3 / n_ops
    metrics["correlations.minimize.nfev"] = counts["correlations.minimize.nfev"] / n_ops

    mle = "tomography.mle_reconstruct"
    iterations = counts[f"{mle}.iterations"]
    metrics[f"{mle}.iterations"] = iterations / n_ops
    metrics[f"{mle}.stack_mb"] = counts[f"{mle}.stack_mb"]
    if calls[mle]:
        metrics[f"{mle}.ms_per_iter"] = own[mle] * 1e3 / max(iterations, 1)
        metrics[f"{mle}.converged_frac"] = counts[f"{mle}.converged"] / calls[mle]
    else:
        metrics[f"{mle}.ms_per_iter"] = 0.0
        metrics[f"{mle}.converged_frac"] = 0.0
        for suffix in ("iterations", "ms_per_iter", "converged_frac", "stack_mb"):
            absent[f"{mle}.{suffix}"] = "no maximum-likelihood fit in this workload"
    metrics["io.bytes_written"] = counts["io.bytes_written"] / n_ops
    return metrics, absent
