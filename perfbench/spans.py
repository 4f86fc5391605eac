"""Span tracing around the calls into skillmix's public functions.

`Tracer.install()` replaces each traced function where its callers look it
up (a module attribute or a class attribute) with a wrapper that records a
span: name, start, end, parent span and run id. `uninstall()` puts the
originals back, so untraced operations run the program unchanged. Spans
stay in memory and are written to a CSV file when the run ends; the
per-layer metrics are derived from them afterwards.

A few wrappers also read counts where the work happens: tape nodes at each
backward pass, elements per Adam step, and which parameters an adaptation
updated versus which still hold a gradient when it returns.
"""

from __future__ import annotations

import csv
import importlib
import statistics
import time
from collections import Counter
from pathlib import Path

# (owner, attribute, span name); owner is "module" or "module:Class".
TARGETS = (
    ("skillmix.config", "parse_config", "config.parse"),
    ("skillmix.experiment", "run_experiment", "experiment.run"),
    ("skillmix.experiment", "run_compare", "experiment.compare"),
    ("skillmix.experiment", "emit_plot_data", "experiment.emit_plot_data"),
    ("skillmix.experiment", "generate_synthetic_benchmark", "synthetic.generate"),
    ("skillmix.experiment", "multitask_train", "trainer.train"),
    ("skillmix.experiment", "few_shot_adapt", "trainer.adapt"),
    ("skillmix.experiment", "evaluate", "trainer.evaluate"),
    ("skillmix.trainer", "evaluate", "trainer.evaluate"),
    ("skillmix.experiment", "skill_recovery_score", "recovery.score"),
    ("skillmix.model:SkillModel", "forward", "model.forward"),
    ("skillmix.model:HypernetModel", "forward", "model.forward"),
    ("skillmix.model:SkillModel", "clone", "model.clone"),
    ("skillmix.model:HypernetModel", "clone", "model.clone"),
    ("skillmix.model:SkillModel", "snapshot", "model.snapshot"),
    ("skillmix.model:HypernetModel", "snapshot", "model.snapshot"),
    ("skillmix.skills", "compose_dense", "skills.compose"),
    ("skillmix.skills", "compose_sparse", "skills.compose"),
    ("skillmix.model", "gumbel_sigmoid_sample", "allocation.sample"),
    ("skillmix.model", "normalize_rows", "allocation.normalize"),
    ("skillmix.model", "hypernet_generate", "baselines.hypernet_generate"),
    ("skillmix.trainer", "backward", "autodiff.backward"),
    ("skillmix.optim:Adam", "step", "optim.adam_step"),
    ("skillmix.trainer", "ibp_regularizer", "priors.ibp"),
)

# Every op of the autodiff module today; a node of any other op counts as "other".
TAPE_OPS = (
    "add", "sub", "mul", "div", "matmul", "transpose", "reshape", "take_row", "narrow",
    "sigmoid", "log", "exp", "neg", "absolute", "relu", "softplus", "lgamma",
    "reduce_sum", "reduce_mean",
)

LAYERS = (
    "config", "synthetic", "trainer", "model", "skills", "allocation",
    "autodiff", "optim", "priors", "recovery", "baselines", "experiment",
)

# Timings given with p99 besides p50: each has over 1000 samples per traced
# operation on every workload.
P99_TIMINGS = {
    "model.forward": "us",
    "skills.compose": "us",
    "allocation.sample": "us",
    "allocation.normalize": "us",
    "autodiff.backward": "us",
    "optim.adam_step": "us",
}
P50_TIMINGS = {
    "config.parse": "ms",
    "synthetic.generate": "ms",
    "trainer.train": "s",
    "trainer.adapt": "s",
    "trainer.evaluate": "us",
    "model.clone": "us",
    "model.snapshot": "us",
    "priors.ibp": "us",
    "recovery.score": "ms",
    "baselines.hypernet_generate": "us",
    "experiment.emit_plot_data": "ms",
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _op_name(node) -> str:
    name = getattr(getattr(node, "vjp", None), "__qualname__", "").split(".")[0]
    return name if name in TAPE_OPS else "other"


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        # counters
        self.train_tape_nodes: list[int] = []
        self.adapt_tape_nodes: list[int] = []
        self.train_op_nodes: Counter = Counter()
        self.adam_elements: list[int] = []
        self.adapt_updated: list[set] = []
        self.stale_grad_params: list[int] = []
        self.received_grad_params: list[int] = []
        self.updated_params: list[int] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self.stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        special = {
            "model.forward": self._wrap_forward,
            "autodiff.backward": self._wrap_backward,
            "optim.adam_step": self._wrap_adam,
            "trainer.adapt": self._wrap_adapt,
        }.get(name)
        if special is not None:
            return special(name, fn)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_forward(self, name, fn):
        def traced(model, task, x, train=False, *args, **kwargs):
            index = self.open(name if train else name + ".eval")
            try:
                return fn(model, task, x, train, *args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_backward(self, name, fn):
        from skillmix import autodiff

        def traced(loss, *args, **kwargs):
            tape = args[0] if args else (kwargs.get("tape") or autodiff.active_tape())
            nodes = list(getattr(tape, "nodes", ()))
            if self._inside("trainer.adapt"):
                self.adapt_tape_nodes.append(len(nodes))
            elif self._inside("trainer.train"):
                self.train_tape_nodes.append(len(nodes))
                self.train_op_nodes.update(_op_name(node) for node in nodes)
            index = self.open(name)
            try:
                return fn(loss, *args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_adam(self, name, fn):
        def traced(optimizer, *args, **kwargs):
            params = [
                p for group in optimizer.groups for p in group["params"] if p.grad is not None
            ]
            self.adam_elements.append(sum(p.size for p in params))
            if self.adapt_updated and self._inside("trainer.adapt"):
                self.adapt_updated[-1].update(id(p) for p in params)
            index = self.open(name)
            try:
                return fn(optimizer, *args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_adapt(self, name, fn):
        def traced(*args, **kwargs):
            self.adapt_updated.append(set())
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            # Parameters updated by the adaptation optimisers had their grads
            # cleared after each step; any other parameter that received a
            # gradient still holds it.
            stale = {
                id(p) for p in result.model.named_parameters().values() if p.grad is not None
            }
            updated = self.adapt_updated[-1]
            self.stale_grad_params.append(len(stale))
            self.updated_params.append(len(updated))
            self.received_grad_params.append(len(updated | stale))
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        self.missing = []
        for owner_spec, attr, name in TARGETS:
            owner = _owner(owner_spec)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner_spec}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_ns", "end_ns", "parent", "run"])
            for i, name in enumerate(self.names):
                writer.writerow([i, name, self.starts[i], self.ends[i], self.parents[i], self.runs[i]])


# ---------------------------------------------------------------------------
# per-layer metrics


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _median_count(values: list[int]) -> int:
    return int(statistics.median_low(values)) if values else 0


def layer_metrics(tracer: Tracer, ops: int, run_dir_bytes: float, overhead_s: float) -> dict:
    """Every per-layer metric, from the spans and counters of `ops` traced operations."""
    count = len(tracer.names)
    durations = [(tracer.ends[i] - tracer.starts[i]) / 1e9 for i in range(count)]
    child_time = [0.0] * count
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += durations[i]
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    def durs(name):
        return [durations[i] for i in by_name.get(name, [])]

    metrics: dict[str, tuple[float, str]] = {}
    for name, unit in list(P99_TIMINGS.items()) + list(P50_TIMINGS.items()):
        samples = [d * SCALE[unit] for d in durs(name)]
        key = f"{name}_{unit}"
        metrics[f"{key}.p50"] = (_percentile(samples, 50), unit)
        if name in P99_TIMINGS:
            metrics[f"{key}.p99"] = (_percentile(samples, 99), unit)
        metrics[f"{key}.n"] = (len(samples), "count")

    def per_op(value):
        return value / ops if ops else 0.0

    train_steps = len(tracer.train_tape_nodes)
    adapt_steps = len(tracer.adapt_tape_nodes)
    train_time, adapt_time = sum(durs("trainer.train")), sum(durs("trainer.adapt"))
    metrics["trainer.train_steps_per_s"] = (train_steps / train_time if train_time else 0.0, "1/s")
    metrics["trainer.adapt_steps_per_s"] = (adapt_steps / adapt_time if adapt_time else 0.0, "1/s")
    metrics["trainer.adapt_calls"] = (per_op(len(durs("trainer.adapt"))), "count")
    metrics["trainer.evaluate_calls"] = (per_op(len(durs("trainer.evaluate"))), "count")
    metrics["trainer.adapt_stale_grad_params"] = (_median_count(tracer.stale_grad_params), "count")
    received = sum(tracer.received_grad_params)
    metrics["trainer.adapt_grad_useful_ratio"] = (
        sum(tracer.updated_params) / received if received else 0.0,
        "ratio",
    )
    metrics["model.forward_calls"] = (per_op(len(durs("model.forward"))), "count")
    metrics["priors.ibp_calls"] = (per_op(len(durs("priors.ibp"))), "count")
    metrics["recovery.calls"] = (per_op(len(durs("recovery.score"))), "count")
    metrics["optim.adam_elements_per_step"] = (
        sum(tracer.adam_elements) / len(tracer.adam_elements) if tracer.adam_elements else 0.0,
        "count",
    )
    metrics["autodiff.tape_nodes.train_step"] = (_median_count(tracer.train_tape_nodes), "count")
    metrics["autodiff.tape_nodes.adapt_step"] = (_median_count(tracer.adapt_tape_nodes), "count")
    for op in TAPE_OPS + ("other",):
        per_step = tracer.train_op_nodes[op] / train_steps if train_steps else 0.0
        metrics[f"autodiff.tape_nodes.{op}"] = (per_step, "count")

    run_spans = by_name.get("experiment.run", [])
    metrics["experiment.self_ms.p50"] = (
        _percentile([(durations[i] - child_time[i]) * 1e3 for i in run_spans], 50),
        "ms",
    )
    metrics["experiment.self_ms.n"] = (len(run_spans), "count")
    metrics["experiment.run_dir_bytes"] = (run_dir_bytes, "bytes")
    for layer in LAYERS:
        self_time = sum(
            durations[i] - child_time[i]
            for i, name in enumerate(tracer.names)
            if name.split(".")[0] == layer
        )
        metrics[f"{layer}.self_s"] = (per_op(self_time), "s")
    metrics["trace.spans"] = (per_op(count), "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
