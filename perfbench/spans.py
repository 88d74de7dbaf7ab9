"""Span recording for the traced benchmark run, from outside the package.

``Tracer.install`` rebinds each traced public function in every loaded
``fbsde_nearopt`` module that holds it (package modules import these
functions by name, so patching only the defining module would miss calls),
and wraps the coefficient callables of every instance the CLI builds.
``Tracer.uninstall`` puts every original back.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

import numpy as np

PACKAGE = "fbsde_nearopt"

# (module, function) pairs wrapped in spans named "<module>.<function>".
TRACED = (
    ("paths", "sample_noise"),
    ("forward_sim", "simulate_forward"),
    ("forward_sim", "evaluate_cost_strong"),
    ("bsde", "solve_backward"),
    ("bsde", "solve_adjoint"),
    ("hamiltonian", "partial_x"),
    ("hamiltonian", "partial_y"),
    ("hamiltonian", "partial_z1"),
    ("hamiltonian", "partial_z2"),
    ("hamiltonian", "partial_u"),
    ("hamiltonian", "shifted_slot"),
    ("hamiltonian", "check_H_convexity"),
    ("nearopt", "min_gap_over_A"),
    ("nearopt", "certify_necessary"),
    ("nearopt", "certify_sufficient"),
    ("optimizer", "smp_descent"),
    ("oracle", "riccati_lq"),
)

# Layers whose returned arrays are counted in "<layer>.out_bytes".
OUT_BYTES_LAYERS = ("paths", "forward_sim", "bsde")

COEFFICIENT_FIELDS = (
    "drift_b",
    "diffusion_sigma1",
    "diffusion_sigma2",
    "backward_f",
    "observation_h",
    "terminal_phi",
    "running_l",
    "terminal_Phi",
    "initial_gamma",
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int


def array_bytes(result) -> int:
    """nbytes of the arrays a call returns: the array itself or the array
    fields of a returned dataclass (nested objects are inputs passed through)."""
    if isinstance(result, np.ndarray):
        return result.nbytes
    if dataclasses.is_dataclass(result):
        return sum(
            value.nbytes
            for value in vars(result).values()
            if isinstance(value, np.ndarray)
        )
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.out_bytes: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, layer: str | None = None):
        """``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                self._stack.pop()
            if layer is not None:
                self.out_bytes[layer] = self.out_bytes.get(layer, 0) + array_bytes(result)
            return result

        return traced

    def wrap_spec(self, spec):
        """The instance with every coefficient callable recording a span."""
        changes = {}
        for field in COEFFICIENT_FIELDS:
            coefficient = getattr(spec, field)
            wrapped = {
                f.name: self.span(f"model.{field}.{f.name}", getattr(coefficient, f.name))
                for f in dataclasses.fields(coefficient)
            }
            changes[field] = dataclasses.replace(coefficient, **wrapped)
        return dataclasses.replace(spec, **changes)

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, func in TRACED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(module, func)
            layer = module_name if module_name in OUT_BYTES_LAYERS else None
            self._rebind(original, self.span(f"{module_name}.{func}", original, layer))
        model = sys.modules[f"{PACKAGE}.model"]
        build = model.builtin_instance
        self._rebind(build, lambda *args, **kwargs: self.wrap_spec(build(*args, **kwargs)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - covered(span.start, span.end, children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def group_time(spans: list[Span], in_group) -> float:
    """Wall time inside spans matching ``in_group``, counting a span nested
    in another span of the same group once."""
    total = 0.0
    for span in spans:
        if not in_group(span.name):
            continue
        parent = span.parent
        while parent >= 0 and not in_group(spans[parent].name):
            parent = spans[parent].parent
        if parent < 0:
            total += span.end - span.start
    return total


def descendants_named(spans: list[Span], root: int, name: str) -> int:
    """Number of spans called ``name`` below span ``root``."""
    count = 0
    for span in spans:
        parent = span.parent
        while parent > root:
            parent = spans[parent].parent
        count += parent == root and span.name == name
    return count


# Per-layer metrics of the traced run, name -> unit.  Every value is a mean
# per traced operation, except the ratios.
PER_LAYER_UNITS = {
    "paths.sample_noise.s": "s",
    "paths.sample_noise.calls": "count",
    "paths.out_bytes": "B",
    "forward_sim.simulate_forward.s": "s",
    "forward_sim.simulate_forward.calls": "count",
    "forward_sim.evaluate_cost_strong.s": "s",
    "forward_sim.out_bytes": "B",
    "bsde.solve_backward.s": "s",
    "bsde.solve_backward.calls": "count",
    "bsde.solve_adjoint.self_s": "s",
    "bsde.solve_adjoint.calls": "count",
    "bsde.out_bytes": "B",
    "hamiltonian.partials.s": "s",
    "hamiltonian.partials.calls": "count",
    "hamiltonian.check_H_convexity.s": "s",
    "model.coefficients.s": "s",
    "model.coefficients.calls": "count",
    "nearopt.min_gap_over_A.self_s": "s",
    "nearopt.certify.s": "s",
    "optimizer.smp_descent.self_s": "s",
    "optimizer.iterations": "count",
    "optimizer.evaluations": "count",
    "optimizer.accept_ratio": "ratio",
    "oracle.riccati_lq.s": "s",
    "oracle.riccati_lq.calls": "count",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    "gap_abs": "1",
}


def _is_partial(name: str) -> bool:
    return name.startswith("hamiltonian.") and name != "hamiltonian.check_H_convexity"


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` traced operations.

    ``trace.overhead`` and ``gap_abs`` come from outside the spans and are
    added by the caller.
    """
    spans = tracer.spans
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        own[span.name] = own.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1

    iterations = evaluations = 0
    for index, span in enumerate(spans):
        if span.name == "optimizer.smp_descent":
            # one adjoint per loop iteration; the last one ends the run
            iterations += descendants_named(spans, index, "bsde.solve_adjoint") - 1
            evaluations += descendants_named(spans, index, "forward_sim.simulate_forward")
    candidates = evaluations - calls.get("optimizer.smp_descent", 0)

    def per_op(value: float) -> float:
        return value / n_ops

    out_bytes = tracer.out_bytes
    return {
        "paths.sample_noise.s": per_op(total.get("paths.sample_noise", 0.0)),
        "paths.sample_noise.calls": per_op(calls.get("paths.sample_noise", 0)),
        "paths.out_bytes": per_op(out_bytes.get("paths", 0)),
        "forward_sim.simulate_forward.s": per_op(total.get("forward_sim.simulate_forward", 0.0)),
        "forward_sim.simulate_forward.calls": per_op(calls.get("forward_sim.simulate_forward", 0)),
        "forward_sim.evaluate_cost_strong.s": per_op(total.get("forward_sim.evaluate_cost_strong", 0.0)),
        "forward_sim.out_bytes": per_op(out_bytes.get("forward_sim", 0)),
        "bsde.solve_backward.s": per_op(total.get("bsde.solve_backward", 0.0)),
        "bsde.solve_backward.calls": per_op(calls.get("bsde.solve_backward", 0)),
        "bsde.solve_adjoint.self_s": per_op(own.get("bsde.solve_adjoint", 0.0)),
        "bsde.solve_adjoint.calls": per_op(calls.get("bsde.solve_adjoint", 0)),
        "bsde.out_bytes": per_op(out_bytes.get("bsde", 0)),
        "hamiltonian.partials.s": per_op(group_time(spans, _is_partial)),
        "hamiltonian.partials.calls": per_op(sum(n for name, n in calls.items() if _is_partial(name))),
        "hamiltonian.check_H_convexity.s": per_op(total.get("hamiltonian.check_H_convexity", 0.0)),
        "model.coefficients.s": per_op(group_time(spans, lambda name: name.startswith("model."))),
        "model.coefficients.calls": per_op(sum(n for name, n in calls.items() if name.startswith("model."))),
        "nearopt.min_gap_over_A.self_s": per_op(own.get("nearopt.min_gap_over_A", 0.0)),
        "nearopt.certify.s": per_op(
            total.get("nearopt.certify_necessary", 0.0) + total.get("nearopt.certify_sufficient", 0.0)
        ),
        "optimizer.smp_descent.self_s": per_op(own.get("optimizer.smp_descent", 0.0)),
        "optimizer.iterations": per_op(iterations),
        "optimizer.evaluations": per_op(evaluations),
        "optimizer.accept_ratio": iterations / candidates if candidates > 0 else 0.0,
        "oracle.riccati_lq.s": per_op(total.get("oracle.riccati_lq", 0.0)),
        "oracle.riccati_lq.calls": per_op(calls.get("oracle.riccati_lq", 0)),
        "cli.self_s": per_op(own.get("cli.main", 0.0)),
    }

