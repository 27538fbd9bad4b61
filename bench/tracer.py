"""Span tracer for the benchmark's traced runs, and the per-layer metrics it yields.

The layers are the package's modules.  :meth:`Tracer.install` wraps the
public functions of each module (its ``__all__``) and a few public methods,
under their own names in every ``dualpairs`` module that binds them.
Calls made inside the package (``flow`` -> ``hamiltonian_vector_field``,
the collective field -> ``kernel_eval``) therefore land in spans too.  Each
span is ``[name, start_ns, end_ns, parent]``; spans and counters are kept in
memory and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import tracemalloc
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "verify", "polyalg", "symplectic", "fields", "peakons", "bridge", "datagen")

# Not wrapped: classes (their constructors are not layer boundaries) and
# format_float, which runs once per CSV cell; its cost stays in the writer.
_SKIP = {"format_float"}

# Public methods wrapped as spans, per module and class.  RationalPoly
# arithmetic is called directly by the exact suite, so without these spans
# its cost would be booked to verify.
_METHODS = {
    "polyalg": {"RationalPoly": ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
                                 "__pow__", "diff", "evaluate", "observable")},
    "peakons": {"Trajectory": ("hamiltonians", "total_momenta", "filament_currents", "jr_drifts")},
}
_DIAGNOSTICS = {f"peakons.Trajectory.{m}" for m in _METHODS["peakons"]["Trajectory"]}

MB = float(2**20)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.trajectories: dict[int, object] = {}

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, count=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if count is not None:
                count(args)
            stack.append(len(spans))
            record = [label, 0, 0, stack[-2] if len(stack) > 1 else -1]
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args)
            return result

        return traced

    def _hooks(self):
        counts = self.counts

        def pairs(args):
            x = args[1]
            counts["peakons.kernel_pairs"] += x.size // x.shape[-1]

        def steps(nodes):
            def count(args):
                spec = args[2]
                counts["symplectic.steps"] += spec.steps
                counts["symplectic.node_steps"] += spec.steps * nodes(args)
            return count

        def cells(args):
            counts["fields.pair_cells"] += args[0].source.n ** 2

        def csv_bytes(args):
            counts["peakons.csv_bytes"] += os.path.getsize(args[0])

        def keep_trajectory(args):
            self.trajectories.setdefault(id(args[0]), args[0])

        def cli_run(args):
            counts[f"cli.{args[0][0]}_runs"] += 1

        return {
            "peakons.kernel_eval": {"count": pairs},
            "peakons.kernel_grad": {"count": pairs},
            "symplectic.flow": {"count": steps(lambda args: 1)},
            "symplectic.advance": {"count": steps(lambda args: math.prod(args[1].shape[:-1]))},
            "fields.right_momentum_pair": {"count": cells},
            "peakons.write_trajectory_csv": {"after": csv_bytes},
            "cli.main": {"count": cli_run},
            **{label: {"count": keep_trajectory} for label in _DIAGNOSTICS},
        }

    def install(self) -> None:
        """Wrap every target in place; must be paired with :meth:`uninstall`."""
        import dualpairs  # noqa: F401  (loads every layer)

        from dualpairs.polyalg import RationalPoly
        from dualpairs.symplectic import Observable

        hooks = self._hooks()
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"dualpairs.{layer}"]
            names = getattr(module, "__all__", ())
            for attr in names:
                fn = getattr(module, attr)
                if attr in _SKIP or not callable(fn) or isinstance(fn, type):
                    continue
                label = f"{layer}.{attr}"
                wrapped[id(fn)] = (fn, self._wrap(fn, label, **hooks.get(label, {})))

        for name, module in list(sys.modules.items()):
            if name == "dualpairs" or name.startswith("dualpairs."):
                for attr, value in list(vars(module).items()):
                    entry = wrapped.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._patch(module, attr, entry[1])

        for layer, classes in _METHODS.items():
            module = sys.modules[f"dualpairs.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    label = f"{layer}.{cls_name}.{method}"
                    wrapper = self._wrap(fn, label, **hooks.get(label, {}))
                    # patch aliases too (``__radd__ = __add__``)
                    for attr, value in list(cls.__dict__.items()):
                        if value is fn:
                            self._patch(cls, attr, wrapper)

        init = RationalPoly.__init__

        def counted_init(poly, *args, **kwargs):
            self.counts["polyalg.polys_built"] += 1
            init(poly, *args, **kwargs)

        self._patch(RationalPoly, "__init__", functools.wraps(init)(counted_init))

        # The field evaluated by a stepper is the observable's gradient; its
        # span is booked to the module that wrote that gradient.
        gradient = Observable.gradient

        def field_label(args):
            module = getattr(args[0]._gradient, "__module__", "") or ""
            return module.rsplit(".", 1)[-1] + ".field"

        self._patch(Observable, "gradient", self._wrap(gradient, field_label))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.trajectories.clear()

    def diagnostics_peak_mb(self) -> float:
        """Peak allocation of the Trajectory diagnostics on the trajectories seen.

        tracemalloc slows every allocation several-fold, and the diagnostics
        allocate one scalar per pair, so it never runs inside a timed round:
        each diagnostic is called again on the same trajectory afterwards.
        """
        peak = 0
        for traj in self.trajectories.values():
            for method in ("hamiltonians", "total_momenta", "jr_drifts"):
                tracemalloc.start()
                try:
                    getattr(traj, method)()
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        return peak / MB


# -- per-layer metrics ------------------------------------------------------------------


def _layer(label: str) -> str:
    return label.split(".", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Seconds per layer: each span's duration minus the time its child spans cover."""
    child = [0] * len(spans)
    for label, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0)
    for i, (label, start, end, _parent) in enumerate(spans):
        out[_layer(label)] = out.get(_layer(label), 0) + (end - start - child[i])
    return {k: v * 1e-9 for k, v in out.items()}


def _outer(spans, names) -> tuple[float, int]:
    """Total seconds and number of the spans named in ``names`` not nested in one another."""
    inside = [False] * len(spans)
    total = calls = 0
    for i, (label, start, end, parent) in enumerate(spans):
        mine = label in names
        above = parent >= 0 and inside[parent]
        inside[i] = mine or above
        if mine and not above:
            total += end - start
            calls += 1
    return total * 1e-9, calls


def _nested_under(spans, names, within) -> tuple[float, int]:
    """Total seconds and count of outermost ``names`` spans that have a ``within`` ancestor."""
    under = [False] * len(spans)
    seen = [False] * len(spans)
    total = calls = 0
    for i, (label, start, end, parent) in enumerate(spans):
        under[i] = label in within or (parent >= 0 and under[parent])
        mine = label in names
        seen[i] = mine or (parent >= 0 and seen[parent])
        if mine and parent >= 0 and under[parent] and not seen[parent]:
            total += end - start
            calls += 1
    return total * 1e-9, calls


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, diagnostics_peak_mb: float) -> dict[str, float]:
    """Every per-layer metric of one traced round; 0 where the layer did not run."""
    self_s = self_times(spans)
    flows = {"symplectic.flow", "symplectic.advance"}
    fields_spans = {s[0] for s in spans if s[0].endswith(".field")}
    flow_s, _ = _outer(spans, flows)
    field_in_flow_s, _ = _nested_under(spans, fields_spans, flows)
    _, evals = _nested_under(spans, {"symplectic.hamiltonian_vector_field"}, flows)
    steps = counts["symplectic.steps"]
    bracket_s, brackets = _outer(spans, {"polyalg.poisson_bracket"})
    kernel_s, _ = _outer(spans, {"peakons.kernel_eval", "peakons.kernel_grad"})
    writers = {i for i, s in enumerate(spans) if s[0] == "peakons.write_trajectory_csv"}
    csv_ns = sum(spans[i][2] - spans[i][1] for i in writers)
    csv_ns -= sum(end - start for _, start, end, parent in spans if parent in writers)
    csv_s = csv_ns * 1e-9
    pair_s, _ = _outer(spans, {"fields.right_momentum_pair"})
    hamiltonians = sum(1 for s in spans if s[0] == "peakons.Trajectory.hamiltonians")
    out = {
        "polyalg.time_s": self_s["polyalg"],
        "polyalg.polys_built": counts["polyalg.polys_built"],
        "polyalg.bracket_us": _ratio(bracket_s * 1e6, brackets),
        "symplectic.flow_s": flow_s,
        "symplectic.step_self_us": _ratio((flow_s - field_in_flow_s) * 1e6, steps),
        "symplectic.evals_per_step": _ratio(evals, steps),
        "symplectic.node_steps_per_s": _ratio(counts["symplectic.node_steps"], flow_s),
        "peakons.rhs_s": _outer(spans, {"peakons.field", "peakons.rhs"})[0],
        "peakons.kernel_s": kernel_s,
        "peakons.kernel_pairs": counts["peakons.kernel_pairs"],
        "peakons.kernel_ns_per_pair": _ratio(kernel_s * 1e9, counts["peakons.kernel_pairs"]),
        "peakons.diagnostics_s": _outer(spans, _DIAGNOSTICS)[0],
        "peakons.hamiltonians_calls": _ratio(hamiltonians, counts["cli.peakon_runs"]),
        "peakons.diagnostics_peak_mb": diagnostics_peak_mb,
        "peakons.csv_s": csv_s,
        "peakons.csv_mb_per_s": _ratio(counts["peakons.csv_bytes"] / MB, csv_s),
        "fields.pair_s": pair_s,
        "fields.pullback_s": _outer(spans, {"fields.pullback_omega"})[0],
        "fields.pair_ns_per_cell": _ratio(pair_s * 1e9, counts["fields.pair_cells"]),
        "fields.stencil_s": _outer(spans, {"fields.stream_vector_field", "fields.transport_along"})[0],
        "bridge.residual_s": _outer(spans, {
            "bridge.transport_residual", "bridge.momentum_pairing_residual",
            "bridge.symplectic_pairing_residual", "bridge.momentum_bracket_residual"})[0],
        "datagen.sample_s": _outer(spans, {s[0] for s in spans if s[0].startswith("datagen.")})[0],
        "verify.exact_s": _outer(spans, {"verify.exact_suite"})[0],
        "verify.numeric_s": _outer(spans, {"verify.numeric_suite"})[0],
        "verify.converge_s": _outer(spans, {"verify.convergence_study"})[0],
        "cli.self_s": self_s["cli"],
    }
    for layer in ("symplectic", "peakons", "fields", "bridge", "datagen", "verify"):
        out[f"{layer}.self_s"] = self_s[layer]
    return out
