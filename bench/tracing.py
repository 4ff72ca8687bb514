"""Spans around calls into gravlasov's modules, recorded from outside ``src/``.

Wrappers replace the module attributes that callers look up at call time
(``cli`` -> ``steady.*``/``dynamics.*``, ``solve_targets`` -> ``integrate_state``,
``evolve`` -> ``push``, ``push`` -> ``field_from_particles``), so inner calls are
seen without editing the program. Spans are kept in memory; the runner writes
them out when the run ends. Execution is sequential, so a span's children never
overlap and self time is duration minus the children's durations.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time
from dataclasses import dataclass, field

from gravlasov import cli, dynamics, rigidity, steady

LAYERS = ("cli", "steady", "radial", "rigidity", "dynamics")
KERNEL_NOTE = ("kernel: no metric. Its functions run per element inside steady "
               "and dynamics, so there is no call boundary to time from outside.")


def _shot(args):
    return {"n": args["grid"].n, "fast": args["fast"]}


def _records(result):
    return {"records": len(result[0])}


# (module, attribute, span name, arguments -> attrs, result -> attrs)
TARGETS = (
    (cli, "main", "cli.main", None, None),
    (steady, "solve_targets", "steady.solve_targets", None, None),
    (steady, "integrate_state", "steady.integrate_state", _shot, None),
    (rigidity, "integrate_state", "steady.integrate_state", _shot, None),
    (steady, "state_to_dir", "steady.state_to_dir", None, None),
    (steady, "state_from_dir", "steady.state_from_dir", None, None),
    (steady, "fixed_point_solve", "steady.fixed_point_solve", None, None),
    (steady, "multiplier_identities", "steady.multiplier_identities", None, None),
    (steady, "support_check", "steady.support_check", None, None),
    (steady, "write_phase_density", "radial.write_phase_density", None, None),
    (steady, "write_radial_field", "radial.write_radial_field", None, None),
    (cli, "bump_density", "radial.bump_density", None, None),
    (rigidity, "functionals", "radial.functionals", None, None),
    (dynamics, "functionals", "radial.functionals", None, None),
    (rigidity, "estimate_kj", "rigidity.estimate_kj", None, None),
    (rigidity, "threshold_check", "rigidity.threshold_check", None, None),
    (dynamics, "stability_experiment", "dynamics.stability_experiment", None, None),
    (dynamics, "blowup_experiment", "dynamics.blowup_experiment", None, None),
    (dynamics, "sample_state", "dynamics.sample_state", None, None),
    (dynamics, "sample_density", "dynamics.sample_density", None, None),
    (dynamics, "evolve", "dynamics.evolve", None, _records),
    (dynamics, "push", "dynamics.push", None, None),
    (dynamics, "field_from_particles", "dynamics.field_from_particles", None, None),
)


@dataclass
class Span:
    name: str
    trace: int                 # the pass the span belongs to
    parent: int | None         # index of the enclosing span
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0       # summed durations of direct children
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; ``trace`` tags the spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trace = 0

    def _wrap(self, original, name, on_args, on_result):
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            span = Span(name, self.trace, self._stack[-1] if self._stack else None)
            if on_args is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(on_args(bound.arguments))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration
            if on_result is not None:
                span.attrs.update(on_result(result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, trace: int):
        """Wrap every target for the duration of one pass."""
        self.trace = trace
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, *_ in TARGETS]
        try:
            for (module, attr, name, on_args, on_result), (_, _, original) in zip(TARGETS, saved):
                setattr(module, attr, self._wrap(original, name, on_args, on_result))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def to_json(self) -> list:
        return [{"name": s.name, "trace": s.trace, "parent": s.parent,
                 "start": s.start, "end": s.end, "attrs": s.attrs}
                for s in self.spans]


def wrapper_cost_s(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        pass

    def per_call(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    return statistics.median(per_call(Tracer()._wrap(noop, "cli.noop", None, None))
                             - per_call(noop) for _ in range(repeats))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation); 0 when there is no sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_table(spans: list[Span], passes: int) -> dict:
    """Per layer: calls, busy (self) seconds and waiting seconds per pass."""
    table = {layer: {"calls": 0, "busy_s": 0.0, "wait_s": 0.0} for layer in LAYERS}
    for span in spans:
        row = table[span.layer]
        row["calls"] += 1
        row["busy_s"] += span.self_s
    for row in table.values():
        row["calls"] /= max(passes, 1)
        row["busy_s"] /= max(passes, 1)
    return table


def layer_metrics(spans: list[Span], passes: list[int], bytes_written: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from the spans of traced passes.

    Per-call times are medians over every call in those passes; per-pass
    values are medians over the passes. A metric of a layer the workload does
    not reach reads 0.
    """
    def named(name, trace=None):
        return [s for s in spans if s.name == name and trace in (None, s.trace)]

    def durations(name, scale=1.0):
        return [scale * s.duration for s in named(name)]

    def per_pass(fn):
        return _median([fn(p) for p in passes])

    def shots_per_solve(p, failed=False):
        solves = {i for i, s in enumerate(spans)
                  if s.trace == p and s.name == "steady.solve_targets"}
        shots = [s for s in named("steady.integrate_state", p) if s.parent in solves
                 and (not failed or "error" in s.attrs)]
        return len(shots) / len(solves) if solves else 0.0

    def shot_yield(p):
        attempted = shots_per_solve(p)
        return 1.0 - shots_per_solve(p, failed=True) / attempted if attempted else 0.0

    def fast_shot_ms(n):
        return [1e3 * s.duration for s in named("steady.integrate_state")
                if s.attrs["fast"] and s.attrs["n"] == n and "error" not in s.attrs]

    def records(p):
        return sum(s.attrs.get("records", 0) for s in named("dynamics.evolve", p))

    def diag_ms(p):
        evolve_self = sum(s.self_s for s in named("dynamics.evolve", p))
        return 1e3 * evolve_self / records(p) if records(p) else 0.0

    def field_per_step(p):
        steps = len(named("dynamics.push", p))
        return len(named("dynamics.field_from_particles", p)) / steps if steps else 0.0

    def outside_rigidity(span):
        return span.parent is None or spans[span.parent].layer != "rigidity"

    shot_513, shot_full = fast_shot_ms(513), fast_shot_ms(4096)
    push_ms = durations("dynamics.push", 1e3)
    return {
        "cli.self_s": per_pass(lambda p: sum(s.self_s for s in named("cli.main", p))),
        "steady.solve_targets_s": _median(durations("steady.solve_targets")),
        "steady.shots": per_pass(shots_per_solve),
        "steady.shots_failed": per_pass(lambda p: shots_per_solve(p, failed=True)),
        "steady.shot_yield": per_pass(shot_yield),
        "steady.shot_ms.n513.p50": _median(shot_513),
        "steady.shot_ms.n513.p95": _percentile(shot_513, 95),
        "steady.shot_ms.n4096.p50": _median(shot_full),
        "steady.shot_ms.n4096.p95": _percentile(shot_full, 95),
        "steady.full_state_ms": _median([
            1e3 * s.duration for s in named("steady.integrate_state")
            if not s.attrs["fast"] and outside_rigidity(s)]),
        "steady.state_to_dir_s": _median(durations("steady.state_to_dir")),
        "steady.state_from_dir_s": _median(durations("steady.state_from_dir")),
        "steady.fixed_point_s": _median(durations("steady.fixed_point_solve")),
        "radial.write_phase_density_s": _median(durations("radial.write_phase_density")),
        "radial.write_radial_field_s": _median(durations("radial.write_radial_field")),
        "radial.functionals_s": _median(durations("radial.functionals")),
        "io.bytes_written": bytes_written,
        "rigidity.estimate_kj_s": _median(durations("rigidity.estimate_kj")),
        "rigidity.threshold_check_s": _median(durations("rigidity.threshold_check")),
        "dynamics.sample_s": _median(durations("dynamics.sample_state")
                                     + durations("dynamics.sample_density")),
        "dynamics.kdk_steps": per_pass(lambda p: len(named("dynamics.push", p))),
        "dynamics.push_ms.p50": _median(push_ms),
        "dynamics.push_ms.p95": _percentile(push_ms, 95),
        "dynamics.field_ms": _median(durations("dynamics.field_from_particles", 1e3)),
        "dynamics.field_per_step": per_pass(field_per_step),
        "dynamics.push_self_ms": _median([1e3 * s.self_s for s in named("dynamics.push")]),
        "dynamics.diag_ms": per_pass(diag_ms),
        "dynamics.records": per_pass(records),
    }
