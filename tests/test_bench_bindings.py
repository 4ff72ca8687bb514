"""Every name bench/tracing.py wraps exists, with the arguments its span reads,
and the flow's calls pass through the wrapped names.

The benchmark replaces module attributes of the program for the length of a
pass, so a rename, a changed signature or a call that bypasses the module
attribute in src/ would only show when the benchmark runs; these tests show
it in the suite.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from gravlasov import dynamics
from gravlasov.kernel import ModelParams, make_polytrope
from gravlasov.radial import RadialGrid

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_exists(tracing):
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


@pytest.mark.parametrize("kwargs, fast", [({}, False), ({"fast": True}, True)])
def test_shot_spans_read_grid_and_fast(tracing, kwargs, fast):
    # the wrapper binds each call to the target's signature, defaults applied,
    # and hands the arguments to the span's reader
    grid = RadialGrid(r_max=20.0, n=257)
    shots = [(module, attr, on_args) for module, attr, _, on_args, _ in tracing.TARGETS
             if on_args is tracing._shot]
    assert [attr for _, attr, _ in shots] == ["integrate_state"] * 2
    for module, attr, on_args in shots:
        bound = inspect.signature(getattr(module, attr)).bind(
            make_polytrope(2.0), ModelParams(), -1.0, -1.0, grid, **kwargs)
        bound.apply_defaults()
        assert on_args(bound.arguments) == {"n": 257, "fast": fast}


def test_flow_spans_count_each_push_and_force_call(tracing, state_p2_rel):
    # the benchmark's self-test compares two runs with each other, so a
    # change that hid push or field_from_particles from the wrappers would
    # read 0 in both; a 7-step evolve must read 7 pushes and 8 force calls,
    # all but the first inside a push
    ens = dynamics.sample_state(state_p2_rel, 2000, seed=6)
    tracer = tracing.Tracer()
    with tracer.installed(trace=1):
        records, _ = dynamics.evolve(ens, 7 * 0.01, 0.01, diag_every=3)
    assert len(records) == 4
    pushes = {i for i, span in enumerate(tracer.spans) if span.name == "dynamics.push"}
    forces = [span for span in tracer.spans
              if span.name == "dynamics.field_from_particles"]
    assert len(pushes) == 7 and len(forces) == 8
    assert sum(span.parent in pushes for span in forces) == 7
