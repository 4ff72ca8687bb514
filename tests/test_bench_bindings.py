"""Every name bench/tracing.py wraps exists, with the arguments its span reads.

The benchmark replaces module attributes of the program for the length of a
pass, so a rename or a changed signature in src/ would only show when the
benchmark runs; these tests show it in the suite.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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
