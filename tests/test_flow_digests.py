"""Golden digests of the flow: the bits of records and final states.

A change to how a step is computed (buffers, skipped passes, a different
sort) must leave every bit of the flow where it was. Each case hashes, with
sha256, the repr of the records and the bytes of the final positions and
velocities of a 5k-particle, 20-step evolve; the ladder case hashes a tiny
stability experiment's report and records. Where numpy reports AVX-512
kernels, these tests and the pushes whose radii overflow rerun in one child
pytest (the `golden_without_avx512` fixture) with them disabled, and pass
there too.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from gravlasov.dynamics import (dynamical_time, evolve, sample_state,
                                stability_experiment)


def _variant(ens, variant):
    if variant == "unequal":      # unequal weights take the general sort path
        weights = np.random.default_rng(5).uniform(0.5, 1.5, ens.n) * ens.weights
        return replace(ens, weights=weights)
    if variant == "unsoftened":   # a particle at the origin: a zero soft radius
        positions = ens.positions.copy()
        positions[17] = 0.0
        return replace(ens, positions=positions, eps_soft=0.0)
    return ens


@pytest.mark.parametrize("state_name, variant, digest", [
    ("state_p2_rel", "equal",
     "3114d19c43a8d635d268a6573e5020a96a093bbe8b62c3995ca2ddf24e82e5cb"),
    ("state_p2_cl", "equal",
     "dc184159d0d4b4d587ca7aa62d176745c6cb6b6fd735ba2d6d839b715e166d7a"),
    ("state_p2_rel", "unequal",
     "01092d80423d624d0a391892716b0da6bf43d7746918e5475db01d366d99532e"),
    ("state_p2_cl", "unsoftened",
     "897670d684e760cf33e0ae188aa723f1fb67c3454ac61a1d1d407070583fd8e0"),
], ids=["state_p2_rel-equal", "state_p2_cl-equal", "state_p2_rel-unequal",
        "state_p2_cl-unsoftened"])
def test_evolve_digest(request, state_name, variant, digest):
    state = request.getfixturevalue(state_name)
    ens = _variant(sample_state(state, 5000, seed=11), variant)
    dt = 0.01 * dynamical_time(state.rho.values[0])
    records, final = evolve(ens, 20 * dt, dt, diag_every=5, reference=state)
    h = hashlib.sha256(repr(records).encode())
    h.update(final.positions.tobytes())
    h.update(final.velocities.tobytes())
    assert h.hexdigest() == digest


def test_stability_ladder_digest(state_p2_rel):
    report, runs = stability_experiment(state_p2_rel, (0.02,), "amplitude",
                                        n=2000, t_end=0.3, seed=4)
    assert hashlib.sha256(repr((report, runs)).encode()).hexdigest() == (
        "22470a41631fb7945dad6b105f5de67c61709dc9903da6785b08ea5e6d2cdb50")


def test_flow_digests_without_avx512(golden_without_avx512):
    passed, stdout = golden_without_avx512
    # 4 evolve runs and the ladder, and the 2 pushes whose radii overflow
    assert len([t for t in passed if t.startswith((
        "tests/test_flow_digests.py::",
        "tests/test_dynamics.py::test_push_of_a_finite_state_whose_radii_overflow"))]
    ) == 7, stdout
