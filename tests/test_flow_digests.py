"""Golden digests of the flow: the bits of records and final states.

A change to how a step is computed (buffers, skipped passes, a different
sort) must leave every bit of the flow where it was. Each case hashes, with
sha256, the repr of the records and the bytes of the final positions and
velocities of a 5k-particle, 20-step evolve; the ladder case hashes a tiny
stability experiment's report and records.
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
     "01ac57b6f0feaaad3e6794c268f4fbe75b3f9569c006b9f5533719b977e473c3"),
    ("state_p2_cl", "equal",
     "7b72e5294ab7b8731f2ae3b1a816facd447dd7b0e1a8510cc68ccb6c9003a27f"),
    ("state_p2_rel", "unequal",
     "cb96193a07ea1c59f1fdd0f4e536a24e8ebe0c4787853599c6c37147f69b863a"),
    ("state_p2_cl", "unsoftened",
     "7fe6002c54849ffba2cc3b57a3ceebcf7d96ab882fc27417b03e36099ea6b1ab"),
])
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
