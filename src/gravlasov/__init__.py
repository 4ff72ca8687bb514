"""Ground states of the classical and relativistic self-gravitating kinetic
equation: construction, variational identity checks, scaling and rigidity
diagnostics, and particle-flow stability experiments."""

from .kernel import (
    CasimirSpec,
    FunctionalReport,
    ModelParams,
    check_casimir,
    kinetic_weight,
    kinetic_weight_inverse,
    make_polytrope,
)
from .radial import (
    PhaseDensity,
    RadialField,
    RadialGrid,
    SpeedGrid,
    bump_density,
    density_moment,
    distribution_function,
    ej_distance,
    functionals,
    gradient_energy,
    poisson_solve,
)
from .steady import (
    GroundState,
    SolveTargets,
    density_from_potential,
    fixed_point_solve,
    integrate_state,
    multiplier_identities,
    solve_targets,
    support_check,
    virial_residual,
)
from .rigidity import (
    KjEstimate,
    alpha_rescale,
    bootstrap_exponents,
    dilate_transform,
    equimeasure_compare,
    estimate_kj,
    f_function,
    f_roots,
    interpolation_quotient,
    level_asymptotic,
    monotonicity_check,
    threshold_check,
)
from .dynamics import (
    ParticleEnsemble,
    blowup_experiment,
    evolve,
    field_from_particles,
    push,
    sample_state,
    stability_experiment,
)

__version__ = "0.1.0"
