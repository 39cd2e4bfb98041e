"""Post-impact velocity sets for planar rigid bodies hitting several
frictional contacts at once.

Rigid-body dynamics gives no unique answer when several frictional
contacts impact at once; the outcome depends on the unmodeled micro-order
of impulse transmission.  This package resolves such impacts by a capped
complementarity stepping scheme: each step solves a small LCP that meters
out at most a drawn amount of normal impulse per contact, and the set of
velocities reachable over all draw sequences is sampled, audited and
compared against classical single-outcome baselines.

Layout:

- :mod:`multimpact.lcp` - dense Lemke solver with lexicographic pivoting,
  for one instance or a stack sharing ``M``;
- :mod:`multimpact.contact` - contact problem data and feasibility audits;
- :mod:`multimpact.scenes` - planar scene geometry and bundled examples;
- :mod:`multimpact.resolution` - lockstep capped stepping, baselines,
  certificates;
- :mod:`multimpact.setapprox` - Sobol/uniform sampling of outcome sets;
- :mod:`multimpact.oracles` - independent reference computations;
- :mod:`multimpact.io` - lossless CSV/JSON export;
- :mod:`multimpact.cli` - the ``multimpact`` command.

The last two load only when imported by name, so ``import multimpact``
brings in neither ``argparse`` nor ``csv``.
"""

from .contact import (
    ImpactProblem,
    in_linear_cone,
    is_impacting,
    kinetic_energy,
    mass_norm,
)
from .errors import (
    ConeViolationError,
    ConfigError,
    LcpSolveError,
    MultimpactError,
    NonDegeneracyViolation,
    SceneFormatError,
    SequentialCapExceeded,
)
from .lcp import (
    LcpInstance,
    LcpSolution,
    lemke_many,
    lemke_solve,
    residuals,
)
from .oracles import DenseTrajectory, brute_force_lcp, routh_dense_reference
from .resolution import (
    ImpactLcpLayout,
    StepRecord,
    Trajectory,
    anitescu_resolve,
    assemble_impact_lcp,
    baselines,
    compute_r,
    restrict_contacts,
    sequential_resolve,
    sim,
    sim_block,
    sim_step,
    step_block,
    tail_bound,
    termination_constant,
)
from .scenes import (
    Scene,
    build_ball,
    build_example,
    build_problem,
    contact_jacobians,
    gap,
    list_examples,
    load_scene,
    mass_matrix,
    reflect_map,
)
from .setapprox import (
    PostImpactSet,
    SobolSampler,
    UniformSampler,
    approximate,
    classify_outcomes,
    epsilon_net_check,
    estimate_step_lipschitz,
    psi,
    sample_count_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ImpactProblem",
    "in_linear_cone",
    "is_impacting",
    "kinetic_energy",
    "mass_norm",
    "MultimpactError",
    "LcpSolveError",
    "ConeViolationError",
    "NonDegeneracyViolation",
    "SequentialCapExceeded",
    "SceneFormatError",
    "LcpInstance",
    "LcpSolution",
    "lemke_solve",
    "lemke_many",
    "residuals",
    "DenseTrajectory",
    "brute_force_lcp",
    "routh_dense_reference",
    "ImpactLcpLayout",
    "StepRecord",
    "Trajectory",
    "assemble_impact_lcp",
    "sim_step",
    "sim",
    "step_block",
    "sim_block",
    "anitescu_resolve",
    "sequential_resolve",
    "baselines",
    "restrict_contacts",
    "compute_r",
    "termination_constant",
    "tail_bound",
    "Scene",
    "build_ball",
    "build_example",
    "build_problem",
    "contact_jacobians",
    "gap",
    "list_examples",
    "load_scene",
    "mass_matrix",
    "reflect_map",
    "PostImpactSet",
    "SobolSampler",
    "UniformSampler",
    "psi",
    "approximate",
    "epsilon_net_check",
    "sample_count_bound",
    "estimate_step_lipschitz",
    "classify_outcomes",
    "ConfigError",
    "__version__",
]
