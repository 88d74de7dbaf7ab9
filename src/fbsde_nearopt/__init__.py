"""Near-optimal control of partially observed forward-backward stochastic systems.

Simulation of the coupled state/density system under the reference measure,
regression-based backward and adjoint solvers, Hamiltonian-gap certificates
for near-optimality (necessary order-1/2 condition and the convexity-based
sufficient condition), a conditional-gradient optimizer, and exact oracles.
"""

from .bsde import (
    AdjointTrajectories,
    BackwardTrajectories,
    BasisSpec,
    ControlGradient,
    adjoint_trajectories,
    solve_adjoint,
    solve_backward,
)
from .errors import (
    FbsdeError,
    GridMismatchError,
    InvalidControlError,
    OracleError,
    PreconditionError,
    RegressionError,
    SimulationError,
)
from .forward_sim import (
    CostReport,
    ForwardTrajectories,
    control_distance,
    evaluate_cost_strong,
    evaluate_cost_weak,
    simulate_forward,
)
from .hamiltonian import (
    ConvexityReport,
    MultiplierPoint,
    check_H_convexity,
    eval_H,
    eval_H_partials,
)
from .model import (
    Ball,
    Box,
    Coefficient,
    ControlProcess,
    ControlSet,
    DriverCoefficient,
    InitialCoefficient,
    LQParams,
    ProblemSpec,
    TerminalCoefficient,
    ValidationReport,
    builtin_instance,
    constant_control,
    make_control,
    make_double_well_instance,
    make_lq_instance,
    make_lq_observation_instance,
    make_scalar_nonlinear_instance,
    validate_problem,
)
from .nearopt import (
    Certificate,
    CostDifferenceReport,
    GapResult,
    certify_necessary,
    certify_sufficient,
    cost_difference_representation,
    estimate_order,
    min_gap_over_A,
    necessary_gap,
    run_pipeline,
)
from .optimizer import DescentParams, DescentTrace, order_study, smp_descent
from .oracle import (
    LatticeSolution,
    RiccatiSolution,
    enumerate_lattice,
    riccati_lq,
    riccati_open_loop_control,
)
from .paths import (
    NoiseBundle,
    TimeGrid,
    enumerate_binomial,
    make_time_grid,
    sample_noise,
)

__version__ = "0.1.0"
