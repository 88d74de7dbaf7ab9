"""Near-optimality certificates built on the Hamiltonian gap.

The necessary-condition gap is the density-weighted time integral of
H_u . (u - u_eps) along the candidate's trajectories; its infimum over the
admissible class decouples per time step for deterministic piecewise
controls and is realized by exact linear minimization over the control set.
The adjoint sweep folds that minimum in step by step, from step N - 1
down (``bsde.solve_adjoint``): ``min_gap_over_A`` reads the per-path sums
and the minimizer of the resulting ``bsde.ControlGradient``, which holds
the control u_eps it was taken at, and no rho * H_u array over steps and
paths exists.  ``necessary_gap`` prices any other candidate against an
``adjoint_trajectories`` result, which keeps rho * H_u, adding its steps
in the same order.  The certificates take the backward bundle of u_eps
(``solve_backward``'s, or ``bsde.backward_bundle``'s, which solves y, z1
and z2 only where ``model.LiveTerms.backward``), which holds its forward
bundle and noise, and get the fold from ``solve_adjoint``, which keeps no
multiplier beyond two steps; their provenance reads the seed, path count
and grid from that bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import hamiltonian as ham
from .bsde import (
    AdjointTrajectories,
    BackwardTrajectories,
    BasisSpec,
    ControlGradient,
    _add_gap_step,
    adjoint_trajectories,
    solve_adjoint,
    solve_backward,
)
from .errors import FbsdeError, GridMismatchError, PreconditionError
from .forward_sim import ForwardTrajectories, _mean, _stderr, evaluate_cost_strong, simulate_forward
from .hamiltonian import check_H_convexity
from .model import ControlProcess, ProblemSpec, live_terms
from .paths import NoiseBundle


def necessary_gap(adj: AdjointTrajectories, u: ControlProcess) -> tuple[float, float]:
    """Gap of the candidate u against the control the adjoint was taken at:
    mean and stderr over paths of sum_i dt * <rho_i H_u_i, u_i - u_eps_i>,
    added from step N - 1 down as the adjoint sweep's fold adds it, so at
    the minimizer it is ``min_gap_over_A``'s result bit for bit."""
    base = adj.control
    if not u.grid.matches(base.grid):
        raise GridMismatchError("candidate control lives on a different grid")
    per_path = np.zeros(adj.weighted.shape[1])
    for i in reversed(range(base.grid.steps)):
        _add_gap_step(per_path, adj.weighted[i], u.values[i] - base.values[i], base.grid.dt)
    return _mean(per_path), _stderr(per_path)


class GapResult(NamedTuple):
    gap: float
    stderr: float
    minimizer: ControlProcess


def min_gap_over_A(grad: ControlGradient) -> GapResult:
    """Infimum of the gap over deterministic admissible controls.

    Decouples per step: v_i minimizes <mean(rho_i H_u_i), .> over U, so the
    result is never positive (u_eps itself is feasible).  The adjoint sweep
    that built ``grad`` folded each step as it was solved; this reads the
    per-path sums and the minimizer.
    """
    gap = grad.per_path_gap
    return GapResult(gap=_mean(gap), stderr=_stderr(gap), minimizer=grad.minimizer)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a necessary or sufficient near-optimality check."""

    gap: float
    gap_stderr: float
    epsilon: float
    constant_C: float
    order_lambda: float
    verdict: str
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "gap": self.gap,
            "gap_stderr": self.gap_stderr,
            "epsilon": self.epsilon,
            "C": self.constant_C,
            "lambda": self.order_lambda,
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def run_pipeline(
    spec: ProblemSpec,
    u: ControlProcess,
    noise: NoiseBundle,
    basis: BasisSpec = BasisSpec(),
):
    """Forward, backward and adjoint bundles under one control and noise,
    with every multiplier of the adjoint kept (``adjoint_trajectories``)."""
    bwd = solve_backward(spec, simulate_forward(spec, u, noise), basis)
    return bwd.forward, bwd, adjoint_trajectories(spec, bwd)


def _provenance(spec: ProblemSpec, fwd: ForwardTrajectories, threshold: float) -> dict:
    return {
        "instance": spec.label,
        "seed": fwd.noise.seed,
        "n_paths": fwd.n_paths,
        "grid": {"horizon": fwd.grid.horizon, "steps": fwd.grid.steps},
        "threshold": threshold,
    }


def certify_necessary(
    spec: ProblemSpec, bwd: BackwardTrajectories, epsilon: float, C: float
) -> Certificate:
    """Check the order-epsilon^(1/2) lower bound on the minimal gap of the
    control ``bwd`` was solved under; the adjoint and the gap run on its
    bundle."""
    if not epsilon >= 0.0:
        raise FbsdeError("epsilon must be >= 0")
    if not C > 0.0:
        raise FbsdeError("C must be positive")
    result = min_gap_over_A(solve_adjoint(spec, bwd))
    threshold = -C * math.sqrt(epsilon) - 3.0 * result.stderr
    verdict = "necessary-holds" if result.gap >= threshold else "necessary-violated"
    return Certificate(
        gap=result.gap,
        gap_stderr=result.stderr,
        epsilon=epsilon,
        constant_C=C,
        order_lambda=0.5,
        verdict=verdict,
        provenance=_provenance(spec, bwd.forward, threshold),
    )


def _require_sufficient_structure(spec: ProblemSpec) -> None:
    if live_terms(spec).value_system:
        raise PreconditionError(
            "sufficient condition needs an observation drift free of state and control"
        )
    if not spec.phi_linear:
        raise PreconditionError("sufficient condition needs a linear terminal map phi")


def certify_sufficient(
    spec: ProblemSpec,
    bwd: BackwardTrajectories,
    epsilon: float,
    lambda_exp: float,
    C: float,
) -> Certificate:
    """Convexity plus gap condition under the control-free observation density.

    Verdict is sufficient-near-optimal only when every sampled convexity
    probe passes and the minimal gap clears -C eps^lambda; a convexity
    witness or a failed gap both yield inconclusive.  The gap is that of
    the control ``bwd`` was solved under, on its bundle; the convexity
    report is ``check_H_convexity`` at its default probe count, drawn from
    the bundle's noise seed, or from seed 0 for the unseeded binomial
    bundle, so that every verdict is reproducible.
    """
    _require_sufficient_structure(spec)
    if not (epsilon >= 0.0 and C > 0.0):
        raise FbsdeError("need epsilon >= 0 and C > 0")
    fwd = bwd.forward
    seed = 0 if fwd.noise.seed is None else fwd.noise.seed
    report = check_H_convexity(spec, seed=seed)
    result = min_gap_over_A(solve_adjoint(spec, bwd))
    threshold = -C * epsilon**lambda_exp - 3.0 * result.stderr

    if not report.passed:
        verdict = "inconclusive"
        reason = "convexity probe failed"
    elif result.gap >= threshold:
        verdict = "sufficient-near-optimal"
        reason = ""
    else:
        verdict = "inconclusive"
        reason = "gap condition failed at the supplied constants"
    return Certificate(
        gap=result.gap,
        gap_stderr=result.stderr,
        epsilon=epsilon,
        constant_C=C,
        order_lambda=lambda_exp,
        verdict=verdict,
        provenance={
            **_provenance(spec, fwd, threshold),
            "convexity": report.to_dict(),
            "reason": reason,
        },
    )


@dataclass(frozen=True)
class CostDifferenceReport:
    """Both sides of the cost-difference representation, with noise scales."""

    lhs: float
    rhs: float
    rhs_stderr: float
    diff_stderr: float


def cost_difference_representation(
    spec: ProblemSpec,
    u: ControlProcess,
    u_eps: ControlProcess,
    noise: NoiseBundle,
    basis: BasisSpec = BasisSpec(),
) -> CostDifferenceReport:
    """J(u) - J(u_eps) against its Hamiltonian-bracket expansion.

    Uses the u_eps adjoints as frozen multipliers (with the shifted last
    slot evaluated along the u_eps pair) and the control-free density as
    the common weight; exact as an identity in expectation.
    """
    _require_sufficient_structure(spec)
    if not u.grid.matches(u_eps.grid):
        raise GridMismatchError("controls live on different grids")
    grid = noise.grid
    dt = grid.dt
    times = grid.times
    P, N = noise.n_paths, grid.steps

    fwd_e, bwd_e, adj_e = run_pipeline(spec, u_eps, noise, basis)
    bwd_u = solve_backward(spec, simulate_forward(spec, u, noise), basis)
    fwd_u = bwd_u.forward
    if not np.allclose(fwd_u.rho[N], fwd_e.rho[N], rtol=1e-10):
        raise PreconditionError(
            "density weights differ between controls; observation drift is "
            "not actually control-free"
        )

    cost_u = evaluate_cost_strong(spec, bwd_u)
    cost_e = evaluate_cost_strong(spec, bwd_e)
    lhs = cost_u.value - cost_e.value

    per_path_rhs = np.zeros(P)
    per_path_lhs = np.zeros(P)
    for i in range(N):
        t = times[i]
        xe, ye = fwd_e.x[i], bwd_e.y[i]
        z1e, z2e = bwd_e.z1[i], bwd_e.z2[i]
        xu, yu = fwd_u.x[i], bwd_u.y[i]
        z1u, z2u = bwd_u.z1[i], bwd_u.z2[i]
        mult = ham.MultiplierPoint(
            k=adj_e.k[i], p=adj_e.p[i], q1=adj_e.q1[i], q2=adj_e.q2[i], R2=adj_e.R2[i]
        )
        r2s = ham.shifted_slot(spec, t, xe, u_eps.values[i], z2e, mult)
        frozen = ham.MultiplierPoint(k=mult.k, p=mult.p, q1=mult.q1, q2=mult.q2, R2=r2s)
        h_u_pt = ham.eval_H(spec, t, xu, yu, z1u, z2u, u.values[i], frozen)
        h_e_pt = ham.eval_H(spec, t, xe, ye, z1e, z2e, u_eps.values[i], frozen)
        parts = ham.eval_H_partials(spec, t, xe, ye, z1e, z2e, u_eps.values[i], mult)
        bracket = (
            h_u_pt
            - h_e_pt
            - np.einsum("pi,pi->p", parts.dx, xu - xe)
            - np.einsum("pi,pi->p", parts.dy, yu - ye)
            - np.einsum("pi,pi->p", parts.dz1, z1u - z1e)
            - np.einsum("pi,pi->p", parts.dz2, z2u - z2e)
        )
        per_path_rhs += fwd_e.rho[i] * bracket * dt

        l_u = spec.running_l.value(t, xu, yu, z1u, z2u, u.values[i])
        l_e = spec.running_l.value(t, xe, ye, z1e, z2e, u_eps.values[i])
        per_path_lhs += fwd_e.rho[i] * (l_u - l_e) * dt

    xu_T, xe_T = fwd_u.x[N], fwd_e.x[N]
    phi_u = spec.terminal_Phi.value(xu_T)
    phi_e = spec.terminal_Phi.value(xe_T)
    phi_x_e = spec.terminal_Phi.dx(xe_T)
    terminal_bracket = phi_u - phi_e - np.einsum("pi,pi->p", phi_x_e, xu_T - xe_T)
    per_path_rhs += fwd_e.rho[N] * terminal_bracket
    per_path_lhs += fwd_e.rho[N] * (phi_u - phi_e)

    y0_u = bwd_u.y[0].mean(axis=0)
    y0_e = bwd_e.y[0].mean(axis=0)
    g_u = float(spec.initial_gamma.value(y0_u[None, :])[0])
    g_e = float(spec.initial_gamma.value(y0_e[None, :])[0])
    g_dy = spec.initial_gamma.dy(y0_e[None, :])[0]
    gamma_bracket = g_u - g_e - float(g_dy @ (y0_u - y0_e))

    return CostDifferenceReport(
        lhs=lhs,
        rhs=_mean(per_path_rhs) + gamma_bracket,
        rhs_stderr=_stderr(per_path_rhs),
        diff_stderr=_stderr(per_path_lhs - per_path_rhs),
    )


def estimate_order(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Fit -min_gap ~ C * eps^s in log-log; returns (s, C).

    Points with non-negative gap or non-positive epsilon are excluded.
    """
    usable = [(eps, gap) for eps, gap in points if eps > 0.0 and gap < 0.0]
    if len(usable) < 3:
        raise FbsdeError(
            f"order fit needs at least 3 usable (eps > 0, gap < 0) points, got {len(usable)}"
        )
    log_eps = np.log([eps for eps, _ in usable])
    log_gap = np.log([-gap for _, gap in usable])
    slope, intercept = np.polyfit(log_eps, log_gap, 1)
    return float(slope), float(np.exp(intercept))
