"""Independent ground truth: exact lattice enumeration and the Riccati oracle.

The binomial lattice walks every joint sign path of the two noises, so
expectations are exact sums.  Its forward values come from a node-level
recursion of its own; its backward values come from the pipeline's backward
recursion run with the exact tree operator, whose conditional expectations
are averages over each node's descendants, so no regression enters.  The
Riccati oracle covers the degenerate full-observation LQ family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BackwardTrajectories, TreeExpectation, _backward_sweep
from .errors import OracleError
from .forward_sim import ForwardTrajectories, evaluate_cost_strong
from .model import ControlProcess, ControlSet, LQParams, ProblemSpec, make_control
from .paths import MAX_BINOMIAL_PATHS, TimeGrid, enumerate_binomial

SW_CHILD = np.array([-1.0, 1.0, -1.0, 1.0])
SY_CHILD = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class LatticeSolution:
    """Exact discretized cost and the exact backward values on all 4**N paths.

    ``backward`` holds (y, z1, z2) and, through ``backward.forward``, the
    lattice's x and rho per path; ``adjoint_trajectories(spec, backward)``
    gives the exact multipliers.  Every path carries the uniform weight 4**-N.
    """

    cost: float
    backward: BackwardTrajectories


def _expand(values: np.ndarray) -> np.ndarray:
    """Repeat each parent row for its four children (prefix order)."""
    return np.repeat(values, 4, axis=0)


def enumerate_lattice(spec: ProblemSpec, u: ControlProcess, grid: TimeGrid) -> LatticeSolution:
    """Exact expectation of the discretized cost over all 4**N sign paths.

    The forward recursion mirrors the Euler/log-density scheme of the
    Monte-Carlo simulator term for term (same expression grouping), node by
    node; its values are then repeated over each node's paths, and the
    backward values and the cost come from the pipeline's own recursion and
    cost reduction with the exact tree operator.
    """
    N = grid.steps
    if 4**N > MAX_BINOMIAL_PATHS:
        raise OracleError(
            f"lattice needs 4^{N} = {4**N} paths, over the {MAX_BINOMIAL_PATHS} budget"
        )
    if not u.grid.matches(grid):
        raise OracleError("control grid does not match the lattice grid")
    dt = grid.dt
    sqdt = np.sqrt(dt)
    times = grid.times

    x_levels = [np.broadcast_to(spec.initial_x, (1, spec.dim_x)).astype(float)]
    log_rho_levels = [np.zeros(1)]
    for i in range(N):
        xi = x_levels[i]
        Q = xi.shape[0]
        ui = u.values[i]
        b = spec.drift_b.value(times[i], xi, ui)
        s1 = spec.diffusion_sigma1.value(times[i], xi, ui)
        s2 = spec.diffusion_sigma2.value(times[i], xi, ui)
        h = spec.observation_h.value(times[i], xi, ui)
        dw = np.tile(SW_CHILD, Q) * sqdt
        dy = np.tile(SY_CHILD, Q) * sqdt
        x_levels.append(
            _expand(xi)
            + _expand((b - s2 * h[:, None]) * dt)
            + _expand(s1) * dw[:, None]
            + _expand(s2) * dy[:, None]
        )
        h_rep = _expand(h[:, None])[:, 0]
        log_rho_levels.append(
            _expand(log_rho_levels[i][:, None])[:, 0]
            + h_rep * dy
            - 0.5 * h_rep * h_rep * dt
        )

    # each depth-i node's 4**(N - i) paths are contiguous (enumerate_binomial)
    P = 4**N
    fwd = ForwardTrajectories(
        x=np.stack([np.repeat(xl, P // xl.shape[0], axis=0) for xl in x_levels]),
        rho=np.stack([np.repeat(np.exp(lr), P // lr.shape[0]) for lr in log_rho_levels]),
        grid=grid, control=u, noise=enumerate_binomial(grid),
    )
    bwd = _backward_sweep(spec, fwd, TreeExpectation(N))
    return LatticeSolution(cost=evaluate_cost_strong(spec, bwd).value, backward=bwd)


@dataclass(frozen=True)
class RiccatiSolution:
    """Diagonal Riccati solution on a fine grid, with the induced open-loop data."""

    times: np.ndarray
    P: np.ndarray
    gain: np.ndarray
    optimal_cost: float
    max_residual: float

    def P_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t.shape[0], self.P.shape[1]))
        for j in range(self.P.shape[1]):
            out[:, j] = np.interp(t, self.times, self.P[:, j])
        return out


def _riccati_rhs(P, a, q, b2_over_r):
    # dP/dtau with tau = T - t (integrating away from the terminal condition)
    return 2.0 * a * P + q - b2_over_r * P * P


def _riccati_coordinate(g, a, q, b2_over_r, dtau: float, ode_steps: int) -> tuple[list, int | None]:
    """One diagonal coordinate's RK4 values P(tau_s) in Python floats, and the
    first tau step at which |P| exceeds 1e8 (None if it never does; the
    values stop there)."""
    values = [g]
    p0 = g
    for s in range(ode_steps):
        k1 = _riccati_rhs(p0, a, q, b2_over_r)
        k2 = _riccati_rhs(p0 + 0.5 * dtau * k1, a, q, b2_over_r)
        k3 = _riccati_rhs(p0 + 0.5 * dtau * k2, a, q, b2_over_r)
        k4 = _riccati_rhs(p0 + dtau * k3, a, q, b2_over_r)
        p0 = p0 + dtau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if abs(p0) > 1e8:
            return values, s + 1
        values.append(p0)
    return values, None


def riccati_lq(params: LQParams, ode_steps: int = 4000) -> RiccatiSolution:
    """Classical LQ oracle for the h == 0, sigma2 == 0 degenerate family.

    Integrates the (diagonal) Riccati equation backward from P(T) = g with
    classical fourth-order one-step integration and returns the optimal cost
    0.5 x0' P(0) x0 + 0.5 * sum_i sigma_i^2 * integral of P_i.  Each
    coordinate is integrated on its own in Python floats: the same IEEE
    operations as a loop over arrays, without numpy's per-call overhead.
    """
    if ode_steps < 1000:
        raise OracleError("riccati_lq needs ode_steps >= 1000")
    if np.any(np.asarray(params.r) <= 0.0):
        raise OracleError("Riccati oracle requires r > 0")
    arr = params.arrays()
    a, q, g = arr["a"], arr["q"], arr["g"]
    b2_over_r = arr["b_coef"] ** 2 / arr["r"]
    T = params.horizon
    dtau = T / ode_steps

    columns = [
        _riccati_coordinate(*coefficients, dtau, ode_steps)
        for coefficients in zip(g.tolist(), a.tolist(), q.tolist(), b2_over_r.tolist())
    ]
    blow_ups = [step for _, step in columns if step is not None]
    if blow_ups:
        raise OracleError(f"Riccati blow-up at tau step {min(blow_ups)}")

    P_t = np.array([values[::-1] for values, _ in columns]).T.copy()
    times = np.linspace(0.0, T, ode_steps + 1)
    gain = -(arr["b_coef"] / arr["r"])[None, :] * P_t

    # residual of the dt-form ODE at grid midpoints (central difference)
    dP_dt = (P_t[1:] - P_t[:-1]) / (T / ode_steps)
    P_mid = 0.5 * (P_t[1:] + P_t[:-1])
    resid = dP_dt + (2.0 * a * P_mid + q - b2_over_r * P_mid * P_mid)
    max_residual = float(np.max(np.abs(resid)))

    trace_term = np.trapezoid(arr["sigma"] ** 2 * P_t, times, axis=0)
    optimal_cost = float(
        0.5 * np.sum(P_t[0] * arr["initial_x"] ** 2) + 0.5 * np.sum(trace_term)
    )
    return RiccatiSolution(
        times=times,
        P=P_t,
        gain=gain,
        optimal_cost=optimal_cost,
        max_residual=max_residual,
    )


def riccati_open_loop_control(
    sol: RiccatiSolution,
    params: LQParams,
    grid: TimeGrid,
    control_set: ControlSet,
) -> ControlProcess:
    """Deterministic optimal control: the Riccati gain along the mean path.

    Integrates the closed-loop mean dynamics on the fine oracle grid and
    samples gain * mean at the left node of every simulation step.
    """
    arr = params.arrays()
    fine_dt = float(sol.times[1] - sol.times[0])
    mean = np.empty_like(sol.P)
    # each coordinate in Python floats, the same operations as over arrays
    for j, (a, b, m) in enumerate(zip(arr["a"].tolist(), arr["b_coef"].tolist(), arr["initial_x"].tolist())):
        path = [m]
        for gain in sol.gain[:-1, j].tolist():
            m = m + (a * m + b * gain * m) * fine_dt
            path.append(m)
        mean[:, j] = path
    values = np.empty((grid.steps, params.dim))
    for i, t in enumerate(grid.times[:-1]):
        s = min(int(round(t / fine_dt)), sol.times.shape[0] - 1)
        values[i] = sol.gain[s] * mean[s]
    return make_control(values, grid, control_set, project=True)
