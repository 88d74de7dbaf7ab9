"""Forward Euler simulation under the reference measure, costs, control metric.

The state advances with drift b - sigma2*h against the two reference-measure
noises; the density weight rho is advanced in log space so that it stays
positive and is exact for constant observation drift.  The terms it skips
are those ``model.LiveTerms`` finds dead.  Where it reads dY, it reads it
before dW, so the two streams are drawn at once.  The Euler sweep and the
per-path cost run on path shards (``paths``), each shard over every step
on its own rows; the reductions across paths stay on the calling thread.

Every trajectory (the state here, the backward and adjoint processes in
``bsde``) is a time-major ``(steps, P, d)`` array stored as ``(steps, d, P)``:
each step's ``(P, d)`` slice is column-major, so every per-step product,
pairing and reduction runs along the contiguous path axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FbsdeError, GridMismatchError, SimulationError
from .model import (
    ControlProcess,
    ProblemSpec,
    live_terms,
    without_observation,
)
from .paths import NoiseBundle, TimeGrid, _on_path_shards, sample_noise

BLOWUP_THRESHOLD = 1e8


def _check_same_grid(a: TimeGrid, b: TimeGrid, what: str) -> None:
    if not a.matches(b):
        raise GridMismatchError(f"{what}: grids differ ({a} vs {b})")


def _trajectory(steps: int, paths: int, dim: int) -> np.ndarray:
    """An empty ``(steps, paths, dim)`` trajectory whose per-step
    ``(paths, dim)`` slices are column-major."""
    return np.empty((steps, dim, paths)).swapaxes(1, 2)


@dataclass(frozen=True)
class ForwardTrajectories:
    """States x and density weights rho, time-major: x[i] is (paths, n).

    ``x`` is stored with column-major per-step slices however the bundle was
    built, as every trajectory is; ``x[i]`` is contiguous along paths.
    ``rho`` is (steps + 1, paths); for a structurally zero h it is one step
    of ones read as every step, a read-only stride-0 view.
    """

    x: np.ndarray
    rho: np.ndarray
    grid: TimeGrid
    control: ControlProcess
    noise: NoiseBundle

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(self.x.swapaxes(1, 2)).swapaxes(1, 2)
        object.__setattr__(self, "x", x)

    @property
    def n_paths(self) -> int:
        return self.x.shape[1]


def simulate_forward(
    spec: ProblemSpec, u: ControlProcess, noise: NoiseBundle
) -> ForwardTrajectories:
    """Euler step for x, exact exponential-martingale step for rho, with
    the sigma2 terms and the density only where they are live
    (``model.LiveTerms``).

    Each path shard (``paths``) runs the whole time loop on its rows of x
    and log rho.  A failure raises what the single sweep would: the one at
    the earliest step, a coefficient's exception before a blow-up at the
    same step, the lowest path on a tie.
    """
    _check_same_grid(u.grid, noise.grid, "simulate_forward")
    if u.dim != spec.dim_u:
        raise FbsdeError(f"control dim {u.dim} != spec dim_u {spec.dim_u}")
    grid = noise.grid
    P, N, n = noise.n_paths, grid.steps, spec.dim_x
    dt = grid.dt
    times = grid.times
    live = live_terms(spec)

    x = _trajectory(N + 1, P, n)
    x[0] = spec.initial_x[None, :]
    if live.density:
        log_rho = np.empty((N + 1, P))
        log_rho[0] = 0.0
    # dY before dW: a dW that sample_noise is still drawing is drawn meanwhile.
    # Both are read after x and log rho are allocated: reading them first
    # placed the arrays so that every later sweep on the bundle ran about
    # 30 % slower (20k paths, 2-core Xeon).
    dY = noise.dY if live.sigma2 or live.density else None
    dW = noise.dW

    def sweep(lo: int, hi: int):
        """Paths [lo, hi) through every step: None, or the first failure as
        (step, 0 for an exception before the blow-up check or 1 for a
        blow-up, the exception)."""
        xs, dWs = x[:, lo:hi], dW[lo:hi]
        if dY is not None:
            dYs = dY[lo:hi]
        if live.density:
            log_rhos = log_rho[:, lo:hi]
        for i in range(N):
            t = times[i]
            xi = xs[i]
            ui = u.values[i]
            try:
                b = spec.drift_b.value(t, xi, ui)
                s1 = spec.diffusion_sigma1.value(t, xi, ui)
                if dY is not None:
                    h = spec.observation_h.value(t, xi, ui)
                # a product of broadcast views would come out C-ordered: lay it out like x
                if live.sigma2:
                    s2 = spec.diffusion_sigma2.value(t, xi, ui)
                    xs[i + 1] = (
                        xi
                        + (b - np.multiply(s2, h[:, None], order="F")) * dt
                        + np.multiply(s1, dWs[:, i, None], order="F")
                        + np.multiply(s2, dYs[:, i, None], order="F")
                    )
                else:
                    xs[i + 1] = xi + b * dt + np.multiply(s1, dWs[:, i, None], order="F")
                if live.density:
                    log_rhos[i + 1] = log_rhos[i] + h * dYs[:, i] - 0.5 * h * h * dt
            except Exception as exc:
                return i, 0, exc
            # one reduction per step; NaN fails the comparison, so it is caught too
            if not np.abs(xs[i + 1]).max() <= BLOWUP_THRESHOLD:
                bad = ~(np.abs(xs[i + 1]) <= BLOWUP_THRESHOLD).all(axis=1)
                j = int(np.argmax(bad))
                return i, 1, SimulationError(
                    f"state blow-up or non-finite value at step {i + 1}, path {lo + j}: "
                    f"x = {xs[i + 1, j]}"
                )
        if live.density:
            np.exp(log_rhos, out=log_rhos)
        return None

    failures = [failure for failure in _on_path_shards(sweep, P) if failure is not None]
    if failures:
        # min keeps the first of equal keys: the lowest shard
        raise min(failures, key=lambda failure: failure[:2])[2]
    rho = log_rho if live.density else np.broadcast_to(np.ones(P), (N + 1, P))
    return ForwardTrajectories(x=x, rho=rho, grid=grid, control=u, noise=noise)


@dataclass(frozen=True)
class CostReport:
    """Monte-Carlo cost estimate with its decomposition.

    running + terminal + initial == value exactly;  initial_bias records the
    gap between the per-path mean of gamma(y_0) and gamma applied to the
    cross-path mean of y_0 (the estimator actually used).
    """

    value: float
    stderr: float
    running: float
    terminal: float
    initial: float
    initial_bias: float = 0.0


def _mean(v: np.ndarray) -> float:
    return math.fsum(v) / v.shape[0]


def _stderr(v: np.ndarray) -> float:
    """Standard error of the mean of per-path values; 0 for a single path."""
    P = v.shape[0]
    return float(np.std(v, ddof=1) / np.sqrt(P)) if P > 1 else 0.0


def _per_path_cost_parts(spec, fwd, y, z1, z2):
    """Per-path density-weighted running and terminal cost contributions,
    accumulated on path shards (``paths``)."""
    u, grid = fwd.control, fwd.grid
    P, N = fwd.n_paths, grid.steps
    dt = grid.dt
    times = grid.times
    x, rho = fwd.x, fwd.rho
    running = np.zeros(P)
    terminal = np.empty(P)

    def accumulate(lo: int, hi: int) -> None:
        rows = slice(lo, hi)
        for i in range(N):
            l = spec.running_l.value(times[i], x[i, rows], y[i, rows], z1[i, rows], z2[i, rows], u.values[i])
            running[rows] += rho[i, rows] * l * dt
        terminal[rows] = rho[N, rows] * spec.terminal_Phi.value(x[N, rows])

    _on_path_shards(accumulate, P)
    return running, terminal


def evaluate_cost_strong(spec: ProblemSpec, bwd) -> CostReport:
    """Density-weighted cost under the reference measure (Bayes form), of the
    control the backward bundle ``bwd`` was simulated under.

    A bundle from ``bsde.backward_bundle`` that solved no y, z1 or z2 (no
    ``model.LiveTerms.backward``) gives l read-only zero views in
    those slots, and the report has the same bits as from a solved bundle.
    """
    fwd = bwd.forward
    y, z1, z2 = bwd.values(spec)
    running, terminal = _per_path_cost_parts(spec, fwd, y, z1, z2)

    y0_mean = y[0].mean(axis=0)
    initial = float(spec.initial_gamma.value(y0_mean[None, :])[0])
    initial_bias = _mean(spec.initial_gamma.value(y[0])) - initial

    core = running + terminal
    run_mean = _mean(running)
    term_mean = _mean(terminal)
    value = run_mean + term_mean + initial
    return CostReport(
        value=value,
        stderr=_stderr(core),
        running=run_mean,
        terminal=term_mean,
        initial=initial,
        initial_bias=initial_bias,
    )


def evaluate_cost_weak(
    spec: ProblemSpec,
    u: ControlProcess,
    seed: int,
    n_paths: int,
    grid: TimeGrid,
    basis=None,
) -> CostReport:
    """Unweighted cost under the control-dependent measure.

    Realized by simulating the original dynamics with (W, W^u) independent,
    which is the strong pipeline applied to the h == 0 view of the instance;
    the backward equation is solved only for a cost that reads y or z
    (``bsde.backward_bundle``).
    """
    from .bsde import BasisSpec, backward_bundle

    _check_same_grid(u.grid, grid, "evaluate_cost_weak")
    weak_spec = without_observation(spec)
    fwd = simulate_forward(weak_spec, u, sample_noise(grid, n_paths, seed))
    return evaluate_cost_strong(weak_spec, backward_bundle(weak_spec, fwd, basis or BasisSpec()))


def control_distance(u: ControlProcess, v: ControlProcess) -> float:
    """L2-in-time distance (sum_i |u_i - v_i|^2 dt)^(1/2)."""
    _check_same_grid(u.grid, v.grid, "control_distance")
    if u.dim != v.dim:
        raise GridMismatchError("controls have different dimensions")
    diff = u.values - v.values
    return float(np.sqrt(np.sum(diff * diff) * u.grid.dt))
