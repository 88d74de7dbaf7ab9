"""Backward solvers: least-squares Monte Carlo, and exact on the binomial tree.

Conditional expectations come from one operator per forward bundle:
``ConditionalExpectation``, E[. | x(t_i)] as a per-step fit on a polynomial
basis in the standardized state with a tiny ridge, or, on the enumerated
binomial bundle, the exact ``TreeExpectation`` (the random-walk scheme of
Briand, Delyon and Memin).  One backward recursion and one adjoint sweep run
with either; the backward state recursion extracts the martingale integrands
by fitting the product of the next value with each noise increment.  The
regression kernel is column-major: each step's state is standardized from
contiguous coordinate rows, its design is written in place into the one
``(P, B)`` buffer the operator holds, and the increment targets are built
one contiguous column at a time into a target array the operator also holds.

Every trajectory, y, z1, z2 here and k, p, q1, q2 and rho * H_u in the
adjoint, is allocated like the forward state: ``(steps, P, d)`` with
column-major per-step slices, so the per-step updates, the fits' targets
and the gap's reductions over paths run along the contiguous path axis.

Each result holds what it was computed from: ``solve_backward(spec, fwd)``
returns a ``BackwardTrajectories`` that carries ``fwd`` (and so its control
and noise) and the operator it regressed with, and the cost and the adjoint
solvers take only that result.  The adjoint system uses the same operator,
reuses the same recursion for its backward components and integrates the
forward component by explicit Euler.  ``backward_bundle`` gives the bundle
a cost and an adjoint run on, and solves the backward equation only when
one of them reads y or z.

The adjoint system is solved by one sweep, which keeps two steps or every
step.  Each reversed step evaluates the Hamiltonian's coefficient
Jacobians once, for both corrector passes of p and for H_u.  The
Hamiltonian gap is folded into the sweep (``_GapFold``): its minimum
decouples per step for deterministic piecewise controls, so each step's
rho_i * H_u gives its path mean, that step's minimizer over U and its term
of a per-path sum.  ``solve_adjoint`` keeps p and r for two steps only and
rho * H_u for one, and returns the fold (``ControlGradient``) with the
control it was taken at; ``adjoint_trajectories`` keeps every step of all
of them.

Each reversed adjoint step's per-path work (h, l, the r update, the
Hamiltonian partials, the p corrector and rho * H_u) runs on path shards
(``paths``); the fits, the residual RMS and the gap's path mean and
minimizer, the only reductions across paths, stay on the calling thread,
so no output depends on the shard count, and a failure is the single
sweep's (``paths._on_path_shards``).  The k sweep, which only the
cost-through-y twins run, stays on the calling thread too.  While the
reversed sweep runs on more than one shard, BLAS runs single-threaded
(``paths._blas_for_shards`` says why).

Every sweep skips the terms that ``model.LiveTerms`` finds dead;
``adjoint_trajectories`` solves the value system and the p integrands
whatever the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement

import numpy as np

from . import hamiltonian as ham
from .errors import FbsdeError, RegressionError
from .forward_sim import ForwardTrajectories, _trajectory
from .model import ControlProcess, LiveTerms, ProblemSpec, live_terms
from .paths import _blas_for_shards, _on_path_shards

RIDGE = 1e-10
MAX_CONDITION = 1e14
MAX_DEGREE = 4


@dataclass(frozen=True)
class BasisSpec:
    """Polynomial basis in the state, all monomials up to total degree."""

    degree: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= MAX_DEGREE:
            raise RegressionError(f"basis degree must be in [0, {MAX_DEGREE}], got {self.degree}")

    def exponent_tuples(self, dim: int) -> list[tuple[int, ...]]:
        combos = []
        for total in range(self.degree + 1):
            combos.extend(combinations_with_replacement(range(dim), total))
        return combos


class _Operator:
    """A per-step conditional expectation: ``fit``, ``condition`` and the
    held ``targets`` arrays, over ``n_paths`` paths."""

    def __init__(self, n_paths: int):
        self._n_paths = n_paths
        self._targets: dict[int, np.ndarray] = {}

    def targets(self, width: int) -> np.ndarray:
        """The held column-major ``(P, width)`` array that fit targets of this
        width are built in; every step reuses it.

        Per-step arrays of this size are handed back to the allocator at the
        end of each step and faulted back in at the next.
        """
        if width not in self._targets:
            self._targets[width] = np.empty((self._n_paths, width), order="F")
        return self._targets[width]


class ConditionalExpectation(_Operator):
    """E[. | x(t_i)] on one forward bundle's states ``(N + 1, P, d)``.

    Least squares per step on the basis in the standardized state, with a
    tiny ridge.  Each step's centre, scale, Gram matrix and condition number
    are computed on first use and kept.  The operator holds one column-major
    ``(P, B)`` design buffer, allocated at the first fit, so an operator
    that never fits holds none and refuses no path count; the design of the
    step in use is written into it in place, column by column, and
    rewritten when another step is asked for.  It also holds one
    column-major target array per target width.
    """

    def __init__(self, states: np.ndarray, basis: BasisSpec):
        super().__init__(states.shape[1])
        self.states = states
        self.basis = basis
        combos = basis.exponent_tuples(states.shape[2])
        self._n_basis = len(combos)
        # each monomial after the constant is (its prefix's column) * (its last coordinate)
        self._factors = [(combos.index(c[:-1]), c[-1]) for c in combos[1:]]
        self._stats: dict[int, tuple] = {}
        self._buffer: np.ndarray | None = None
        self._held_step: int | None = None

    def _design(
        self, x: np.ndarray, mean: np.ndarray, scale: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Write the basis at states x (Q, d) into the column-major ``out`` (Q, B).

        The standardized coordinates are contiguous rows, and each monomial
        multiplies its factors left to right.
        """
        xc = np.subtract(x.T, mean[:, None], order="C")
        xc /= scale[:, None]
        out[:, 0] = 1.0
        for j, (prefix, coord) in enumerate(self._factors, start=1):
            np.multiply(out[:, prefix], xc[coord], out=out[:, j])
        return out

    def _statistics(self, i: int) -> tuple:
        """Step i's (centre, scale, Gram matrix, condition number)."""
        if self._buffer is None:
            n_paths, n_basis = self.states.shape[1], self._n_basis
            if n_paths < 10 * n_basis:
                raise RegressionError(
                    f"need at least {10 * n_basis} paths for a basis of size {n_basis}, "
                    f"got {n_paths}"
                )
            self._buffer = np.empty((n_paths, n_basis), order="F")
        if i not in self._stats:
            x = self.states[i]
            coords = x.T
            mean = coords.mean(axis=1)
            std = coords.std(axis=1)
            scale = np.where(std > 1e-12, std, 1.0)
            A = self._design(x, mean, scale, self._buffer)
            self._held_step = i
            gram = A.T @ A / x.shape[0] + RIDGE * np.eye(A.shape[1])
            condition = float(np.linalg.cond(gram))
            if not np.isfinite(condition) or condition > MAX_CONDITION:
                raise RegressionError(
                    f"design rank-deficient beyond ridge rescue at step {i}, "
                    f"condition {condition:.3e}"
                )
            self._stats[i] = (mean, scale, gram, condition)
        return self._stats[i]

    def fit(self, i: int, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (fitted values, coefficients) at step i; targets (P,) or (P, T).

        The fitted values are column-major, so a view of one column is
        contiguous; the transposed product has the bits of ``A @ coef``.
        """
        mean, scale, gram, _ = self._statistics(i)
        A = self._buffer
        if self._held_step != i:
            self._design(self.states[i], mean, scale, A)
            self._held_step = i
        flat = targets.ndim == 1
        tg = targets[:, None] if flat else targets
        coef = np.linalg.solve(gram, A.T @ tg / A.shape[0])
        fitted = (coef.T @ A.T).T
        if flat:
            return fitted[:, 0], coef[:, 0]
        return fitted, coef

    def evaluate(self, i: int, x: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """Step i's fitted map with coefficients ``coef`` at other states (Q, d)."""
        mean, scale, _, _ = self._statistics(i)
        out = np.empty((x.shape[0], self._n_basis), order="F")
        return self._design(x, mean, scale, out) @ coef

    def condition(self, i: int) -> float:
        """Condition number of step i's ridged Gram matrix."""
        return self._statistics(i)[3]


class TreeExpectation(_Operator):
    """Exact E[. | F_i] on the binomial bundle of ``steps`` steps: the mean
    over each depth-i node's contiguous block of 4**(N - i) paths."""

    def __init__(self, steps: int):
        super().__init__(4**steps)

    def fit(self, i: int, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (block means repeated over each block, node means) at step
        i; targets (P,) or (P, T)."""
        nodes = 4**i
        coef = targets.reshape(nodes, -1, *targets.shape[1:]).mean(axis=1)
        return np.repeat(coef, targets.shape[0] // nodes, axis=0), coef

    def condition(self, i: int) -> float:
        return 1.0


@dataclass
class RegressionDiagnostics:
    condition_numbers: list[float] = field(default_factory=list)
    residual_rms: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class BackwardTrajectories:
    """Backward state, time-major: y[i] is a column-major (paths, m) view;
    z's live on steps.

    ``forward`` is the bundle the sweep was solved on and ``operator`` the
    conditional expectation it regressed with; the adjoint sweep reuses both.
    A bundle from ``backward_bundle`` for a spec without
    ``model.LiveTerms.backward`` holds None for y, z1 and z2 and empty
    diagnostics: nothing was solved.
    """

    y: np.ndarray | None
    z1: np.ndarray | None
    z2: np.ndarray | None
    diagnostics: RegressionDiagnostics
    operator: ConditionalExpectation | TreeExpectation
    forward: ForwardTrajectories

    def values(self, spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y, z1, z2), or, when nothing was solved, read-only zero views of
        the trajectory shape; refused for a spec that reads them."""
        if self.y is not None:
            return self.y, self.z1, self.z2
        if live_terms(spec).backward:
            raise FbsdeError("this spec reads y or z: run it on a solved backward bundle")
        zero = np.broadcast_to(0.0, (self.forward.grid.steps + 1, self.forward.n_paths, spec.dim_y))
        return zero, zero, zero


@dataclass(frozen=True)
class ControlGradient:
    """The Hamiltonian gap's reading of the adjoint system, folded over paths
    one step at a time (``_GapFold``), with the control it was taken at.

    ``means`` (N, k) holds the path mean of rho_i * H_u(t_i) per step,
    ``minimizer`` the control v_i minimizing <means[i], .> over U at every
    step, and ``per_path_gap`` (P,) the sum over steps of
    dt * <rho_i H_u_i, v_i - u_i> per path, added from step N - 1 down.
    """

    means: np.ndarray
    minimizer: ControlProcess
    per_path_gap: np.ndarray
    diagnostics: RegressionDiagnostics
    control: ControlProcess


@dataclass(frozen=True)
class AdjointTrajectories(ControlGradient):
    """The folded gap with rho * H_u (``weighted``), the multipliers (k, p,
    q1, q2) and the value system (r, R1, R2) of every step, time-major; the
    per-step slices of ``weighted`` and of the multipliers are column-major."""

    weighted: np.ndarray
    k: np.ndarray
    p: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    r: np.ndarray
    R1: np.ndarray
    R2: np.ndarray


def _add_gap_step(per_path: np.ndarray, weighted: np.ndarray, direction: np.ndarray, dt: float) -> None:
    """Add dt * <weighted, direction> into ``per_path`` (P,), for one step's
    rho * H_u (P, k) and a direction (k,); column by column, so the bits do
    not depend on the layout of ``weighted``."""
    term = weighted[:, 0] * direction[0]
    for j in range(1, weighted.shape[1]):
        term += weighted[:, j] * direction[j]
    term *= dt
    per_path += term


class _GapFold:
    """The Hamiltonian gap folded into an adjoint sweep, one step at a time.

    ``add(i, weighted)`` takes step i's rho_i * H_u (P, k), from step N - 1
    down to 0, and is done with it when it returns, so a caller may reuse
    one buffer.  Step i's minimizer is the exact linear minimizer over U of
    the path mean, and its term dt * <rho_i H_u_i, v_i - u_i> is added per
    path (``_add_gap_step``).  A non-finite path mean is recorded and the
    step skipped; ``fields`` then names the earliest such step.
    """

    def __init__(self, spec: ProblemSpec, control: ControlProcess, n_paths: int):
        self._control_set = spec.control_set
        self._control = control
        self._means = np.empty(control.values.shape)
        self._minimizer = np.empty(control.values.shape)
        self._per_path = np.zeros(n_paths)
        self._first_bad: int | None = None

    def add(self, i: int, weighted: np.ndarray) -> None:
        mean = self._means[i] = weighted.mean(axis=0)
        if not np.isfinite(mean).all():
            self._first_bad = i
            return
        v = self._minimizer[i] = self._control_set.linear_minimize(mean)
        _add_gap_step(self._per_path, weighted, v - self._control.values[i], self._control.grid.dt)

    def fields(self) -> dict:
        """The ``ControlGradient`` fields the fold gives, diagnostics aside."""
        if self._first_bad is not None:
            raise FbsdeError(f"non-finite mean rho * H_u at step {self._first_bad}")
        return {
            "means": self._means,
            "minimizer": ControlProcess(values=self._minimizer, grid=self._control.grid),
            "per_path_gap": self._per_path,
            "control": self._control,
        }


def _regression_step(
    operator: _Operator,
    i: int,
    v_next: np.ndarray,
    fwd: ForwardTrajectories,
    integrands: bool = True,
):
    """One backward step at step i for a (P, d) value known at step i + 1,
    on the noise that drove ``fwd``.

    Returns E[v_next | x_i], the dW and dY integrands (each a (P, d) view of
    one fit) and the residual RMS of the value fit.  The increment targets
    are centred on the fitted mean: variance reduction with the same
    conditional expectation.  They are built in the operator's held target
    array, one contiguous column per product.  Without ``integrands`` the
    increment fit is not run and both integrands are None.
    """
    P, d = v_next.shape
    noise, dt = fwd.noise, fwd.grid.dt
    v_hat, _ = operator.fit(i, v_next)
    resid = v_next - v_hat
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if not integrands:
        return v_hat, None, None, rms
    increments = operator.targets(2 * d)
    for j in range(d):
        np.multiply(resid[:, j], noise.dW[:, i], out=increments[:, j])
        np.multiply(resid[:, j], noise.dY[:, i], out=increments[:, d + j])
    fitted, _ = operator.fit(i, increments)
    fitted /= dt
    return v_hat, fitted[:, :d], fitted[:, d:], rms


def solve_backward(
    spec: ProblemSpec, fwd: ForwardTrajectories, basis: BasisSpec = BasisSpec()
) -> BackwardTrajectories:
    """Backward regression recursion for (y, z1, z2) on the forward bundle."""
    return _backward_sweep(spec, fwd, ConditionalExpectation(fwd.x, basis))


def backward_bundle(
    spec: ProblemSpec, fwd: ForwardTrajectories, basis: BasisSpec = BasisSpec()
) -> BackwardTrajectories:
    """The bundle the cost and the adjoint of ``fwd``'s control run on:
    ``solve_backward``'s when either reads y or z (``model.LiveTerms``),
    otherwise ``fwd`` with the conditional expectation on its states and no
    y, z1 or z2 solved.  The operator computes each step's statistics on
    first use, so the adjoint gets the same fits, bit for bit, from either.
    """
    if live_terms(spec).backward:
        return solve_backward(spec, fwd, basis)
    return BackwardTrajectories(
        y=None,
        z1=None,
        z2=None,
        diagnostics=RegressionDiagnostics(),
        operator=ConditionalExpectation(fwd.x, basis),
        forward=fwd,
    )


def _backward_sweep(
    spec: ProblemSpec, fwd: ForwardTrajectories, operator: _Operator
) -> BackwardTrajectories:
    """The backward recursion for (y, z1, z2) with ``operator``.

    Per step: z's from martingale-increment fits, then the value update with
    the driver's y-argument resolved by an explicit predictor and one
    corrector evaluation, where ``model.LiveTerms`` finds them live.  The
    operator's buffers are allocated at its first fit, after the
    trajectories: before them, the design buffer raises the peak RSS of a
    line search's repeated solves (by 5 % on lq_obs at 20k x 32 under glibc).
    """
    u, grid = fwd.control, fwd.grid
    P, N, m = fwd.n_paths, grid.steps, spec.dim_y
    dt = grid.dt
    times = grid.times

    y = _trajectory(N + 1, P, m)
    z1 = _trajectory(N, P, m)
    z2 = _trajectory(N, P, m)
    y[N] = spec.terminal_phi.value(fwd.x[N])
    residuals = []
    live = live_terms(spec)
    passes = 2 if live.driver else 1
    update = live.driver or live.density

    for i in reversed(range(N)):
        t = times[i]
        xi = fwd.x[i]
        ui = u.values[i]
        y_hat, z1[i], z2[i], rms = _regression_step(operator, i, y[i + 1], fwd)

        # z2 * h only where h is live
        z2h = z2[i] * spec.observation_h.value(t, xi, ui)[:, None] if live.density else None
        y_arg = y_hat
        for _ in range(passes):
            f_val = spec.backward_f.value(t, xi, y_arg, z1[i], z2[i], ui)
            if update:
                y_arg = y_hat - (f_val if z2h is None else f_val - z2h) * dt
        y[i] = y_arg
        residuals.append(rms)

    diag = RegressionDiagnostics(
        condition_numbers=[operator.condition(i) for i in range(N)],
        residual_rms=residuals[::-1],
    )
    return BackwardTrajectories(
        y=y, z1=z1, z2=z2, diagnostics=diag, operator=operator, forward=fwd
    )


def _k_sweep(spec: ProblemSpec, bwd: BackwardTrajectories, live: LiveTerms) -> np.ndarray:
    """The forward multiplier k (N + 1, P, m) along ``bwd``'s admissible pair.

    dk = -H_y dt - H_z1 dW - H_z2 dW^u with k(0) = -gamma_y(y(0)) and
    dW^u = dY - h dt, over the slots of ``live.k_partials`` where
    ``live.backward`` holds, with h evaluated only while H_z2 is live; no
    other multiplier enters.  A k that no partial moves is k(0) held once
    and read as every step, a read-only stride-0 view.  The sweep runs on
    the calling thread: only the cost-through-y twins move k, and no
    benchmark workload runs one, so a gain from path shards here would be
    unmeasured.
    """
    fwd = bwd.forward
    u, noise, grid = fwd.control, fwd.noise, fwd.grid
    P, N, m = fwd.n_paths, grid.steps, spec.dim_y
    dt = grid.dt
    times = grid.times
    y, z1, z2 = bwd.values(spec)
    increments = {
        "y": lambda i, t, xi, ui: dt,
        "z1": lambda i, t, xi, ui: noise.dW[:, i, None],
        "z2": lambda i, t, xi, ui: (noise.dY[:, i] - spec.observation_h.value(t, xi, ui) * dt)[:, None],
    }
    moving = [
        (f"H_{slot}", getattr(ham, f"partial_{slot}"), increments[slot])
        for slot in (live.k_partials if live.backward else ())
    ]
    k = _trajectory(N + 1 if moving else 1, P, m)
    k[0] = -spec.initial_gamma.dy(y[0])
    if not moving:
        return np.broadcast_to(k[0], (N + 1, P, m))
    for i in range(N):
        t = times[i]
        xi = fwd.x[i]
        yi, z1i, z2i = y[i], z1[i], z2[i]
        ui = u.values[i]
        ki = k_next = k[i]
        for name, partial, increment in moving:
            grad = partial(spec, t, xi, yi, z1i, z2i, ui, ki)
            if not np.isfinite(grad).all():
                raise FbsdeError(f"non-finite Hamiltonian partial {name} at step {i}")
            k_next = k_next - grad * increment(i, t, xi, ui)
        k[i + 1] = k_next
    return k


def _adjoint_sweep(spec: ProblemSpec, bwd: BackwardTrajectories, live: LiveTerms, keep: bool):
    """Solve the multiplier system along ``bwd``'s admissible pair, skipping
    the terms that ``live`` finds dead, and fold the gap of every step.

    Order: the forward k equation first (``_k_sweep``), stored whole
    because the reversed sweep reads it backwards; then one reversed sweep
    that, per step, solves the scalar value system (r, R1, R2) and then the
    backward p system, which consumes k and, through the shifted slot of
    the Hamiltonian partials, R2.  Both backward systems fit with ``bwd``'s
    operator, so its per-step factorizations serve all three sweeps.
    Increments of the rotated observation noise are reconstructed pathwise
    as dY - h dt.  A bundle without backward values (``backward_bundle``) is
    read as zero y, z1 and z2 (``BackwardTrajectories.values``).

    Each reversed step runs its r and p fits on the calling thread, then
    its per-path work on path shards (``paths``): h and l, the r update, a
    ``ShiftedPartials`` on the shard's rows at its fixed k, q1 and q2, both
    passes of the p corrector, and rho_i * H_u written into the shard's
    rows of the step's weighted array; ``_GapFold`` then reads that array on
    the calling thread.  A failing step raises what the single sweep would
    (``paths._on_path_shards``).  While the reversed sweep runs on more
    than one shard, BLAS runs single-threaded (``paths._blas_for_shards``).

    Returns the fold, the regression diagnostics and what was kept.
    Without ``keep``, p and r are held for steps i and i + 1 only and
    rho * H_u for one step, and nothing is kept; with it, every step of
    k, weighted, p, q1, q2, r, R1 and R2 is written in place and kept, as
    a dict.  Without the value system, r, R1 and R2 are not solved.
    """
    fwd, operator = bwd.forward, bwd.operator
    u, grid = fwd.control, fwd.grid
    P, N, n = fwd.n_paths, grid.steps, spec.dim_x
    dt = grid.dt
    times = grid.times
    y, z1, z2 = bwd.values(spec)
    # step i's slot in the p and r arrays
    at = (lambda i: i) if keep else (lambda i: i % 2)
    held = N + 1 if keep else 2
    p = _trajectory(held, P, n)
    r = np.empty((held, P)) if live.value_system else None
    weighted = _trajectory(N if keep else 1, P, spec.dim_u)
    if keep:
        q1, q2 = _trajectory(N, P, n), _trajectory(N, P, n)
        R1, R2 = np.empty((N, P)), np.empty((N, P))
    reads_h = live.value_system or live.density
    fold = _GapFold(spec, u, P)
    r_residuals, p_residuals = [], []

    k = _k_sweep(spec, bwd, live)
    # value system: dr = -l dt + R1 dW + R2 dW^u, r(T) = Phi(x(T));
    # state multiplier: dp = -H_x dt + q1 dW + q2 dW^u,
    # p(T) = Phi_x(x(T)) - phi_x(x(T))^T k(T)
    np.subtract(
        spec.terminal_Phi.dx(fwd.x[N]),
        ham.vjp(k[N], spec.terminal_phi.dx(fwd.x[N])),
        out=p[at(N)],
    )
    if r is not None:
        r[at(N)] = spec.terminal_Phi.value(fwd.x[N])
    R1_i = R2_i = None
    with _blas_for_shards(P):
        for i in reversed(range(N)):
            t = times[i]
            ui = u.values[i]
            if r is not None:
                # the scalar r goes through the regression step as a (P, 1) column
                r_hat, R1_i, R2_i, rms = _regression_step(operator, i, r[at(i + 1)][:, None], fwd)
                r_hat, R1_i, R2_i = r_hat[:, 0], R1_i[:, 0], R2_i[:, 0]
                r_residuals.append(rms)
            p_hat, q1_i, q2_i, rms = _regression_step(operator, i, p[at(i + 1)], fwd, live.integrands)
            p_residuals.append(rms)
            w = weighted[i if keep else 0]

            def step(lo: int, hi: int) -> None:
                rows = slice(lo, hi)
                xi = fwd.x[i, rows]
                yi, z1i, z2i = y[i, rows], z1[i, rows], z2[i, rows]
                R2s = None if R2_i is None else R2_i[rows]
                q1s = None if q1_i is None else q1_i[rows]
                q2s = None if q2_i is None else q2_i[rows]
                if reads_h:
                    h = spec.observation_h.value(t, xi, ui)
                if r is not None:
                    l_val = spec.running_l.value(t, xi, yi, z1i, z2i, ui)
                    r[at(i), rows] = r_hat[rows] + (l_val + R2s * h) * dt
                q2h = q2s * h[:, None] if live.density else None
                k_i = k[i, rows] if live.backward else None
                partials = ham.ShiftedPartials(spec, t, xi, yi, z1i, z2i, ui, k_i, q1s, q2s)
                p_arg = p_hat[rows]
                for _ in range(2):
                    h_x = partials.h_x(p_arg, R2s)
                    if not np.isfinite(h_x).all():
                        raise FbsdeError(f"non-finite Hamiltonian partial H_x at step {i}")
                    p_arg = p_hat[rows] + (h_x if q2h is None else h_x + q2h) * dt
                p[at(i), rows] = p_arg
                np.multiply(fwd.rho[i, rows][:, None], partials.h_u(p_arg, R2s), out=w[rows])
                if keep:
                    q1[i, rows], q2[i, rows] = q1s, q2s
                    R1[i, rows], R2[i, rows] = R1_i[rows], R2s

            _on_path_shards(step, P)
            fold.add(i, w)

    # the r and p fits at a step share one Gram matrix, so each step's
    # condition number is listed once; residuals list every r fit the sweep
    # ran, then every p fit; both from the last step back
    diagnostics = RegressionDiagnostics(
        condition_numbers=[operator.condition(i) for i in reversed(range(N))],
        residual_rms=r_residuals + p_residuals,
    )
    kept = dict(k=k, weighted=weighted, p=p, q1=q1, q2=q2, r=r, R1=R1, R2=R2) if keep else None
    return fold, diagnostics, kept


def solve_adjoint(spec: ProblemSpec, bwd: BackwardTrajectories) -> ControlGradient:
    """The Hamiltonian gap's fold of rho_i * H_u(t_i) along ``bwd``'s
    admissible pair, from one adjoint sweep.

    Each reversed step writes rho_i * H_u into one held column-major (P, k)
    buffer, which ``_GapFold`` reads before the next step; no (N, P, k)
    array is built.  The multipliers p and r are kept for two steps only;
    ``adjoint_trajectories`` runs the same sweep and keeps them all.
    Without the value system the diagnostics list the p fits alone;
    without the integrands they are the same.
    """
    fold, diagnostics, _ = _adjoint_sweep(spec, bwd, live_terms(spec), keep=False)
    return ControlGradient(**fold.fields(), diagnostics=diagnostics)


def adjoint_trajectories(spec: ProblemSpec, bwd: BackwardTrajectories) -> AdjointTrajectories:
    """``solve_adjoint`` with rho * H_u and every multiplier kept, time-major.

    The same sweep, the same fold and the same numbers, with the value
    system and the p integrands solved whatever the spec; only what is
    stored differs.
    """
    live = replace(live_terms(spec), value_system=True, integrands=True)
    fold, diagnostics, kept = _adjoint_sweep(spec, bwd, live, keep=True)
    held = kept["k"]
    if not held.flags.writeable:
        # a k that nothing moves comes as one step read as every step
        kept["k"] = _trajectory(*held.shape)
        kept["k"][...] = held
    return AdjointTrajectories(**fold.fields(), diagnostics=diagnostics, **kept)
