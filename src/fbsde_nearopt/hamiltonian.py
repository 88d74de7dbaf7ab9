"""Hamiltonian evaluation, analytic partials, and sampled convexity checks.

The Hamiltonian pairs the running cost with every dynamics coefficient:

    H = l + <b, p> + <sigma1, q1> + <sigma2, q2> + <f, k> + <R2, h>.

Adjoint drifts need its partials evaluated with the last multiplier slot
shifted to R2 - sigma2^T p - z2^T k; the shift only matters for the x- and
u-partials, which carry the observation-drift gradient.  Those two come
from one per-step evaluator, ``ShiftedPartials``: it holds everything but
p and R2 fixed, so the adjoint sweep evaluates each step's coefficient
Jacobians once, and none that is structurally zero: on the
full-observation LQ family only l_x + b_x^T p and l_u + b_u^T p remain.
``partial_x``, ``partial_u``, ``shifted_slot`` and ``eval_H_partials`` are
one-off calls into it.

``check_H_convexity(spec, n_probes, seed)`` probes the convexity the
sufficient condition needs; its sample pools and eigenvalue tolerance are
module constants, and its report records the tolerance as ``eig_tol``.  A
probe evaluates its whole finite-difference stencil with one ``eval_H``
call per distinct control value among the stencil's points.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import FbsdeError
from .model import ProblemSpec, sample_arguments, structurally_zero

Array = np.ndarray


def vjp(v, J) -> Array:
    """Per-path v^T J: v (P, rows) against J (P, rows, cols), giving (P, cols).

    v may hold one row (MultiplierPoint.single), shared by every path.  A
    Jacobian that is the same on every path (a broadcast view, stride 0
    along paths) is contracted with one matrix product, computed as
    (J[0]^T v^T)^T so that it comes out column-major like the trajectories;
    its bits are those of v J[0] with v in either layout.  A single column
    has no layout and is v J[0] over C-ordered rows: from three rows on,
    BLAS rounds the column-major matrix-vector product differently.  np.dot,
    not @: at rows == cols == 1 the matmul path is 3.5x slower.
    """
    v = np.broadcast_to(v, J.shape[:2])
    if J.strides[0] == 0:
        if J.shape[2] == 1:
            return np.dot(np.ascontiguousarray(v), J[0])
        return np.dot(J[0].T, v.T).T
    return np.einsum("pij,pi->pj", J, v)


@dataclass(frozen=True)
class MultiplierPoint:
    """Adjoint multipliers (k, p, q1, q2, R2), vectorized over paths."""

    k: Array
    p: Array
    q1: Array
    q2: Array
    R2: Array

    @staticmethod
    def single(k, p, q1, q2, R2) -> "MultiplierPoint":
        return MultiplierPoint(
            k=np.atleast_2d(np.asarray(k, dtype=float)),
            p=np.atleast_2d(np.asarray(p, dtype=float)),
            q1=np.atleast_2d(np.asarray(q1, dtype=float)),
            q2=np.atleast_2d(np.asarray(q2, dtype=float)),
            R2=np.atleast_1d(np.asarray(R2, dtype=float)),
        )


def _pair(values: Array, mult: Array) -> Array:
    """Per-path <values, mult>; mult may hold one row shared by every path."""
    return np.einsum("pi,pi->p", values, np.broadcast_to(mult, values.shape))


def eval_H(spec: ProblemSpec, t, x, y, z1, z2, u, mult: MultiplierPoint) -> Array:
    """The six-term pairing, per path."""
    terms = {
        "running_l": spec.running_l.value(t, x, y, z1, z2, u),
        "drift_b": _pair(spec.drift_b.value(t, x, u), mult.p),
        "diffusion_sigma1": _pair(spec.diffusion_sigma1.value(t, x, u), mult.q1),
        "diffusion_sigma2": _pair(spec.diffusion_sigma2.value(t, x, u), mult.q2),
        "backward_f": _pair(spec.backward_f.value(t, x, y, z1, z2, u), mult.k),
        "observation_h": mult.R2 * spec.observation_h.value(t, x, u),
    }
    total = np.zeros(x.shape[0])
    for name, term in terms.items():
        if not np.all(np.isfinite(term)):
            raise FbsdeError(f"non-finite Hamiltonian term from {name}")
        total = total + term
    return total


class ShiftedPartials:
    """H_x and H_u with the shifted last slot, at one step's fixed arguments.

    Built from (t, x, y, z1, z2, u) and the step's k, q1 and q2, which the
    adjoint sweep holds fixed while it iterates p.  Each of the x- and
    u-gradients evaluates its coefficient Jacobians, with their q1, q2 and
    k products, on first use.  A structurally zero Jacobian
    (``model.structurally_zero``) is neither evaluated nor multiplied; a
    multiplier given as None is zero (``model.LiveTerms``), and the
    Jacobians it would multiply and, for k, the slot's <z2, k> go with it.
    The slot is evaluated on first use, by a gradient whose h Jacobian is
    live.  Every later call pays only the p and R2 terms.  The sums add the
    present terms in one order, l, then the p, q1, q2 and k products, then
    r2s * h, so every call is bitwise equal to a fresh evaluation.
    """

    def __init__(self, spec: ProblemSpec, t, x, y, z1, z2, u, k: Array, q1: Array, q2: Array):
        self._spec = spec
        self._args = (t, x, y, z1, z2, u)
        self._k, self._q1, self._q2 = k, q1, q2
        self._slot_fixed: tuple | None = None
        self._fixed: dict[str, tuple] = {}

    def slot(self, p: Array, R2: Array) -> Array:
        """R2 - <sigma2(t,x,u), p> - <z2, k>, per path."""
        if self._slot_fixed is None:
            t, x, _, _, z2, u = self._args
            z2k = None if self._k is None else _pair(z2, self._k)
            self._slot_fixed = (self._spec.diffusion_sigma2.value(t, x, u), z2k)
        sigma2, z2k = self._slot_fixed
        slot = R2 - _pair(sigma2, p)
        return slot if z2k is None else slot - z2k

    def _terms(self, w: str) -> tuple:
        """l_w, b_w, the q1, q2 and k products and h_w, for w in dx, du;
        None in place of a structurally zero Jacobian and its product."""
        if w not in self._fixed:
            spec, (t, x, y, z1, z2, u) = self._spec, self._args

            def jacobian(coeff, *args):
                part = getattr(coeff, w)
                return None if structurally_zero(part) else part(*args)

            def product(v, coeff, *args):
                J = None if v is None else jacobian(coeff, *args)
                return None if J is None else vjp(v, J)

            self._fixed[w] = (
                jacobian(spec.running_l, t, x, y, z1, z2, u),
                jacobian(spec.drift_b, t, x, u),
                product(self._q1, spec.diffusion_sigma1, t, x, u),
                product(self._q2, spec.diffusion_sigma2, t, x, u),
                product(self._k, spec.backward_f, t, x, y, z1, z2, u),
                jacobian(spec.observation_h, t, x, u),
            )
        return self._fixed[w]

    def _gradient(self, w: str, p: Array, R2: Array) -> Array:
        l_w, b_w, q1_term, q2_term, k_term, h_w = self._terms(w)
        terms = [l_w, None if b_w is None else vjp(p, b_w), q1_term, q2_term, k_term]
        if h_w is not None:
            terms.append(np.multiply(self.slot(p, R2)[:, None], h_w, order="F"))
        present = [term for term in terms if term is not None]
        if len(present) > 1:
            return sum(present[1:], present[0])
        if present:
            # a lone term may be a coefficient's read-only output
            return np.array(present[0], order="F")
        width = self._spec.dim_x if w == "dx" else self._spec.dim_u
        return np.zeros((self._args[1].shape[0], width), order="F")

    def h_x(self, p: Array, R2: Array) -> Array:
        """x-gradient with the shifted last slot in the observation term."""
        return self._gradient("dx", p, R2)

    def h_u(self, p: Array, R2: Array) -> Array:
        """u-gradient with the shifted last slot in the observation term."""
        return self._gradient("du", p, R2)


def _shifted(spec: ProblemSpec, t, x, y, z1, z2, u, mult: MultiplierPoint) -> ShiftedPartials:
    return ShiftedPartials(spec, t, x, y, z1, z2, u, mult.k, mult.q1, mult.q2)


def shifted_slot(spec: ProblemSpec, t, x, u, z2, mult: MultiplierPoint) -> Array:
    """R2 - <sigma2(t,x,u), p> - <z2, k>, per path."""
    # the slot reads no Jacobian, so y and z1 are never asked for
    return _shifted(spec, t, x, None, None, z2, u, mult).slot(mult.p, mult.R2)


def _driver_gradient(spec: ProblemSpec, w: str, t, x, y, z1, z2, u, k: Array) -> Array:
    """l_w + f_w^T k for a backward slot w in dy, dz1, dz2: no multiplier shift."""
    f_w = getattr(spec.backward_f, w)(t, x, y, z1, z2, u)
    l_w = getattr(spec.running_l, w)(t, x, y, z1, z2, u)
    return l_w + vjp(k, f_w)


def partial_y(spec: ProblemSpec, t, x, y, z1, z2, u, k: Array) -> Array:
    return _driver_gradient(spec, "dy", t, x, y, z1, z2, u, k)


def partial_z1(spec: ProblemSpec, t, x, y, z1, z2, u, k: Array) -> Array:
    return _driver_gradient(spec, "dz1", t, x, y, z1, z2, u, k)


def partial_z2(spec: ProblemSpec, t, x, y, z1, z2, u, k: Array) -> Array:
    return _driver_gradient(spec, "dz2", t, x, y, z1, z2, u, k)


def partial_x(spec: ProblemSpec, t, x, y, z1, z2, u, mult: MultiplierPoint) -> Array:
    """x-gradient with the shifted last slot in the observation term."""
    return _shifted(spec, t, x, y, z1, z2, u, mult).h_x(mult.p, mult.R2)


def partial_u(spec: ProblemSpec, t, x, y, z1, z2, u, mult: MultiplierPoint) -> Array:
    """u-gradient with the shifted last slot in the observation term."""
    return _shifted(spec, t, x, y, z1, z2, u, mult).h_u(mult.p, mult.R2)


@dataclass(frozen=True)
class HPartials:
    dx: Array
    dy: Array
    dz1: Array
    dz2: Array
    du: Array


def eval_H_partials(spec: ProblemSpec, t, x, y, z1, z2, u, mult: MultiplierPoint) -> HPartials:
    """All five partials, each at the shifted multiplier point."""
    shifted = _shifted(spec, t, x, y, z1, z2, u, mult)
    parts = HPartials(
        dx=shifted.h_x(mult.p, mult.R2),
        dy=partial_y(spec, t, x, y, z1, z2, u, mult.k),
        dz1=partial_z1(spec, t, x, y, z1, z2, u, mult.k),
        dz2=partial_z2(spec, t, x, y, z1, z2, u, mult.k),
        du=shifted.h_u(mult.p, mult.R2),
    )
    for name in ("dx", "dy", "dz1", "dz2", "du"):
        if not np.all(np.isfinite(getattr(parts, name))):
            raise FbsdeError(f"non-finite Hamiltonian partial H_{name[1:]}")
    return parts


# ---------------------------------------------------------------------------
# sampled convexity diagnosis

# the probe draws its states and multipliers from fixed pools of this size
_STATE_SAMPLES = 6
_MULT_SAMPLES = 6
# smallest Hessian eigenvalue still read as positive semidefinite
_EIG_TOL = -1e-6
_ARGS = ("x", "y", "z1", "z2", "u")


@dataclass
class ConvexityReport:
    hamiltonian_ok: bool
    worst_eigenvalue: float
    witness: dict | None
    phi_ok: bool
    worst_phi_violation: float
    gamma_ok: bool
    worst_gamma_violation: float
    n_probes: int
    eig_tol: float

    @property
    def passed(self) -> bool:
        return self.hamiltonian_ok and self.phi_ok and self.gamma_ok

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _fd_hessian(fn, v: Array, step: float = 1e-4) -> Array:
    """Central-difference Hessian of fn at v, fn mapping stencil rows (Q, dim)
    to values (Q,).

    Each index pair i <= j has four corners, v stepped by +-step in i and
    then in j, and all corners are evaluated in one call.
    """
    dim = v.shape[0]
    i, j = np.triu_indices(dim)
    pairs = np.arange(i.size)[:, None]
    corners = np.tile(v, (i.size, 4, 1))
    # corners (+, +), (+, -), (-, +), (-, -): step i, then j
    corners[pairs, np.arange(4), i[:, None]] += np.array([step, step, -step, -step])
    corners[pairs, np.arange(4), j[:, None]] += np.array([step, -step, step, -step])
    f = fn(corners.reshape(-1, dim)).reshape(i.size, 4)
    hess = np.empty((dim, dim))
    hess[i, j] = hess[j, i] = (f[:, 0] - f[:, 1] - f[:, 2] + f[:, 3]) / (4.0 * step * step)
    return hess


def check_H_convexity(spec: ProblemSpec, n_probes: int = 24, seed: int = 0) -> ConvexityReport:
    """Probe positive semidefiniteness of the joint (x,y,z1,z2,u) Hessian.

    Each probe takes a finite-difference Hessian at one of _STATE_SAMPLES
    sampled points, one of _MULT_SAMPLES multiplier draws and a random time;
    an eigenvalue below _EIG_TOL fails it.  Report-only: a failing probe is
    returned as a witness, never raised.  Midpoint convexity of the terminal
    and initial costs is probed alongside.
    """
    if n_probes < 1:
        raise FbsdeError("n_probes must be >= 1")
    rng = np.random.default_rng(seed)
    n, m = spec.dim_x, spec.dim_y
    states = sample_arguments(spec, rng, _STATE_SAMPLES)
    mults = [
        MultiplierPoint.single(
            k=rng.normal(size=m),
            p=rng.normal(size=n),
            q1=rng.normal(size=n),
            q2=rng.normal(size=n),
            R2=rng.normal(),
        )
        for _ in range(_MULT_SAMPLES)
    ]
    # v concatenates the five arguments, sliced back out per stencil row
    ends = np.cumsum([states[a].shape[1] for a in _ARGS]).tolist()
    slices = [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]

    worst_eig = np.inf
    witness = None
    for _ in range(n_probes):
        si = int(rng.integers(_STATE_SAMPLES))
        mi = int(rng.integers(_MULT_SAMPLES))
        t = float(rng.uniform(0.0, spec.horizon))
        v0 = np.concatenate([states[a][si] for a in _ARGS])
        mult = mults[mi]

        def h_of(rows):
            # the control is shared by a call's paths: one call per control value
            x, y, z1, z2, u = (rows[:, s] for s in slices)
            out = np.empty(rows.shape[0])
            for value in np.unique(u, axis=0):
                at = (u == value).all(axis=1)
                out[at] = eval_H(spec, t, x[at], y[at], z1[at], z2[at], value, mult)
            return out

        eigs = np.linalg.eigvalsh(_fd_hessian(h_of, v0))
        if eigs[0] < worst_eig:
            worst_eig = float(eigs[0])
            witness = {
                "t": t,
                **{a: states[a][si].tolist() for a in _ARGS},
                "eigenvalue": worst_eig,
            }

    def midpoint_violation(value_fn, points: Array) -> float:
        worst = 0.0
        for _ in range(n_probes):
            i, j = rng.integers(points.shape[0], size=2)
            a, b = points[i], points[j]
            lhs = float(value_fn(((a + b) / 2.0)[None, :])[0])
            rhs = 0.5 * (float(value_fn(a[None, :])[0]) + float(value_fn(b[None, :])[0]))
            worst = max(worst, lhs - rhs)
        return worst

    phi_gap = midpoint_violation(spec.terminal_Phi.value, states["x"])
    gamma_gap = midpoint_violation(spec.initial_gamma.value, states["y"])

    hamiltonian_ok = worst_eig >= _EIG_TOL
    return ConvexityReport(
        hamiltonian_ok=hamiltonian_ok,
        worst_eigenvalue=float(worst_eig),
        witness=None if hamiltonian_ok else witness,
        phi_ok=phi_gap <= 1e-9,
        worst_phi_violation=phi_gap,
        gamma_ok=gamma_gap <= 1e-9,
        worst_gamma_violation=gamma_gap,
        n_probes=n_probes,
        eig_tol=_EIG_TOL,
    )
