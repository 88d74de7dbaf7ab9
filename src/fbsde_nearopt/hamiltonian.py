"""Hamiltonian evaluation, analytic partials, and sampled convexity checks.

The Hamiltonian pairs the running cost with every dynamics coefficient:

    H = l + <b, p> + <sigma1, q1> + <sigma2, q2> + <f, k> + <R2, h>.

Adjoint drifts need its partials evaluated with the last multiplier slot
shifted to R2 - sigma2^T p - z2^T k; the shift only matters for the x- and
u-partials, which carry the observation-drift gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import FbsdeError
from .model import ProblemSpec

Array = np.ndarray


def vjp(v, J) -> Array:
    """Per-path v^T J: v (P, rows) against J (P, rows, cols), giving (P, cols).

    v may hold one row (MultiplierPoint.single), shared by every path.  A
    Jacobian that is the same on every path (a broadcast view, stride 0
    along paths) is contracted with one matrix product.  np.dot, not @:
    at rows == cols == 1 the matmul path is several times slower than einsum.
    """
    v = np.broadcast_to(v, J.shape[:2])
    if J.strides[0] == 0:
        return np.dot(v, J[0])
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


def shifted_slot(spec: ProblemSpec, t, x, u, z2, mult: MultiplierPoint) -> Array:
    """R2 - <sigma2(t,x,u), p> - <z2, k>, per path."""
    return mult.R2 - _pair(spec.diffusion_sigma2.value(t, x, u), mult.p) - _pair(z2, mult.k)


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


def _shifted_gradient(
    spec: ProblemSpec, w: str, t, x, y, z1, z2, u, mult: MultiplierPoint, r2s: Array
) -> Array:
    """Gradient in w (dx or du) with the shifted slot r2s in the observation term."""
    return (
        getattr(spec.running_l, w)(t, x, y, z1, z2, u)
        + vjp(mult.p, getattr(spec.drift_b, w)(t, x, u))
        + vjp(mult.q1, getattr(spec.diffusion_sigma1, w)(t, x, u))
        + vjp(mult.q2, getattr(spec.diffusion_sigma2, w)(t, x, u))
        + vjp(mult.k, getattr(spec.backward_f, w)(t, x, y, z1, z2, u))
        + r2s[:, None] * getattr(spec.observation_h, w)(t, x, u)
    )


def partial_x(spec: ProblemSpec, t, x, y, z1, z2, u, mult: MultiplierPoint) -> Array:
    """x-gradient with the shifted last slot in the observation term."""
    r2s = shifted_slot(spec, t, x, u, z2, mult)
    return _shifted_gradient(spec, "dx", t, x, y, z1, z2, u, mult, r2s)


def partial_u(spec: ProblemSpec, t, x, y, z1, z2, u, mult: MultiplierPoint) -> Array:
    """u-gradient with the shifted last slot in the observation term."""
    r2s = shifted_slot(spec, t, x, u, z2, mult)
    return _shifted_gradient(spec, "du", t, x, y, z1, z2, u, mult, r2s)


@dataclass(frozen=True)
class HPartials:
    dx: Array
    dy: Array
    dz1: Array
    dz2: Array
    du: Array


def eval_H_partials(spec: ProblemSpec, t, x, y, z1, z2, u, mult: MultiplierPoint) -> HPartials:
    """All five partials, each at the shifted multiplier point."""
    r2s = shifted_slot(spec, t, x, u, z2, mult)
    parts = HPartials(
        dx=_shifted_gradient(spec, "dx", t, x, y, z1, z2, u, mult, r2s),
        dy=partial_y(spec, t, x, y, z1, z2, u, mult.k),
        dz1=partial_z1(spec, t, x, y, z1, z2, u, mult.k),
        dz2=partial_z2(spec, t, x, y, z1, z2, u, mult.k),
        du=_shifted_gradient(spec, "du", t, x, y, z1, z2, u, mult, r2s),
    )
    for name in ("dx", "dy", "dz1", "dz2", "du"):
        if not np.all(np.isfinite(getattr(parts, name))):
            raise FbsdeError(f"non-finite Hamiltonian partial H_{name[1:]}")
    return parts


# ---------------------------------------------------------------------------
# sampled convexity diagnosis


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

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "hamiltonian_ok": self.hamiltonian_ok,
            "worst_eigenvalue": self.worst_eigenvalue,
            "witness": self.witness,
            "phi_ok": self.phi_ok,
            "worst_phi_violation": self.worst_phi_violation,
            "gamma_ok": self.gamma_ok,
            "worst_gamma_violation": self.worst_gamma_violation,
            "n_probes": self.n_probes,
            "eig_tol": self.eig_tol,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _fd_hessian(fn, v: Array, step: float = 1e-4) -> Array:
    dim = v.shape[0]
    hess = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            vpp = v.copy(); vpp[i] += step; vpp[j] += step
            vpm = v.copy(); vpm[i] += step; vpm[j] -= step
            vmp = v.copy(); vmp[i] -= step; vmp[j] += step
            vmm = v.copy(); vmm[i] -= step; vmm[j] -= step
            hess[i, j] = hess[j, i] = (fn(vpp) - fn(vpm) - fn(vmp) + fn(vmm)) / (
                4.0 * step * step
            )
    return hess


def check_H_convexity(
    spec: ProblemSpec,
    mult_samples: int = 6,
    state_samples: int = 6,
    n_probes: int = 24,
    seed: int = 0,
    eig_tol: float = -1e-6,
    scale: float = 1.0,
) -> ConvexityReport:
    """Probe positive semidefiniteness of the joint (x,y,z1,z2,u) Hessian.

    Report-only: a failing probe is returned as a witness, never raised.
    Midpoint convexity of the terminal and initial costs is probed alongside.
    """
    if n_probes < 1:
        raise FbsdeError("n_probes must be >= 1")
    rng = np.random.default_rng(seed)
    n, m, kdim = spec.dim_x, spec.dim_y, spec.dim_u
    states = {
        "x": rng.normal(scale=scale, size=(state_samples, n)),
        "y": rng.normal(scale=scale, size=(state_samples, m)),
        "z1": rng.normal(scale=scale, size=(state_samples, m)),
        "z2": rng.normal(scale=scale, size=(state_samples, m)),
        "u": spec.control_set.sample(rng, state_samples),
    }
    mults = [
        MultiplierPoint.single(
            k=rng.normal(scale=scale, size=m),
            p=rng.normal(scale=scale, size=n),
            q1=rng.normal(scale=scale, size=n),
            q2=rng.normal(scale=scale, size=n),
            R2=rng.normal(scale=scale),
        )
        for _ in range(mult_samples)
    ]

    slices = {
        "x": slice(0, n),
        "y": slice(n, n + m),
        "z1": slice(n + m, n + 2 * m),
        "z2": slice(n + 2 * m, n + 3 * m),
        "u": slice(n + 3 * m, n + 3 * m + kdim),
    }
    dim = n + 3 * m + kdim

    worst_eig = np.inf
    witness = None
    for _ in range(n_probes):
        si = int(rng.integers(state_samples))
        mi = int(rng.integers(mult_samples))
        t = float(rng.uniform(0.0, spec.horizon))
        v0 = np.concatenate(
            [states[name][si] for name in ("x", "y", "z1", "z2", "u")]
        )
        mult = mults[mi]

        def h_of(v):
            return float(
                eval_H(
                    spec,
                    t,
                    v[slices["x"]][None, :],
                    v[slices["y"]][None, :],
                    v[slices["z1"]][None, :],
                    v[slices["z2"]][None, :],
                    v[slices["u"]],
                    mult,
                )[0]
            )

        eigs = np.linalg.eigvalsh(_fd_hessian(h_of, v0))
        if eigs[0] < worst_eig:
            worst_eig = float(eigs[0])
            witness = {
                "t": t,
                "x": states["x"][si].tolist(),
                "y": states["y"][si].tolist(),
                "z1": states["z1"][si].tolist(),
                "z2": states["z2"][si].tolist(),
                "u": states["u"][si].tolist(),
                "eigenvalue": float(eigs[0]),
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

    hamiltonian_ok = worst_eig >= eig_tol
    return ConvexityReport(
        hamiltonian_ok=hamiltonian_ok,
        worst_eigenvalue=float(worst_eig),
        witness=None if hamiltonian_ok else witness,
        phi_ok=phi_gap <= 1e-9,
        worst_phi_violation=phi_gap,
        gamma_ok=gamma_gap <= 1e-9,
        worst_gamma_violation=gamma_gap,
        n_probes=n_probes,
        eig_tol=eig_tol,
    )
