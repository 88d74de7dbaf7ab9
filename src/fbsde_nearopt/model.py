"""Problem instances: coefficient maps, control sets, admissible controls.

Coefficient callables are vectorized over a leading path axis: state
arguments arrive as (P, n) arrays (y, z1, z2 as (P, m)) and the control as
a flat (k,) vector shared by all paths.  In the pipeline the state
arguments are column-major views, one step of a trajectory; a value must
not depend on the layout, and elementwise numpy keeps it, so a map built
from elementwise operations returns column-major output.  A callable may return anything
broadcastable to its documented shape; ProblemSpec wraps each one once, so
every caller gets a float (P, *out, *width) array.  An output smaller than
that comes back as a read-only broadcast view, so no caller may write into
a coefficient output.  All maps must be pure.  Every map must also be
row-wise (row j of its output depends only on row j of its arguments) and
safe to call from two threads at once, because the forward sweep and the
cost run on path shards (``paths``), each passing only its own rows; a
pure map built from per-row operations is both.  A part given as the zero
part of ``zero_coefficient()`` / ``zero_driver()`` is ``structurally_zero``,
and declaring a part that way lets the pipeline skip work: ``live_terms``
decides once which terms are live, and ``LiveTerms`` states each rule.

``validate_problem`` audits the nine coefficients in one loop: every
declared partial is differenced in the sampled argument it names (dx in x,
dy in y, dz1 in z1, dz2 in z2, du in u), with the arguments each container
takes, and the declared bound is checked on sigma2 and h.  Reports
serialize through ``dataclasses.asdict``.
"""

from __future__ import annotations

import csv
import functools
import inspect
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .errors import FbsdeError, InvalidControlError
from .paths import TimeGrid

Array = np.ndarray

PROJECTION_TOL = 1e-12


# ---------------------------------------------------------------------------
# control sets


class ControlSet:
    """Convex compact subset of R^k with exact projection and linear minimization."""

    dim: int

    def project(self, point: Array) -> Array:
        raise NotImplementedError

    def linear_minimize(self, g: Array) -> Array:
        raise NotImplementedError

    def center(self) -> Array:
        raise NotImplementedError

    def contains(self, point: Array, tol: float = PROJECTION_TOL) -> bool:
        point = np.asarray(point, dtype=float)
        return bool(np.linalg.norm(point - self.project(point)) <= tol)

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        raise NotImplementedError


@dataclass(frozen=True)
class Box(ControlSet):
    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise FbsdeError("box bounds must be 1-d arrays of equal length")
        if np.any(lower > upper):
            raise FbsdeError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, point: Array) -> Array:
        return np.clip(np.asarray(point, dtype=float), self.lower, self.upper)

    def linear_minimize(self, g: Array) -> Array:
        g = np.asarray(g, dtype=float)
        mid = 0.5 * (self.lower + self.upper)
        return np.where(g > 0.0, self.lower, np.where(g < 0.0, self.upper, mid))

    def center(self) -> Array:
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))


@dataclass(frozen=True)
class Ball(ControlSet):
    center_point: Array
    radius: float

    def __post_init__(self) -> None:
        center = np.atleast_1d(np.asarray(self.center_point, dtype=float))
        if self.radius <= 0.0:
            raise FbsdeError("ball radius must be positive")
        object.__setattr__(self, "center_point", center)

    @property
    def dim(self) -> int:
        return self.center_point.shape[0]

    def project(self, point: Array) -> Array:
        point = np.asarray(point, dtype=float)
        offset = point - self.center_point
        norm = np.linalg.norm(offset)
        if norm <= self.radius:
            return point.copy()
        return self.center_point + offset * (self.radius / norm)

    def linear_minimize(self, g: Array) -> Array:
        g = np.asarray(g, dtype=float)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            return self.center_point.copy()
        return self.center_point - g * (self.radius / norm)

    def center(self) -> Array:
        return self.center_point.copy()

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        raw = rng.standard_normal((n, self.dim))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
        radii = self.radius * rng.random(n) ** (1.0 / self.dim)
        return self.center_point + raw * radii[:, None]


# ---------------------------------------------------------------------------
# controls


@dataclass(frozen=True)
class ControlProcess:
    """Deterministic piecewise-constant control on a time grid."""

    values: Array
    grid: TimeGrid

    def __post_init__(self) -> None:
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.shape[0] != self.grid.steps:
            raise FbsdeError(
                f"control needs one value per step: got {values.shape[0]} for N={self.grid.steps}"
            )
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def make_control(
    values: Array,
    grid: TimeGrid,
    control_set: ControlSet,
    project: bool = False,
) -> ControlProcess:
    """Build an admissible control, optionally projecting values into U."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.ndim != 2:
        raise FbsdeError("control values must be a (steps, dim) array")
    if values.shape == (1, grid.steps) and control_set.dim == 1:
        values = values.T
    if project:
        values = np.stack([control_set.project(v) for v in values])
    for i, v in enumerate(values):
        if not control_set.contains(v):
            raise InvalidControlError(
                f"control value at step {i} lies outside U by more than {PROJECTION_TOL}: {v}"
            )
    return ControlProcess(values=values, grid=grid)


def constant_control(value, grid: TimeGrid, control_set: ControlSet) -> ControlProcess:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return make_control(np.tile(value, (grid.steps, 1)), grid, control_set)


def control_to_csv(control: ControlProcess, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step"] + [f"u{j}" for j in range(control.dim)])
        for i, row in enumerate(control.values):
            writer.writerow([i] + [repr(float(v)) for v in row])


def control_from_csv(path: str, grid: TimeGrid, control_set: ControlSet) -> ControlProcess:
    """Read a control written by control_to_csv; blank lines are skipped."""
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    try:
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise FbsdeError(f"control file {path} is not a table of numbers: {exc}") from None
    if values.ndim != 2:
        raise FbsdeError(f"control file {path} has no control rows")
    return make_control(values, grid, control_set)


# ---------------------------------------------------------------------------
# coefficient containers


@dataclass(frozen=True)
class Coefficient:
    """Map (t, x, u) with partials in x and u.

    value: (P, out); dx: (P, out, n); du: (P, out, k).  A scalar map (the
    observation drift h) uses out-free shapes (P,), (P, n), (P, k).
    """

    value: Callable[[float, Array, Array], Array]
    dx: Callable[[float, Array, Array], Array]
    du: Callable[[float, Array, Array], Array]


@dataclass(frozen=True)
class DriverCoefficient:
    """Map (t, x, y, z1, z2, u) with partials in each state slot."""

    value: Callable
    dx: Callable
    dy: Callable
    dz1: Callable
    dz2: Callable
    du: Callable


@dataclass(frozen=True)
class TerminalCoefficient:
    """Map x -> value with Jacobian dx."""

    value: Callable[[Array], Array]
    dx: Callable[[Array], Array]


@dataclass(frozen=True)
class InitialCoefficient:
    """Map y -> scalar with gradient dy."""

    value: Callable[[Array], Array]
    dy: Callable[[Array], Array]


def _zero(*args) -> float:
    """Any coefficient part that is identically zero."""
    return 0.0


def structurally_zero(part: Callable) -> bool:
    """Whether a coefficient part is the zero part ``zero_coefficient()`` and
    ``zero_driver()`` are built from, seen through ``functools.wraps``
    wrappers such as ``_shaped``'s.  Decided from the spec alone: a map that
    merely returns zero is not structurally zero."""
    return inspect.unwrap(part) is _zero


def zero_coefficient() -> Coefficient:
    """Coefficient identically zero, in whatever shape its field documents."""
    return Coefficient(value=_zero, dx=_zero, du=_zero)


def zero_driver() -> DriverCoefficient:
    return DriverCoefficient(value=_zero, dx=_zero, dy=_zero, dz1=_zero, dz2=_zero, du=_zero)


_SHAPE_MARK = "_coefficient_shape"


def _shaped(fn: Callable, name: str, rows_arg: int, trailing: tuple[int, ...]) -> Callable:
    """fn returning a float (P, *trailing) array, P the row count of its
    argument rows_arg; a smaller output comes back as a read-only broadcast
    view.  An fn already shaped to trailing is returned as it is: wrappers
    made with functools.wraps copy the mark, so they are kept too."""
    if getattr(fn, _SHAPE_MARK, None) == trailing:
        return fn

    @functools.wraps(fn)
    def shaped(*args):
        out = np.asarray(fn(*args), dtype=float)
        shape = (args[rows_arg].shape[0], *trailing)
        if out.shape == shape:
            return out
        try:
            return np.broadcast_to(out, shape)
        except ValueError:
            raise FbsdeError(
                f"{name} returned shape {out.shape}, which does not broadcast to {shape}"
            ) from None

    setattr(shaped, _SHAPE_MARK, trailing)
    return shaped


# ---------------------------------------------------------------------------
# problem spec


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance: dynamics, observation, costs, control set."""

    dim_x: int
    dim_y: int
    dim_u: int
    horizon: float
    drift_b: Coefficient
    diffusion_sigma1: Coefficient
    diffusion_sigma2: Coefficient
    backward_f: DriverCoefficient
    observation_h: Coefficient
    terminal_phi: TerminalCoefficient
    running_l: DriverCoefficient
    terminal_Phi: TerminalCoefficient
    initial_gamma: InitialCoefficient
    initial_x: Array
    control_set: ControlSet
    bound_sigma2_h: float = 100.0
    phi_linear: bool = False
    label: str = "custom"

    def __post_init__(self) -> None:
        if min(self.dim_x, self.dim_y, self.dim_u) < 1:
            raise FbsdeError("dimensions must be positive")
        if self.horizon <= 0.0:
            raise FbsdeError("horizon must be positive")
        x0 = np.atleast_1d(np.asarray(self.initial_x, dtype=float))
        if x0.shape != (self.dim_x,):
            raise FbsdeError(f"initial_x must have shape ({self.dim_x},)")
        if self.control_set.dim != self.dim_u:
            raise FbsdeError("control set dimension must equal dim_u")
        object.__setattr__(self, "initial_x", x0)
        self._shape_coefficients()

    def _shape_coefficients(self) -> None:
        """Wrap every coefficient part to return its (P, *out, *width) shape."""
        n, m, k = self.dim_x, self.dim_y, self.dim_u
        width = {"value": (), "dx": (n,), "dy": (m,), "dz1": (m,), "dz2": (m,), "du": (k,)}
        out = {
            "drift_b": (n,),
            "diffusion_sigma1": (n,),
            "diffusion_sigma2": (n,),
            "backward_f": (m,),
            "observation_h": (),
            "terminal_phi": (m,),
            "running_l": (),
            "terminal_Phi": (),
            "initial_gamma": (),
        }
        for name, out_shape in out.items():
            coeff = getattr(self, name)
            # (t, x, ...) maps count paths in x; terminal and initial maps in their argument
            rows_arg = 1 if isinstance(coeff, (Coefficient, DriverCoefficient)) else 0
            parts = {
                f.name: _shaped(
                    getattr(coeff, f.name),
                    f"{name}.{f.name}",
                    rows_arg,
                    (*out_shape, *width[f.name]),
                )
                for f in fields(coeff)
            }
            if any(fn is not getattr(coeff, part) for part, fn in parts.items()):
                object.__setattr__(self, name, replace(coeff, **parts))


@dataclass(frozen=True)
class LiveTerms:
    """Which terms of a spec's system are live, from its structurally zero
    parts (``structurally_zero``).  Every sweep skips what is not live: a
    term that is identically zero, or that nothing reads.  A skipped term is
    an exact zero, so at most the sign of a zero differs from computing it.

    ``sigma2``: sigma2's value is not zero.  Otherwise the forward step has
    no sigma2 * h and sigma2 * dY terms.

    ``density``: h's value is not zero.  Otherwise rho is identically one,
    held as one step and read as a stride-0 trajectory, and the p
    corrector's q2 * h term is dropped.  With neither ``sigma2`` nor
    ``density`` no step reads dY, which ``sample_noise`` draws only on its
    first read.

    ``backward``: the cost or the adjoint reads y, z1 or z2; false when
    gamma's value and y-partial and l's y-, z1- and z2-partials are all
    zero.  Then k(0) = -gamma_y = 0 and the k equation is linear and
    homogeneous in k, so k stays zero and f's partials multiply only zero.
    Where it is false, ``bsde.backward_bundle`` solves no backward equation
    and the sweeps read zero y, z1 and z2, no k sweep runs, and
    ``hamiltonian.ShiftedPartials`` gets k as None.

    ``driver``: f's value is not zero.  Otherwise the backward update skips
    its corrector pass, which would repeat the predictor, and with
    ``density`` false too, its f and z2 * h terms: y is the fitted mean
    itself.

    ``k_partials``: the slots (y, z1, z2) whose f or l partial is not zero,
    the only H_y, H_z1 and H_z2 the k sweep calls where ``backward`` holds.
    A k that no partial moves is held as k(0), read as a stride-0
    trajectory.

    ``value_system``: h's x- or u-Jacobian is not zero.  Only they carry R2
    into H_x and H_u, so otherwise ``bsde.solve_adjoint`` does not solve
    (r, R1, R2); h is then free of state and control, as the sufficient
    certificate requires.

    ``integrands``: sigma1's or sigma2's x- or u-Jacobian, or h's value, is
    not zero: the only parts H_x, H_u and the p corrector multiply q1 and q2
    by.  Otherwise ``bsde.solve_adjoint`` runs the p step's value fit
    without its increment fit, and q1 and q2 are None.
    """

    sigma2: bool
    density: bool
    backward: bool
    driver: bool
    k_partials: tuple[str, ...]
    value_system: bool
    integrands: bool


def live_terms(spec: ProblemSpec) -> LiveTerms:
    """The ``LiveTerms`` of ``spec``, from about twenty ``structurally_zero``
    calls: a sweep takes it once, before its loop."""

    def live(*parts: Callable) -> bool:
        return not all(structurally_zero(part) for part in parts)

    s1, s2, h = spec.diffusion_sigma1, spec.diffusion_sigma2, spec.observation_h
    f, l, gamma = spec.backward_f, spec.running_l, spec.initial_gamma
    return LiveTerms(
        sigma2=live(s2.value),
        density=live(h.value),
        backward=live(gamma.value, gamma.dy, l.dy, l.dz1, l.dz2),
        driver=live(f.value),
        k_partials=tuple(
            slot for slot in ("y", "z1", "z2") if live(getattr(f, f"d{slot}"), getattr(l, f"d{slot}"))
        ),
        value_system=live(h.dx, h.du),
        integrands=live(s1.dx, s1.du, s2.dx, s2.du, h.value),
    )


def without_observation(spec: ProblemSpec) -> ProblemSpec:
    """The same instance with h replaced by zero (weak-formulation view)."""
    return replace(
        spec,
        observation_h=zero_coefficient(),
        label=spec.label + "+h0",
    )


# ---------------------------------------------------------------------------
# validation

# the audited coefficients in report order, and the two the bound applies to
_AUDITED = (
    "drift_b", "diffusion_sigma1", "diffusion_sigma2", "observation_h", "backward_f",
    "running_l", "terminal_phi", "terminal_Phi", "initial_gamma",
)
_BOUNDED = ("diffusion_sigma2", "observation_h")

# the sampled argument that each declared partial differentiates in
_PART_ARG = {"dx": "x", "dy": "y", "dz1": "z1", "dz2": "z2", "du": "u"}


@dataclass
class CoefficientCheck:
    name: str
    max_discrepancy: float
    worst_partial: str
    worst_point: list[float]
    finite: bool
    bounded: bool
    message: str = ""

    def passed(self, tol: float) -> bool:
        return self.finite and self.bounded and self.max_discrepancy <= tol


@dataclass
class ValidationReport:
    passed: bool
    tol: float
    samples: int
    seed: int
    checks: list[CoefficientCheck] = field(default_factory=list)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed(self.tol)]

    def to_dict(self) -> dict:
        return asdict(self)


_FD_STEP = 1e-5


def sample_arguments(spec: ProblemSpec, rng: np.random.Generator, count: int) -> dict[str, Array]:
    """count standard-normal states x, y, z1, z2 and count controls drawn from U."""
    n, m = spec.dim_x, spec.dim_y
    return {
        "x": rng.normal(size=(count, n)),
        "y": rng.normal(size=(count, m)),
        "z1": rng.normal(size=(count, m)),
        "z2": rng.normal(size=(count, m)),
        "u": spec.control_set.sample(rng, count),
    }


def _on_points(coeff, part: Callable, ts: Array) -> Callable[[dict[str, Array]], Array]:
    """A part of coeff as a map from the sampled points (and times ts) to its values."""
    if isinstance(coeff, TerminalCoefficient):
        return lambda p: part(p["x"])
    if isinstance(coeff, InitialCoefficient):
        return lambda p: part(p["y"])
    slots = ("x", "y", "z1", "z2") if isinstance(coeff, DriverCoefficient) else ("x",)
    # a call takes one control shared by its paths: one call per sampled point
    return lambda p: np.asarray(
        [part(t, *(p[s][j : j + 1] for s in slots), p["u"][j])[0] for j, t in enumerate(ts)],
        dtype=float,
    )


def _bumped(points: dict[str, Array], arg: str, col: int, step: float) -> dict[str, Array]:
    moved = points[arg].copy()
    moved[:, col] += step
    return {**points, arg: moved}


def _check_coefficient(
    spec: ProblemSpec, name: str, points: dict[str, Array], ts: Array
) -> CoefficientCheck:
    """Compare each declared partial of one coefficient against central
    differences at the sampled points, and check its values are finite and,
    for sigma2 and h, within the declared bound."""
    coeff = getattr(spec, name)
    bound = spec.bound_sigma2_h if name in _BOUNDED else None
    value_of = _on_points(coeff, coeff.value, ts)
    vals = value_of(points)
    finite = bool(np.all(np.isfinite(vals)))
    bounded = bound is None or not finite or bool(np.max(np.abs(vals)) <= bound)
    worst, worst_partial, worst_point = 0.0, "", []
    message = "" if finite else "non-finite value at a sampled point"
    for part in [f.name for f in fields(coeff)[1:]] if finite else []:
        declared = _on_points(coeff, getattr(coeff, part), ts)(points)
        if not np.all(np.isfinite(declared)):
            finite = False
            message = f"non-finite partial {part}"
            break
        arg = _PART_ARG[part]
        for col in range(points[arg].shape[1]):
            up = value_of(_bumped(points, arg, col, _FD_STEP))
            down = value_of(_bumped(points, arg, col, -_FD_STEP))
            fd = (up - down) / (2.0 * _FD_STEP)
            exact = declared[..., col]
            disc = np.abs(exact - fd) / (1.0 + np.abs(exact))
            j = int(np.argmax(disc))
            if disc.flat[j] > worst:
                worst = float(disc.flat[j])
                worst_partial = f"{part}[col {col}]"
                worst_point = points[arg][np.unravel_index(j, disc.shape)[0]].tolist()
    return CoefficientCheck(
        name=name,
        max_discrepancy=worst,
        worst_partial=worst_partial,
        worst_point=worst_point,
        finite=finite,
        bounded=bounded,
        message=message,
    )


def validate_problem(
    spec: ProblemSpec, samples: int = 100, seed: int = 0, tol: float = 1e-4
) -> ValidationReport:
    """Finite-difference audit of every declared partial, plus the bound on sigma2 and h."""
    if samples < 1:
        raise FbsdeError("samples must be >= 1")
    if tol <= 0.0:
        raise FbsdeError("tol must be positive")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, spec.horizon, size=samples)
    points = sample_arguments(spec, rng, samples)
    checks = [_check_coefficient(spec, name, points, ts) for name in _AUDITED]
    passed = all(c.passed(tol) for c in checks)
    return ValidationReport(passed=passed, tol=tol, samples=samples, seed=seed, checks=checks)


# ---------------------------------------------------------------------------
# built-in instance families


@dataclass(frozen=True)
class LQParams:
    """Diagonal linear-quadratic family: b = a x + b_coef u, sigma1 constant.

    h == 0, sigma2 == 0, f == 0, phi(x) = x and gamma == 0, so the classical
    Riccati oracle applies.  All entries may be scalars or length-n vectors.
    """

    a: float = 0.0
    b_coef: float = 1.0
    sigma: float = 0.02
    q: float = 0.0
    r: float = 1.0
    g: float = 1.0
    horizon: float = 1.0
    initial_x: float = 1.0
    control_lower: float = -1.0
    control_upper: float = 1.0
    dim: int = 1

    def arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for key in ("a", "b_coef", "sigma", "q", "r", "g", "initial_x"):
            out[key] = np.broadcast_to(
                np.asarray(getattr(self, key), dtype=float), (self.dim,)
            ).copy()
        return out


def _quadratic_form(weight: Array, v: Array) -> Array:
    return 0.5 * np.sum(weight * v * v, axis=-1)


def make_lq_instance(params: LQParams | None = None, **overrides) -> ProblemSpec:
    """Benchmark LQ instance (full-observation degenerate case)."""
    if params is None:
        params = LQParams(**overrides)
    elif overrides:
        params = replace(params, **overrides)
    if np.any(np.asarray(params.r) <= 0.0):
        raise FbsdeError("LQ family requires r > 0 (Riccati oracle)")
    if np.any(np.asarray(params.q) < 0.0) or np.any(np.asarray(params.g) < 0.0):
        raise FbsdeError("LQ family requires q >= 0 and g >= 0")
    arr = params.arrays()
    n = params.dim
    a, b_coef, sigma = arr["a"], arr["b_coef"], arr["sigma"]
    q, r, g = arr["q"], arr["r"], arr["g"]

    def b_val(t, x, u):
        return a * x + b_coef * np.atleast_1d(u)[None, :]

    drift = Coefficient(
        value=b_val, dx=lambda t, x, u: np.diag(a), du=lambda t, x, u: np.diag(b_coef)
    )
    sig1 = Coefficient(value=lambda t, x, u: sigma, dx=_zero, du=_zero)

    def l_val(t, x, y, z1, z2, u):
        return _quadratic_form(q, x) + _quadratic_form(r, np.atleast_1d(u)[None, :])

    def l_dx(t, x, y, z1, z2, u):
        return q * x

    def l_du(t, x, y, z1, z2, u):
        return r * np.atleast_1d(u)

    running = DriverCoefficient(value=l_val, dx=l_dx, dy=_zero, dz1=_zero, dz2=_zero, du=l_du)

    phi = TerminalCoefficient(value=lambda x: x.copy(), dx=lambda x: np.eye(n))
    big_phi = TerminalCoefficient(
        value=lambda x: _quadratic_form(g, x), dx=lambda x: g * x
    )
    gamma = InitialCoefficient(value=_zero, dy=_zero)

    return ProblemSpec(
        dim_x=n,
        dim_y=n,
        dim_u=n,
        horizon=params.horizon,
        drift_b=drift,
        diffusion_sigma1=sig1,
        diffusion_sigma2=zero_coefficient(),
        backward_f=zero_driver(),
        observation_h=zero_coefficient(),
        terminal_phi=phi,
        running_l=running,
        terminal_Phi=big_phi,
        initial_gamma=gamma,
        initial_x=arr["initial_x"],
        control_set=Box(
            lower=np.full(n, params.control_lower),
            upper=np.full(n, params.control_upper),
        ),
        bound_sigma2_h=1.0,
        phi_linear=True,
        label="lq",
    )


def make_lq_observation_instance(
    params: LQParams | None = None,
    h_const: float = 0.5,
    sigma2: float = 0.3,
    **overrides,
) -> ProblemSpec:
    """LQ dynamics with a constant observation drift and sigma2 != 0.

    No Riccati oracle applies; this family exercises the density weights.
    """
    if params is None:
        params = LQParams(sigma=0.2, q=1.0, **overrides)
    elif overrides:
        params = replace(params, **overrides)
    base = make_lq_instance(params)
    n = params.dim
    s2 = np.broadcast_to(np.asarray(sigma2, dtype=float), (n,)).copy()

    sig2 = Coefficient(value=lambda t, x, u: s2, dx=_zero, du=_zero)
    h = Coefficient(value=lambda t, x, u: float(h_const), dx=_zero, du=_zero)
    return replace(
        base,
        diffusion_sigma2=sig2,
        observation_h=h,
        bound_sigma2_h=max(abs(float(h_const)), float(np.max(np.abs(s2)))) + 1.0,
        label="lq_obs",
    )


def make_scalar_nonlinear_instance(
    a: float = 0.3,
    b_coef: float = 1.0,
    sigma0: float = 0.2,
    sigma1_x: float = 0.05,
    sigma2_amp: float = 0.1,
    h_amp: float = 0.4,
    f_decay: float = 0.5,
    f_amp: float = 0.2,
    q: float = 1.0,
    r: float = 1.0,
    g: float = 1.0,
    horizon: float = 1.0,
    initial_x: float = 0.5,
    control_radius: float = 1.0,
) -> ProblemSpec:
    """Scalar instance with bounded nonlinear coefficients and h = h(x).

    The state-dependent observation drift makes the density weights
    non-trivial; the sufficient-condition certificate is not applicable here.
    """

    def b_val(t, x, u):
        return a * np.tanh(x) + b_coef * np.atleast_1d(u)[None, :]

    def b_dx(t, x, u):
        return (a * (1.0 - np.tanh(x) ** 2))[:, :, None]

    def s1_val(t, x, u):
        return sigma0 + sigma1_x * np.sin(x)

    def s1_dx(t, x, u):
        return (sigma1_x * np.cos(x))[:, :, None]

    def s2_val(t, x, u):
        return sigma2_amp * np.cos(x)

    def s2_dx(t, x, u):
        return (-sigma2_amp * np.sin(x))[:, :, None]

    def h_val(t, x, u):
        return h_amp * np.tanh(x[:, 0])

    def h_dx(t, x, u):
        return h_amp * (1.0 - np.tanh(x) ** 2)

    def f_val(t, x, y, z1, z2, u):
        return -f_decay * y + f_amp * np.sin(x)

    def f_dx(t, x, y, z1, z2, u):
        return (f_amp * np.cos(x))[:, :, None]

    def l_val(t, x, y, z1, z2, u):
        uu = np.atleast_1d(u)
        return 0.5 * q * x[:, 0] ** 2 + 0.5 * r * float(uu @ uu)

    def l_dx(t, x, y, z1, z2, u):
        return q * x

    def l_du(t, x, y, z1, z2, u):
        return r * np.atleast_1d(u)

    return ProblemSpec(
        dim_x=1,
        dim_y=1,
        dim_u=1,
        horizon=horizon,
        drift_b=Coefficient(value=b_val, dx=b_dx, du=lambda t, x, u: b_coef),
        diffusion_sigma1=Coefficient(value=s1_val, dx=s1_dx, du=_zero),
        diffusion_sigma2=Coefficient(value=s2_val, dx=s2_dx, du=_zero),
        backward_f=DriverCoefficient(
            value=f_val, dx=f_dx, dy=lambda *args: -f_decay, dz1=_zero, dz2=_zero, du=_zero
        ),
        observation_h=Coefficient(value=h_val, dx=h_dx, du=_zero),
        terminal_phi=TerminalCoefficient(value=lambda x: x.copy(), dx=lambda x: 1.0),
        running_l=DriverCoefficient(value=l_val, dx=l_dx, dy=_zero, dz1=_zero, dz2=_zero, du=l_du),
        terminal_Phi=TerminalCoefficient(
            value=lambda x: 0.5 * g * x[:, 0] ** 2, dx=lambda x: g * x
        ),
        initial_gamma=InitialCoefficient(value=_zero, dy=_zero),
        initial_x=np.array([initial_x]),
        control_set=Ball(center_point=np.zeros(1), radius=control_radius),
        bound_sigma2_h=max(abs(sigma2_amp), abs(h_amp)) + 0.5,
        phi_linear=True,
        label="scalar_nonlinear",
    )


def make_double_well_instance(
    a: float = 0.2,
    b_coef: float = 1.0,
    sigma: float = 0.25,
    q: float = 1.0,
    well: float = 0.8,
    weight: float = 1.0,
    g: float = 1.0,
    horizon: float = 1.0,
    initial_x: float = 1.0,
) -> ProblemSpec:
    """Convexity counterexample: running cost with a double well in u."""
    base = make_lq_instance(
        LQParams(a=a, b_coef=b_coef, sigma=sigma, q=q, r=1.0, g=g,
                 horizon=horizon, initial_x=initial_x)
    )

    def l_val(t, x, y, z1, z2, u):
        uu = float(np.atleast_1d(u)[0])
        return 0.5 * q * x[:, 0] ** 2 + 0.25 * weight * (uu * uu - well * well) ** 2

    def l_dx(t, x, y, z1, z2, u):
        return q * x

    def l_du(t, x, y, z1, z2, u):
        uu = float(np.atleast_1d(u)[0])
        return weight * uu * (uu * uu - well * well)

    running = DriverCoefficient(value=l_val, dx=l_dx, dy=_zero, dz1=_zero, dz2=_zero, du=l_du)
    return replace(base, running_l=running, label="double_well")


BUILTIN_FAMILIES = {
    "lq": make_lq_instance,
    "lq_obs": make_lq_observation_instance,
    "scalar_nonlinear": make_scalar_nonlinear_instance,
    "double_well": make_double_well_instance,
}


def builtin_instance(name: str, **params) -> ProblemSpec:
    if name not in BUILTIN_FAMILIES:
        raise FbsdeError(
            f"unknown instance family {name!r}; available: {sorted(BUILTIN_FAMILIES)}"
        )
    return BUILTIN_FAMILIES[name](**params)
