"""Stochastic-maximum-principle descent producing near-optimal controls.

Conditional-gradient iteration: the linear subproblem over the control set
is exactly the per-step minimizer of the necessary-condition gap, so the
duality gap recorded each iteration is the certificate quantity itself.
Common random numbers are held fixed across iterations, and the proposed
step is backtracked until the cost decreases (sufficient-decrease rule),
which keeps the cost trace monotone.

Each control's cost is measured on ``bsde.backward_bundle``, which solves
the backward equation only when the cost or the adjoint reads y or z
(``model.LiveTerms.backward``), and an accepted control's adjoint runs on the
bundle its cost was measured on.  That bundle is dropped before the line
search, so the trials never hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bsde import BasisSpec, backward_bundle, solve_adjoint
from .errors import FbsdeError
from .forward_sim import control_distance, evaluate_cost_strong, simulate_forward
from .model import ControlProcess, ProblemSpec, make_control
from .nearopt import min_gap_over_A
from .paths import sample_noise

# sufficient-decrease constant and halving budget of the backtracked step
ARMIJO_C = 0.1
MAX_HALVINGS = 25


@dataclass(frozen=True)
class DescentParams:
    max_iter: int = 100
    n_paths: int = 100_000
    seed: int = 0
    tol_gap: float = 1e-3
    basis: BasisSpec = field(default_factory=BasisSpec)


@dataclass(frozen=True)
class DescentRow:
    iteration: int
    cost: float
    cost_stderr: float
    min_gap: float
    gap_stderr: float
    step_size: float
    distance: float


@dataclass
class DescentTrace:
    rows: list[DescentRow]
    controls: list[ControlProcess]
    converged: bool
    stop_reason: str

    @property
    def final_control(self) -> ControlProcess:
        return self.controls[-1]

    @property
    def final_cost(self) -> float:
        return self.rows[-1].cost

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            handle.write("iteration,cost,cost_stderr,min_gap,gap_stderr,step,distance\n")
            for row in self.rows:
                handle.write(
                    f"{row.iteration},{row.cost!r},{row.cost_stderr!r},"
                    f"{row.min_gap!r},{row.gap_stderr!r},{row.step_size!r},{row.distance!r}\n"
                )


def _evaluate(spec, u, noise, basis):
    """The cost of u with the bundle it was measured on (``backward_bundle``)."""
    bundle = backward_bundle(spec, simulate_forward(spec, u, noise), basis)
    return bundle, evaluate_cost_strong(spec, bundle)


def smp_descent(spec: ProblemSpec, u0: ControlProcess, params: DescentParams) -> DescentTrace:
    """Iterate toward a gap-certified control from an admissible start."""
    for i, v in enumerate(u0.values):
        if not spec.control_set.contains(v):
            raise FbsdeError(f"u0 is not admissible at step {i}")
    noise = sample_noise(u0.grid, params.n_paths, params.seed)

    u = u0
    bundle, cost = _evaluate(spec, u, noise, params.basis)
    rows: list[DescentRow] = []
    controls: list[ControlProcess] = [u]
    converged = False
    stop_reason = "max_iter reached"

    for j in range(params.max_iter + 1):
        gap = min_gap_over_A(solve_adjoint(spec, bundle))
        # nothing reads the bundle again: drop it before the line search
        bundle = None

        if abs(gap.gap) <= params.tol_gap:
            rows.append(
                DescentRow(j, cost.value, cost.stderr, gap.gap, gap.stderr, 0.0, 0.0)
            )
            converged = True
            stop_reason = "gap below tolerance"
            break
        if j == params.max_iter:
            rows.append(
                DescentRow(j, cost.value, cost.stderr, gap.gap, gap.stderr, 0.0, 0.0)
            )
            break

        proposal = 2.0 / (j + 2.0)
        for h in range(MAX_HALVINGS + 1):
            step = proposal * 0.5**h
            candidate = ControlProcess(
                values=u.values + step * (gap.minimizer.values - u.values), grid=u.grid
            )
            # drop the rejected trial's bundle before the next one is simulated
            bundle_c = None
            bundle_c, cost_c = _evaluate(spec, candidate, noise, params.basis)
            if cost_c.value <= cost.value + ARMIJO_C * (step * gap.gap):
                break
        else:
            rows.append(
                DescentRow(j, cost.value, cost.stderr, gap.gap, gap.stderr, 0.0, 0.0)
            )
            stop_reason = "line search stalled at the noise floor"
            break

        moved = control_distance(candidate, u)
        rows.append(DescentRow(j, cost.value, cost.stderr, gap.gap, gap.stderr, step, moved))
        u, bundle, cost = candidate, bundle_c, cost_c
        controls.append(u)

    return DescentTrace(
        rows=rows, controls=controls, converged=converged, stop_reason=stop_reason
    )


def perturbed_controls(
    spec: ProblemSpec,
    u_star: ControlProcess,
    deltas,
    direction: ControlProcess,
) -> list[ControlProcess]:
    """Controls u* + delta * direction, projected into U, one per delta."""
    if not direction.grid.matches(u_star.grid):
        raise FbsdeError("direction lives on a different grid")
    return [
        make_control(
            u_star.values + float(delta) * direction.values,
            u_star.grid,
            spec.control_set,
            project=True,
        )
        for delta in deltas
    ]


def perturbation_family(
    spec: ProblemSpec,
    u_star: ControlProcess,
    deltas,
    direction: ControlProcess,
    oracle_cost: float | None,
    *,
    n_paths: int = 100_000,
    seed: int = 0,
    basis: BasisSpec | None = None,
) -> list[tuple[ControlProcess, float]]:
    """Controls u* + delta * direction (projected into U) with measured epsilon.

    epsilon_delta = J(u_delta) - oracle value, clamped at zero; costs share
    one noise bundle so the family is comparable member to member.
    """
    if oracle_cost is None:
        raise FbsdeError("perturbation_family needs an oracle value for epsilon")
    controls = perturbed_controls(spec, u_star, deltas, direction)
    basis = basis or BasisSpec()
    noise = sample_noise(u_star.grid, n_paths, seed)
    family = []
    for control in controls:
        cost = _evaluate(spec, control, noise, basis)[1]
        family.append((control, max(cost.value - oracle_cost, 0.0)))
    return family
