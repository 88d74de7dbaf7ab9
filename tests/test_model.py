import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_nearopt import (
    Ball,
    Box,
    Coefficient,
    DriverCoefficient,
    FbsdeError,
    InitialCoefficient,
    InvalidControlError,
    LQParams,
    ProblemSpec,
    TerminalCoefficient,
    builtin_instance,
    constant_control,
    evaluate_cost_strong,
    make_control,
    make_lq_instance,
    make_time_grid,
    min_gap_over_A,
    run_pipeline,
    sample_noise,
    validate_problem,
)
from fbsde_nearopt.model import control_from_csv, control_to_csv

from _instances import nan_observation_instance, wrong_derivative_instance

BOX = Box(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
BALL = Ball(center_point=np.zeros(2), radius=1.0)


def test_projection_interior_fixed_point():
    assert Box(lower=[-1.0], upper=[1.0]).project(np.array([0.5]))[0] == 0.5


def test_projection_clamps():
    assert Box(lower=[-1.0], upper=[1.0]).project(np.array([2.3]))[0] == 1.0


def test_projection_ball_radial():
    out = BALL.project(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.6, 0.8])


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_projection_idempotent(point):
    point = np.asarray(point)
    for cs in (BOX, BALL):
        once = cs.project(point)
        assert np.allclose(cs.project(once), once, atol=1e-12)


def test_projection_lipschitz():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.normal(scale=3.0, size=(2, 2))
        for cs in (BOX, BALL):
            pa, pb = cs.project(a), cs.project(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_linear_minimize_box_sign_rule():
    out = BOX.linear_minimize(np.array([2.0, -3.0]))
    assert np.allclose(out, [-1.0, 1.0])


def test_linear_minimize_zero_gives_center():
    assert np.allclose(BOX.linear_minimize(np.zeros(2)), [0.0, 0.0])
    assert np.allclose(BALL.linear_minimize(np.zeros(2)), [0.0, 0.0])


def test_linear_minimize_ball_antipodal():
    ball = Ball(center_point=np.zeros(2), radius=2.0)
    out = ball.linear_minimize(np.array([1.0, 0.0]))
    assert np.allclose(out, [-2.0, 0.0])


def test_linear_minimize_beats_random_points():
    rng = np.random.default_rng(1)
    for cs in (BOX, BALL):
        g = rng.normal(size=2)
        best = float(g @ cs.linear_minimize(g))
        samples = cs.sample(rng, 1000)
        assert np.all(best <= samples @ g + 1e-12)


def test_control_membership_enforced():
    grid = make_time_grid(1.0, 4)
    cs = Box(lower=[-1.0], upper=[1.0])
    with pytest.raises(InvalidControlError):
        make_control(np.full((4, 1), 1.5), grid, cs)
    ctrl = make_control(np.full((4, 1), 1.5), grid, cs, project=True)
    assert np.all(ctrl.values == 1.0)


def test_control_length_invariant():
    grid = make_time_grid(1.0, 4)
    with pytest.raises(FbsdeError):
        make_control(np.zeros((3, 1)), grid, Box(lower=[-1.0], upper=[1.0]))


def test_control_csv_roundtrip(tmp_path):
    grid = make_time_grid(1.0, 5)
    cs = Box(lower=[-1.0], upper=[1.0])
    ctrl = make_control(np.linspace(-0.9, 0.9, 5)[:, None], grid, cs)
    path = tmp_path / "u.csv"
    control_to_csv(ctrl, str(path))
    loaded = control_from_csv(str(path), grid, cs)
    assert np.array_equal(loaded.values, ctrl.values)


def test_lq_rejects_bad_cost_weights():
    with pytest.raises(FbsdeError):
        make_lq_instance(LQParams(r=0.0))
    with pytest.raises(FbsdeError):
        make_lq_instance(LQParams(q=-1.0))


def test_validate_lq_passes_tightly(lq_spec):
    report = validate_problem(lq_spec, samples=100, seed=0, tol=1e-5)
    assert report.passed
    assert max(c.max_discrepancy for c in report.checks) <= 1e-7


def test_validate_catches_wrong_partial():
    report = validate_problem(wrong_derivative_instance(), samples=50, seed=1, tol=1e-5)
    assert not report.passed
    assert "drift_b" in report.failing()


def test_validate_catches_non_finite():
    report = validate_problem(nan_observation_instance(), samples=50, seed=1, tol=1e-5)
    assert not report.passed
    check = {c.name: c for c in report.checks}["observation_h"]
    assert not check.finite


def test_validate_catches_bound_violation():
    import dataclasses

    spec = builtin_instance("lq_obs", h_const=5.0)
    spec = dataclasses.replace(spec, bound_sigma2_h=1.0)
    report = validate_problem(spec, samples=20, seed=0, tol=1e-4)
    check = {c.name: c for c in report.checks}["observation_h"]
    assert not check.bounded
    assert not report.passed


def test_validate_report_json(lq_spec):
    report = validate_problem(lq_spec, samples=10, seed=0)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["passed"] is True


# one declared partial per container kind: Driver, Coefficient, Terminal, Initial
BROKEN_PARTS = [
    ("backward_f", "dz2"),
    ("running_l", "dy"),
    ("diffusion_sigma1", "du"),
    ("terminal_phi", "dx"),
    ("initial_gamma", "dy"),
]


@pytest.mark.parametrize("name, part", BROKEN_PARTS)
def test_validate_names_the_broken_partial(name, part):
    spec = make_lq_instance(dim=2)
    coeff = getattr(spec, name)
    declared = getattr(coeff, part)
    broken = dataclasses.replace(coeff, **{part: lambda *args: declared(*args) + 1.0})
    report = validate_problem(dataclasses.replace(spec, **{name: broken}), samples=20, seed=3)
    assert report.failing() == [name]
    check = {c.name: c for c in report.checks}[name]
    assert check.worst_partial.startswith(f"{part}[col ")


def test_validate_differentiates_each_partial_in_its_own_argument():
    # slopes differ per argument, so a partial differenced in another
    # argument's direction would disagree with its declared value
    spec = make_lq_instance(dim=2)
    eye = np.eye(2)
    f = DriverCoefficient(
        value=lambda t, x, y, z1, z2, u: x + 2.0 * y + 3.0 * z1 + 4.0 * z2 + 5.0 * u,
        dx=lambda *args: eye,
        dy=lambda *args: 2.0 * eye,
        dz1=lambda *args: 3.0 * eye,
        dz2=lambda *args: 4.0 * eye,
        du=lambda *args: 5.0 * eye,
    )
    sigma1 = Coefficient(
        value=lambda t, x, u: x + 5.0 * u, dx=lambda *args: eye, du=lambda *args: 5.0 * eye
    )
    spec = dataclasses.replace(spec, backward_f=f, diffusion_sigma1=sigma1)
    report = validate_problem(spec, samples=20, seed=3, tol=1e-6)
    assert report.passed, report.failing()


def test_validate_rejects_bad_arguments(lq_spec):
    with pytest.raises(FbsdeError):
        validate_problem(lq_spec, samples=0)
    with pytest.raises(FbsdeError):
        validate_problem(lq_spec, tol=0.0)


def test_all_builtins_validate():
    for name in ("lq", "lq_obs", "scalar_nonlinear", "double_well"):
        report = validate_problem(builtin_instance(name), samples=40, seed=2, tol=1e-4)
        assert report.passed, f"{name}: {report.failing()}"


def test_unknown_family_rejected():
    with pytest.raises(FbsdeError, match="unknown instance family"):
        builtin_instance("nonexistent")


def test_constant_control_shape():
    grid = make_time_grid(1.0, 6)
    ctrl = constant_control([0.25], grid, Box(lower=[-1.0], upper=[1.0]))
    assert ctrl.values.shape == (6, 1)
    assert np.all(ctrl.values == 0.25)


# ---------------------------------------------------------------------------
# coefficient output shapes

COEFFICIENT_FIELDS = (
    "drift_b",
    "diffusion_sigma1",
    "diffusion_sigma2",
    "backward_f",
    "observation_h",
    "terminal_phi",
    "running_l",
    "terminal_Phi",
    "initial_gamma",
)


def _shape_contract_instance(full: bool) -> ProblemSpec:
    """n = m = k = 2 with sigma2, h, f and gamma non-zero.

    full=False returns scalars, (n,) rows and (out, n) blocks wherever a map
    allows; full=True returns the same values as contiguous (P, ...) arrays.
    """
    a, s1, s2 = np.array([0.3, -0.2]), np.array([0.2, 0.1]), np.array([0.3, 0.15])

    def out(value, P, *trailing):
        return np.array(np.broadcast_to(value, (P, *trailing))) if full else value

    zero_block = np.zeros((2, 2))
    drift = Coefficient(
        value=lambda t, x, u: a * x + np.asarray(u)[None, :],
        dx=lambda t, x, u: out(np.diag(a), x.shape[0], 2, 2),
        du=lambda t, x, u: out(np.eye(2), x.shape[0], 2, 2),
    )
    sig1 = Coefficient(
        value=lambda t, x, u: out(s1, x.shape[0], 2),
        dx=lambda t, x, u: out(0.0, x.shape[0], 2, 2),
        du=lambda t, x, u: out(0.0, x.shape[0], 2, 2),
    )
    sig2 = Coefficient(
        value=lambda t, x, u: out(s2, x.shape[0], 2),
        dx=lambda t, x, u: out(zero_block, x.shape[0], 2, 2),
        du=lambda t, x, u: out(0.0, x.shape[0], 2, 2),
    )
    h = Coefficient(
        value=lambda t, x, u: out(0.4, x.shape[0]),
        dx=lambda t, x, u: out(0.0, x.shape[0], 2),
        du=lambda t, x, u: out(np.zeros(2), x.shape[0], 2),
    )

    def driver_block(block):
        return lambda t, x, y, z1, z2, u: out(block, x.shape[0], 2, 2)

    f = DriverCoefficient(
        value=lambda t, x, y, z1, z2, u: -0.5 * y,
        dx=driver_block(0.0),
        dy=driver_block(-0.5 * np.eye(2)),
        dz1=driver_block(zero_block),
        dz2=driver_block(0.0),
        du=driver_block(0.0),
    )
    l_zero = lambda t, x, y, z1, z2, u: out(0.0, x.shape[0], 2)
    running = DriverCoefficient(
        value=lambda t, x, y, z1, z2, u: 0.5 * np.sum(x * x, axis=1) + 0.5 * float(u @ u),
        dx=lambda t, x, y, z1, z2, u: x.copy(),
        dy=l_zero,
        dz1=l_zero,
        dz2=l_zero,
        du=lambda t, x, y, z1, z2, u: out(np.asarray(u, dtype=float), x.shape[0], 2),
    )
    return ProblemSpec(
        dim_x=2,
        dim_y=2,
        dim_u=2,
        horizon=1.0,
        drift_b=drift,
        diffusion_sigma1=sig1,
        diffusion_sigma2=sig2,
        backward_f=f,
        observation_h=h,
        terminal_phi=TerminalCoefficient(
            value=lambda x: x.copy(), dx=lambda x: out(np.eye(2), x.shape[0], 2, 2)
        ),
        running_l=running,
        terminal_Phi=TerminalCoefficient(
            value=lambda x: 0.5 * np.sum(x * x, axis=1), dx=lambda x: x.copy()
        ),
        initial_gamma=InitialCoefficient(
            value=lambda y: 0.3 * y[:, 0],
            dy=lambda y: out(np.array([0.3, 0.0]), y.shape[0], 2),
        ),
        initial_x=np.array([1.0, -0.5]),
        control_set=Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
        label="shape_contract",
    )


def test_compact_and_full_outputs_give_identical_results():
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 400, seed=11)
    results = []
    for full in (False, True):
        spec = _shape_contract_instance(full)
        u = constant_control([0.2, -0.1], grid, spec.control_set)
        fwd, bwd, adj = run_pipeline(spec, u, noise)
        cost = evaluate_cost_strong(spec, bwd)
        gap = min_gap_over_A(adj)
        results.append(
            [fwd.x, fwd.rho, bwd.y, bwd.z1, bwd.z2]
            + [getattr(adj, name) for name in ("k", "p", "q1", "q2", "r", "R1", "R2")]
            + [[cost.value, cost.stderr, cost.initial, cost.initial_bias]]
            + [[gap.gap, gap.stderr], gap.minimizer.values]
        )
    for compact, full in zip(*results):
        assert np.array_equal(compact, full)


def test_compact_outputs_come_out_in_documented_shapes():
    spec = _shape_contract_instance(full=False)
    P = 5
    x, y, u = np.zeros((P, 2)), np.zeros((P, 2)), np.zeros(2)
    for part, shape in (("value", (P, 2)), ("dx", (P, 2, 2)), ("du", (P, 2, 2))):
        got = getattr(spec.diffusion_sigma1, part)(0.0, x, u)
        assert got.shape == shape and got.dtype == float and not got.flags.writeable
    assert spec.observation_h.value(0.0, x, u).shape == (P,)
    assert spec.backward_f.dy(0.0, x, y, y, y, u).shape == (P, 2, 2)
    assert spec.running_l.du(0.0, x, y, y, y, u).shape == (P, 2)
    assert spec.initial_gamma.dy(y).shape == (P, 2)


def test_builtin_constant_parts_come_out_as_shared_rows():
    # stride 0 along paths is what sends hamiltonian.vjp down its one-product path
    P = 5
    x = np.linspace(-1.0, 1.0, P)[:, None]
    y = 0.5 * x
    for family in ("scalar_nonlinear", "double_well"):
        spec = builtin_instance(family)
        u = spec.control_set.center() + 0.3
        parts = {
            "drift_b.du": spec.drift_b.du(0.0, x, u),
            "diffusion_sigma1.du": spec.diffusion_sigma1.du(0.0, x, u),
            "diffusion_sigma2.du": spec.diffusion_sigma2.du(0.0, x, u),
            "observation_h.du": spec.observation_h.du(0.0, x, u),
            "terminal_phi.dx": spec.terminal_phi.dx(x),
            "initial_gamma.value": spec.initial_gamma.value(y),
            "initial_gamma.dy": spec.initial_gamma.dy(y),
        }
        for part in ("dy", "dz1", "dz2", "du"):
            parts[f"backward_f.{part}"] = getattr(spec.backward_f, part)(0.0, x, y, y, y, u)
        for part in ("dy", "dz1", "dz2") + (("du",) if family == "double_well" else ()):
            parts[f"running_l.{part}"] = getattr(spec.running_l, part)(0.0, x, y, y, y, u)
        for name, got in parts.items():
            assert got.shape[0] == P, (family, name)
            assert got.strides[0] == 0 and not got.flags.writeable, (family, name)


def test_output_that_does_not_broadcast_names_the_part():
    spec = _shape_contract_instance(full=False)
    drift = dataclasses.replace(spec.drift_b, dx=lambda t, x, u: np.zeros(3))
    bad = dataclasses.replace(spec, drift_b=drift)
    with pytest.raises(FbsdeError, match=r"drift_b\.dx returned shape \(3,\).*\(5, 2, 2\)"):
        bad.drift_b.dx(0.0, np.zeros((5, 2)), np.zeros(2))


def test_replace_keeps_the_shaped_callables():
    spec = _shape_contract_instance(full=False)
    copy = dataclasses.replace(spec, label="x")
    for name in COEFFICIENT_FIELDS:
        coeff = getattr(spec, name)
        for part in dataclasses.fields(coeff):
            assert getattr(getattr(copy, name), part.name) is getattr(coeff, part.name)
