import dataclasses
import tracemalloc

import numpy as np
import pytest

from fbsde_nearopt import (
    BasisSpec,
    ControlGradient,
    LQParams,
    RegressionError,
    adjoint_trajectories,
    constant_control,
    control_distance,
    make_control,
    make_lq_instance,
    make_lq_observation_instance,
    make_scalar_nonlinear_instance,
    make_time_grid,
    run_pipeline,
    sample_noise,
    simulate_forward,
    solve_adjoint,
    solve_backward,
)
from fbsde_nearopt import hamiltonian as ham
from fbsde_nearopt.bsde import RIDGE, ConditionalExpectation, TreeExpectation, _regression_step

from _instances import (
    linear_bsde_instance,
    linear_gamma_instance,
    pure_noise_instance,
    value_as_backward_instance,
)


def _full_pipeline(spec, u, noise, basis=BasisSpec()):
    fwd = simulate_forward(spec, u, noise)
    bwd = solve_backward(spec, fwd, basis)
    adj = adjoint_trajectories(spec, bwd)
    return fwd, bwd, adj


def _one_step_fit(targets, features, basis=BasisSpec()):
    """The fitted map of E[targets | features], through a one-step operator."""
    operator = ConditionalExpectation(features[None], basis)
    _, coef = operator.fit(0, targets)
    return lambda x: operator.evaluate(0, x, coef)


def _residual_rms(operator, i, targets):
    fitted, _ = operator.fit(i, targets)
    return float(np.sqrt(np.mean((targets - fitted) ** 2)))


# ---------------------------------------------------------------------------
# conditional-expectation operator


def test_tree_expectation_is_the_block_mean():
    # two steps, 16 paths: a depth-1 node's descendants are 4 contiguous paths
    operator = TreeExpectation(2)
    targets = np.arange(32.0).reshape(16, 2)
    fitted, coef = operator.fit(1, targets)
    assert np.array_equal(coef, targets.reshape(4, 4, 2).mean(axis=1))
    assert np.array_equal(fitted, np.repeat(coef, 4, axis=0))
    flat, root = operator.fit(0, targets[:, 0])
    assert np.array_equal(flat, np.full(16, 15.0)) and np.array_equal(root, [15.0])
    assert operator.targets(2).shape == (16, 2) and operator.targets(2) is operator.targets(2)
    assert operator.condition(1) == 1.0


def test_regression_reproduces_constants():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(500, 1))
    fit = _one_step_fit(np.full(500, 5.0), features)
    assert np.allclose(fit(features), 5.0, atol=1e-10)


def test_regression_recovers_line_exactly():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(400, 1))
    fit = _one_step_fit(2.0 * x[:, 0], x, BasisSpec(degree=1))
    probe = np.array([[0.0], [1.0]])
    vals = fit(probe)
    # ridge damping of 1e-10 shrinks the slope by about 2e-10
    assert abs(vals[0]) <= 1e-9           # intercept
    assert abs(vals[1] - vals[0] - 2.0) <= 1e-9  # slope


def test_regression_quadratic_with_noise():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10_000, 1))
    targets = x[:, 0] ** 2 + rng.normal(scale=0.1, size=10_000)
    fit = _one_step_fit(targets, x, BasisSpec(degree=2))
    curvature = fit(np.array([[1.0]]))[0] + fit(np.array([[-1.0]]))[0] - 2.0 * fit(np.array([[0.0]]))[0]
    assert abs(curvature - 2.0) <= 0.1  # second difference of t^2 is 2


def test_regression_needs_enough_paths():
    with pytest.raises(RegressionError, match="paths"):
        _one_step_fit(np.zeros(20), np.zeros((20, 1)), BasisSpec(degree=2))


def test_regression_degenerate_features_fall_back_to_mean():
    targets = np.arange(100.0)
    fit = _one_step_fit(targets, np.ones((100, 1)), BasisSpec(degree=2))
    assert np.allclose(fit(np.ones((3, 1))), targets.mean(), atol=1e-8)


def test_operator_fits_do_not_depend_on_call_order():
    # the operator keeps per-step statistics and holds one design matrix;
    # revisiting a step, or evaluating at the fit states, changes no bit
    rng = np.random.default_rng(3)
    states = rng.normal(size=(4, 300, 2))
    targets = rng.normal(size=(300, 2))
    fresh = [ConditionalExpectation(states, BasisSpec()).fit(i, targets) for i in range(4)]
    operator = ConditionalExpectation(states, BasisSpec())
    for i in (2, 0, 2, 3, 1, 3):
        fitted, coef = operator.fit(i, targets)
        assert np.array_equal(fitted, fresh[i][0])
        assert np.array_equal(coef, fresh[i][1])
        assert np.array_equal(operator.evaluate(i, states[i], coef), fitted)


def _column_stack_design(operator, i, x):
    """Step i's design at x from ``np.column_stack`` of each monomial's factors
    multiplied left to right: the reference the held buffer must equal."""
    mean, scale, _, _ = operator._statistics(i)
    xc = (x - mean) / scale
    cols = [np.ones(x.shape[0])]
    for combo in operator.basis.exponent_tuples(x.shape[1])[1:]:
        col = np.ones(x.shape[0])
        for idx in combo:
            col = col * xc[:, idx]
        cols.append(col)
    return np.column_stack(cols)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_held_design_equals_column_stack_reference(dim, degree):
    rng = np.random.default_rng(10 * dim + degree)
    states = rng.normal(loc=1.5, scale=2.0, size=(2, 400, dim))
    operator = ConditionalExpectation(states, BasisSpec(degree=degree))
    for i in (1, 0):
        operator.fit(i, rng.normal(size=400))
        held = operator._buffer
        assert held.flags.f_contiguous
        assert np.array_equal(held, _column_stack_design(operator, i, states[i]))
    # evaluating at other states leaves the held design as it was
    other = rng.normal(size=(50, dim))
    coef = rng.normal(size=held.shape[1])
    values = operator.evaluate(0, other, coef)
    expected = _column_stack_design(operator, 0, other) @ coef
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert operator._buffer is held
    assert np.array_equal(held, _column_stack_design(operator, 0, states[0]))


@pytest.mark.parametrize("dim", [1, 2])
def test_fit_agrees_with_lstsq_on_the_ridge_augmented_system(dim):
    rng = np.random.default_rng(dim)
    P = 2000
    states = rng.normal(size=(1, P, dim))
    targets = np.sin(states[0]) + rng.normal(scale=0.1, size=(P, dim))
    operator = ConditionalExpectation(states, BasisSpec(degree=2))
    fitted, coef = operator.fit(0, targets)
    A = _column_stack_design(operator, 0, states[0])
    B = A.shape[1]
    # (1/P) |A c - t|^2 + RIDGE |c|^2 as one least-squares problem
    stacked = np.vstack([A / np.sqrt(P), np.sqrt(RIDGE) * np.eye(B)])
    rhs = np.vstack([targets / np.sqrt(P), np.zeros((B, dim))])
    expected, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    assert np.linalg.norm(coef - expected) <= 1e-10 * np.linalg.norm(expected)
    assert np.linalg.norm(fitted - A @ expected) <= 1e-10 * np.linalg.norm(A @ expected)
    # fitted values are column-major, with the same bits for either target layout
    fitted_f, coef_f = operator.fit(0, np.asfortranarray(targets))
    assert np.array_equal(coef_f, coef)
    assert np.array_equal(fitted_f, fitted)
    assert fitted.flags.f_contiguous and fitted_f.flags.f_contiguous


@pytest.mark.parametrize("dim", [1, 2])
def test_regression_step_matches_the_path_major_formula(dim):
    spec = make_lq_instance(LQParams(dim=dim))
    grid = make_time_grid(1.0, 4)
    u = constant_control([0.1] * dim, grid, spec.control_set)
    fwd = simulate_forward(spec, u, sample_noise(grid, 3000, seed=5))
    operator = ConditionalExpectation(fwd.x, BasisSpec())
    v_next = np.cos(fwd.x[3]) + fwd.x[3] ** 2
    v_hat, z1, z2, rms = _regression_step(operator, 2, v_next, fwd)

    # the same step, written path-major
    dt = grid.dt
    value, _ = operator.fit(2, v_next)
    resid = v_next - value
    increments = np.hstack([resid * fwd.noise.dW[:, 2, None], resid * fwd.noise.dY[:, 2, None]])
    fitted, _ = operator.fit(2, increments)
    for got, want in ((v_hat, value), (z1, fitted[:, :dim] / dt), (z2, fitted[:, dim:] / dt)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert rms == float(np.sqrt(np.mean(resid ** 2)))


def test_one_design_and_one_target_buffer_serve_a_whole_backward_solve(monkeypatch):
    spec = make_lq_instance(LQParams(dim=2))
    grid = make_time_grid(1.0, 8)
    u = constant_control([0.0, 0.0], grid, spec.control_set)
    fwd = simulate_forward(spec, u, sample_noise(grid, 500, seed=7))
    seen = []
    fit = ConditionalExpectation.fit

    def recording_fit(self, i, targets):
        result = fit(self, i, targets)
        # holding each target keeps a per-step array from reusing a freed address
        seen.append((i, self._buffer.ctypes.data, targets))
        return result

    monkeypatch.setattr(ConditionalExpectation, "fit", recording_fit)
    solve_backward(spec, fwd)
    assert sorted({i for i, _, _ in seen}) == list(range(8))
    assert len({address for _, address, _ in seen}) == 1
    # each step fits the value, then the (P, 4) increments in the held target array
    increments = [targets for _, _, targets in seen[1::2]]
    assert all(t.shape == (500, 4) and t.flags.f_contiguous for t in increments)
    assert len({id(t) for t in increments}) == 1


# ---------------------------------------------------------------------------
# backward solver


def test_martingale_representation():
    # f == 0, phi(x) = x, unit diffusion: y_i = x_i, z1 = 1, z2 = 0
    spec = dataclasses.replace(
        pure_noise_instance(sigma=1.0),
        terminal_phi=spec_phi(),
    )
    grid = make_time_grid(1.0, 64)
    noise = sample_noise(grid, 100_000, seed=3)
    u = constant_control([0.0], grid, spec.control_set)
    fwd = simulate_forward(spec, u, noise)
    bwd = solve_backward(spec, fwd, BasisSpec(degree=2))
    # root-mean-square over paths and steps; pointwise tails carry fit noise
    assert np.sqrt(np.mean((bwd.y - fwd.x) ** 2)) <= 0.05
    assert np.sqrt(np.mean((bwd.z1 - 1.0) ** 2)) <= 0.05
    assert np.sqrt(np.mean(bwd.z2**2)) <= 0.05


def spec_phi():
    from fbsde_nearopt.model import TerminalCoefficient

    return TerminalCoefficient(
        value=lambda x: x.copy(), dx=lambda x: np.ones((x.shape[0], 1, 1))
    )


def test_constant_terminal_data():
    from fbsde_nearopt.model import TerminalCoefficient

    spec = dataclasses.replace(
        pure_noise_instance(sigma=1.0),
        terminal_phi=TerminalCoefficient(
            value=lambda x: np.full((x.shape[0], 1), 3.5),
            dx=lambda x: np.zeros((x.shape[0], 1, 1)),
        ),
    )
    grid = make_time_grid(1.0, 16)
    noise = sample_noise(grid, 2000, seed=4)
    u = constant_control([0.0], grid, spec.control_set)
    fwd = simulate_forward(spec, u, noise)
    bwd = solve_backward(spec, fwd)
    # floor set by the 1e-10 ridge, amplified by 1/dt in the z extraction
    assert np.max(np.abs(bwd.y - 3.5)) <= 1e-8
    assert np.max(np.abs(bwd.z1)) <= 5e-8
    assert np.max(np.abs(bwd.z2)) <= 5e-8


def test_linear_driver_closed_form_small_scale():
    beta = 2.0
    spec = linear_bsde_instance(beta=beta)
    grid = make_time_grid(1.0, 32)
    noise = sample_noise(grid, 20_000, seed=5)
    u = constant_control([0.0], grid, spec.control_set)
    fwd = simulate_forward(spec, u, noise)
    bwd = solve_backward(spec, fwd)
    exact = np.exp(-beta * (1.0 - grid.times))[:, None, None] * fwd.x
    rel = np.sqrt(np.mean((bwd.y - exact) ** 2)) / np.sqrt(np.mean(exact**2))
    assert rel <= 0.10


def test_terminal_pinning_exact():
    for spec in (make_lq_observation_instance(), make_scalar_nonlinear_instance()):
        grid = make_time_grid(1.0, 8)
        noise = sample_noise(grid, 1000, seed=6)
        u = constant_control([0.1], grid, spec.control_set)
        fwd = simulate_forward(spec, u, noise)
        bwd = solve_backward(spec, fwd)
        assert np.array_equal(bwd.y[-1], fwd.x[-1])


def test_backward_diagnostics_recorded(lq_spec):
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 1000, seed=7)
    u = constant_control([0.0], grid, lq_spec.control_set)
    fwd = simulate_forward(lq_spec, u, noise)
    bwd = solve_backward(lq_spec, fwd)
    assert len(bwd.diagnostics.condition_numbers) == 8
    assert all(np.isfinite(bwd.diagnostics.condition_numbers))


def test_one_factorization_per_step_per_pipeline(monkeypatch, lq_spec):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(1) or cond(a))
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 500, seed=7)
    u = constant_control([0.0], grid, lq_spec.control_set)
    run_pipeline(lq_spec, u, noise)
    assert len(calls) == 8


def test_adjoint_takes_its_basis_from_the_backward_sweep(lq_spec):
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 500, seed=7)
    u = constant_control([0.0], grid, lq_spec.control_set)
    fwd, bwd, adj = _full_pipeline(lq_spec, u, noise, BasisSpec(degree=1))
    # a degree-2 operator of its own would list other condition numbers
    assert bwd.operator.basis == BasisSpec(degree=1)
    assert adj.diagnostics.condition_numbers == bwd.diagnostics.condition_numbers[::-1]


# ---------------------------------------------------------------------------
# adjoint solver


def test_adjoint_diagnostics_list_r_then_p_fits():
    spec = make_lq_observation_instance()
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 1000, seed=7)
    u = constant_control([0.2], grid, spec.control_set)
    fwd, bwd, adj = _full_pipeline(spec, u, noise)
    cond = adj.diagnostics.condition_numbers
    rms = adj.diagnostics.residual_rms
    assert len(cond) == 8
    assert len(rms) == 16
    # the r and p fits share each step's Gram matrix: one condition number
    # per step, from the last step back
    assert cond == bwd.diagnostics.condition_numbers[::-1]
    # first the scalar r fits, then the p fits
    operator = ConditionalExpectation(fwd.x, BasisSpec())
    assert rms[0] == _residual_rms(operator, 7, adj.r[8])
    assert rms[8] == _residual_rms(operator, 7, adj.p[8])
    assert rms[0] != rms[8]


def _stream_case(name, n_paths, steps):
    grid = make_time_grid(1.0, steps)
    if name == "lq2":
        spec = make_lq_instance(LQParams(dim=2))
        values = np.random.default_rng(14).uniform(-0.5, 0.5, (steps, 2))
        u = make_control(values, grid, spec.control_set)
    elif name == "lq_obs":
        spec = make_lq_observation_instance(h_const=0.5, sigma2=0.3)
        u = constant_control([0.2], grid, spec.control_set)
    else:
        spec = make_scalar_nonlinear_instance()
        u = constant_control([0.2], grid, spec.control_set)
    noise = sample_noise(grid, n_paths, seed=15)
    fwd = simulate_forward(spec, u, noise)
    return spec, u, noise, fwd, solve_backward(spec, fwd)


@pytest.mark.parametrize("name", ["lq2", "lq_obs", "scalar_nonlinear"])
def test_production_adjoint_streams_the_collected_gradient(name):
    spec, u, noise, fwd, bwd = _stream_case(name, 4000, 16)
    grad = solve_adjoint(spec, bwd)
    adj = adjoint_trajectories(spec, bwd)
    # rho_i * H_u at each step's final multipliers, from the collected ones
    for i, t in enumerate(noise.grid.times[:-1]):
        mult = ham.MultiplierPoint(
            k=adj.k[i], p=adj.p[i], q1=adj.q1[i], q2=adj.q2[i], R2=adj.R2[i]
        )
        hu = ham.partial_u(spec, t, fwd.x[i], bwd.y[i], bwd.z1[i], bwd.z2[i], u.values[i], mult)
        assert np.array_equal(adj.weighted[i], fwd.rho[i][:, None] * hu)
        assert adj.weighted[i].flags.f_contiguous
        # each step is folded as it is solved: its path mean and minimizer
        assert np.array_equal(grad.means[i], adj.weighted[i].mean(axis=0))
        assert np.array_equal(grad.minimizer.values[i], spec.control_set.linear_minimize(grad.means[i]))
    for field in ("means", "per_path_gap"):
        assert getattr(grad, field).tobytes() == getattr(adj, field).tobytes(), field
    assert grad.minimizer.values.tobytes() == adj.minimizer.values.tobytes()
    if name == "scalar_nonlinear":
        assert grad.diagnostics == adj.diagnostics
    else:
        # h has no x or u Jacobian, so solve_adjoint runs the p fits alone
        N = noise.grid.steps
        assert grad.diagnostics.condition_numbers == adj.diagnostics.condition_numbers
        assert grad.diagnostics.residual_rms == adj.diagnostics.residual_rms[N:]


def test_production_adjoint_returns_no_per_step_and_path_array():
    spec, u, noise, fwd, bwd = _stream_case("lq2", 4000, 16)
    P, N = fwd.n_paths, noise.grid.steps
    grad = solve_adjoint(spec, bwd)
    assert type(grad) is ControlGradient
    arrays = {f: v for f, v in vars(grad).items() if isinstance(v, np.ndarray)}
    assert {f: v.shape for f, v in arrays.items()} == {"means": (N, 2), "per_path_gap": (P,)}
    assert all(v.size < N * P for v in arrays.values())


def test_production_adjoint_keeps_two_steps_of_multipliers():
    spec, u, noise, fwd, bwd = _stream_case("lq2", 20_000, 16)
    P, N = fwd.n_paths, noise.grid.steps
    tracemalloc.start()
    try:
        solve_adjoint(spec, bwd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k_bytes = (N + 1) * P * spec.dim_y * 8
    h_bytes = N * P * 8
    # beyond k and the observation drift h, only a few dozen (P,) columns
    # of one step's work, with the held rho * H_u and the per-path gap;
    # keeping p, q1, q2, r, R1 and R2 for every step would add 9 N columns
    # here, and rho * H_u for every step 2 N
    assert peak < k_bytes + h_bytes + 96 * P * 8


def test_production_adjoint_holds_one_step_of_a_k_that_nothing_moves():
    # on lq no partial moves k and h has no Jacobian: k(0) is held once
    # instead of N + 1 copies, and the value system is not solved
    spec, u, noise, fwd, bwd = _stream_case("lq2", 20_000, 16)
    P, N = fwd.n_paths, noise.grid.steps
    tracemalloc.start()
    try:
        solve_adjoint(spec, bwd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h_bytes = N * P * 8
    k0_bytes = P * spec.dim_y * 8
    assert peak < h_bytes + k0_bytes + 96 * P * 8
    # all of one step's work, about 24 (P,) columns, is less than the
    # 2 (N + 1) columns that a stored k history alone would take
    assert peak < (N + 1) * k0_bytes


def test_production_adjoint_holds_no_observation_drift_history():
    # h is evaluated per step in each sweep and every evaluator is dropped
    # with its step, so beyond k only one step's work is live, about 52
    # (P,) columns; an (N, P) array of h would add 64 columns and cross
    # the bound
    spec, u, noise, fwd, bwd = _stream_case("lq2", 20_000, 64)
    P, N = fwd.n_paths, noise.grid.steps
    tracemalloc.start()
    try:
        solve_adjoint(spec, bwd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k_bytes = (N + 1) * P * spec.dim_y * 8
    assert peak < k_bytes + 96 * P * 8


def test_value_system_equals_backward_state_when_f_is_minus_l():
    # both sweeps run the same regression step: with f = -l and phi = Phi the
    # value system (r, R1, R2) is the backward state (y, z1, z2) bit for bit
    spec = value_as_backward_instance(make_scalar_nonlinear_instance())
    grid = make_time_grid(1.0, 16)
    noise = sample_noise(grid, 2000, seed=13)
    u = constant_control([0.2], grid, spec.control_set)
    fwd, bwd, adj = _full_pipeline(spec, u, noise)
    assert np.array_equal(adj.r, bwd.y[..., 0])
    assert np.array_equal(adj.R1, bwd.z1[..., 0])
    assert np.array_equal(adj.R2, bwd.z2[..., 0])
    assert adj.diagnostics.residual_rms[:16] == bwd.diagnostics.residual_rms[::-1]


def test_zero_cost_gives_zero_value_system():
    spec = make_lq_instance(LQParams(q=0.0, g=0.0))
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 2000, seed=8)
    u = constant_control([0.0], grid, spec.control_set)
    fwd, bwd, adj = _full_pipeline(spec, u, noise)
    assert np.max(np.abs(adj.r)) <= 1e-8
    assert np.max(np.abs(adj.R1)) <= 1e-8
    assert np.max(np.abs(adj.R2)) <= 1e-8


def test_linear_gamma_pins_k():
    c = 0.7
    spec = linear_gamma_instance(c=c)
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 2000, seed=9)
    u = constant_control([0.0], grid, spec.control_set)
    fwd, bwd, adj = _full_pipeline(spec, u, noise)
    assert np.all(adj.k[0] == -c)


def test_adjoint_pinning_invariants():
    spec = make_lq_observation_instance()
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 1500, seed=10)
    u = constant_control([0.2], grid, spec.control_set)
    fwd, bwd, adj = _full_pipeline(spec, u, noise)

    x_T = fwd.x[-1]
    phi_big = np.asarray(spec.terminal_Phi.value(x_T))
    assert np.array_equal(adj.r[-1], phi_big)

    phi_x = np.asarray(spec.terminal_phi.dx(x_T))
    expected_p = np.asarray(spec.terminal_Phi.dx(x_T)) - np.einsum(
        "pij,pi->pj", phi_x, adj.k[-1]
    )
    assert np.allclose(adj.p[-1], expected_p, atol=1e-13)

    gamma_y = np.asarray(spec.initial_gamma.dy(bwd.y[0]))
    assert np.array_equal(adj.k[0], -gamma_y)


def test_lq_adjoint_tracks_riccati_small_scale(lq_params, lq_spec, lq_riccati):
    from fbsde_nearopt import riccati_open_loop_control

    grid = make_time_grid(1.0, 64)
    u = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    noise = sample_noise(grid, 30_000, seed=11)
    fwd, bwd, adj = _full_pipeline(lq_spec, u, noise)
    p_ref = lq_riccati.P_at(grid.times)[:, None, :] * fwd.x
    rel = np.sqrt(np.mean((adj.p - p_ref) ** 2)) / np.sqrt(np.mean(p_ref**2))
    assert rel <= 0.10


def test_adjoint_empirical_stability_bound():
    # difference of state and multiplier bundles controlled by the control
    # metric; one fixed pair family, noise seed varied
    spec = make_lq_instance(LQParams(a=0.3, q=1.0, sigma=0.2))
    grid = make_time_grid(1.0, 10)
    rng = np.random.default_rng(12)
    pairs = [
        (
            make_control(rng.uniform(-1, 1, (10, 1)), grid, spec.control_set),
            make_control(rng.uniform(-1, 1, (10, 1)), grid, spec.control_set),
        )
        for _ in range(6)
    ]
    fitted = []
    for seed in range(3):
        noise = sample_noise(grid, 1500, seed=seed)
        worst = 0.0
        for ua, ub in pairs:
            fa, ba, aa = _full_pipeline(spec, ua, noise)
            fb, bb, ab = _full_pipeline(spec, ub, noise)
            num = _bundle_distance_sq(grid, fa, ba, aa, fb, bb, ab)
            worst = max(worst, num / control_distance(ua, ub) ** 2)
        fitted.append(worst)
    assert np.all(np.isfinite(fitted))
    assert max(fitted) / min(fitted) < 2.0


def _bundle_distance_sq(grid, fa, ba, aa, fb, bb, ab):
    dt = grid.dt

    def sup_sq(d):
        return float(np.mean(np.max(np.sum(d * d, axis=2), axis=0)))

    def int_sq(d):
        return float(np.mean(np.sum(np.sum(d * d, axis=2), axis=0) * dt))

    theta = (
        sup_sq(fa.x - fb.x)
        + sup_sq(ba.y - bb.y)
        + int_sq(ba.z1 - bb.z1)
        + int_sq(ba.z2 - bb.z2)
    )
    lam = (
        sup_sq(aa.k - ab.k)
        + sup_sq(aa.p - ab.p)
        + int_sq(aa.q1 - ab.q1)
        + int_sq(aa.q2 - ab.q2)
    )
    r2 = float(np.mean(np.sum((aa.R2 - ab.R2) ** 2, axis=0) * dt))
    return theta + lam + r2
