import math

import numpy as np
import pytest

from fbsde_nearopt import (
    BasisSpec,
    LQParams,
    OracleError,
    adjoint_trajectories,
    builtin_instance,
    constant_control,
    enumerate_binomial,
    enumerate_lattice,
    evaluate_cost_strong,
    make_lq_instance,
    make_time_grid,
    min_gap_over_A,
    riccati_lq,
    riccati_open_loop_control,
    sample_noise,
    simulate_forward,
    solve_adjoint,
    solve_backward,
)

from _instances import constant_running_cost_instance, cost_through_y_twin, pure_noise_instance


# ---------------------------------------------------------------------------
# lattice enumeration


def test_two_point_terminal_expectation():
    # x(T) = +-1 with equal weight; Phi(x) = x^2 gives J = 1 exactly
    spec = pure_noise_instance(sigma=1.0, g_cost=2.0)
    grid = make_time_grid(1.0, 1)
    u = constant_control([0.0], grid, spec.control_set)
    solution = enumerate_lattice(spec, u, grid)
    assert solution.cost == 1.0


def test_constant_running_cost_exact_for_any_steps():
    spec = constant_running_cost_instance(level=1.0)
    for steps in (1, 2, 4):
        grid = make_time_grid(1.0, steps)
        u = constant_control([0.0], grid, spec.control_set)
        assert enumerate_lattice(spec, u, grid).cost == 1.0


def test_lattice_needs_matching_grid(lq_spec):
    grid = make_time_grid(1.0, 3)
    u = constant_control([0.0], make_time_grid(1.0, 4), lq_spec.control_set)
    with pytest.raises(OracleError):
        enumerate_lattice(lq_spec, u, grid)


def test_lattice_budget_guard(lq_spec):
    grid = make_time_grid(1.0, 12)
    u = constant_control([0.0], grid, lq_spec.control_set)
    with pytest.raises(OracleError, match="budget"):
        enumerate_lattice(lq_spec, u, grid)


@pytest.mark.parametrize("name", ["lq", "lq_obs", "scalar_nonlinear", "double_well"])
def test_lattice_matches_pipeline_bitwise(name):
    # the Monte-Carlo pipeline fed the enumerated bundle must reproduce the
    # lattice cost exactly: same discretization, two code paths
    spec = builtin_instance(name)
    grid = make_time_grid(1.0, 4)
    u = constant_control([0.2], grid, spec.control_set)
    lattice = enumerate_lattice(spec, u, grid)
    bundle = enumerate_binomial(grid)
    fwd = simulate_forward(spec, u, bundle)
    bwd = solve_backward(spec, fwd, BasisSpec(degree=1))
    report = evaluate_cost_strong(spec, bwd)
    assert abs(report.value - lattice.cost) <= 1e-12


def test_lattice_backward_values_match_closed_form():
    # phi(x) = x with driftless dynamics: exact backward values equal x
    spec = make_lq_instance(LQParams(b_coef=1.0, sigma=1.0, q=0.0, g=0.0, initial_x=0.0))
    grid = make_time_grid(1.0, 3)
    u = constant_control([0.0], grid, spec.control_set)
    backward = enumerate_lattice(spec, u, grid).backward
    assert np.allclose(backward.y, backward.forward.x, atol=1e-12)


def _lattice_case(name, steps, degree=2):
    """The exact tree and the regression pipeline on one binomial bundle."""
    spec = builtin_instance("lq", dim=2) if name == "lq2" else builtin_instance(name)
    grid = make_time_grid(1.0, steps)
    u = constant_control([0.2] * spec.dim_u, grid, spec.control_set)
    tree = enumerate_lattice(spec, u, grid).backward
    lsmc = solve_backward(spec, simulate_forward(spec, u, enumerate_binomial(grid)), BasisSpec(degree))
    return spec, u, grid, tree, lsmc


@pytest.mark.parametrize("steps", [4, 6])
@pytest.mark.parametrize("name", ["lq", "lq_obs", "scalar_nonlinear", "double_well"])
def test_cost_through_y_twin_on_the_tree(name, steps):
    # the twin carries the cost in y (f = -l, phi = Phi, gamma(y) = y), so
    # its exact gap runs through k = -1 and f_u, and equals the original's
    spec, u, grid, tree, _ = _lattice_case(name, steps)
    twin = cost_through_y_twin(spec)
    twin_tree = enumerate_lattice(twin, u, grid).backward
    adj = adjoint_trajectories(twin, twin_tree)
    assert np.all(adj.k == -1.0)
    exact = min_gap_over_A(solve_adjoint(spec, tree)).gap
    assert abs(min_gap_over_A(adj).gap - exact) <= 1e-12
    if name in ("lq", "double_well"):
        # h == 0: y(0) is the running plus terminal cost exactly; with h != 0
        # the driver's z2 * h is the linearized density and they differ by O(dt)
        cost = enumerate_lattice(spec, u, grid).cost
        assert np.max(np.abs(twin_tree.y[0] - cost)) <= 1e-12


@pytest.mark.parametrize("name", ["lq", "lq2", "double_well"])
def test_lsmc_backward_state_matches_the_tree(name):
    # y is linear in x on these families, so a degree-2 fit on the binomial
    # bundle recovers the exact block means up to the ridge
    _, _, _, tree, lsmc = _lattice_case(name, 4)
    for exact, fitted in ((tree.y, lsmc.y), (tree.z1, lsmc.z1), (tree.z2, lsmc.z2)):
        assert np.max(np.abs(fitted - exact)) <= 1e-8


@pytest.mark.parametrize("steps", [4, 6])
def test_lsmc_min_gap_matches_the_exact_gap_on_scalar_nonlinear(steps):
    # measured relative differences: 8.1e-7 at 4 steps, 2.2e-7 at 6
    spec, _, _, tree, lsmc = _lattice_case("scalar_nonlinear", steps)
    exact = min_gap_over_A(solve_adjoint(spec, tree)).gap
    fitted = min_gap_over_A(solve_adjoint(spec, lsmc)).gap
    assert abs(fitted - exact) <= 5e-6 * abs(exact)


# ---------------------------------------------------------------------------
# Riccati oracle


def test_riccati_analytic_blowup_free_case():
    params = LQParams(a=0.0, b_coef=1.0, sigma=1.0, q=0.0, r=1.0, g=1.0, horizon=1.0)
    sol = riccati_lq(params, ode_steps=4000)
    expected = 1.0 / (1.0 + (1.0 - sol.times))
    assert np.max(np.abs(sol.P[:, 0] - expected)) <= 1e-8
    assert sol.P[0, 0] == pytest.approx(0.5, abs=1e-10)


def test_riccati_zero_cost_weights():
    sol = riccati_lq(LQParams(q=0.0, g=0.0), ode_steps=1000)
    assert np.all(sol.P == 0.0)
    assert np.all(sol.gain == 0.0)
    assert sol.optimal_cost == 0.0


def test_riccati_noiseless_zero_start_costs_nothing():
    sol = riccati_lq(LQParams(sigma=0.0, initial_x=0.0, q=0.5, g=2.0), ode_steps=1000)
    assert sol.optimal_cost == 0.0


def test_riccati_linear_case_closed_form():
    a = -0.4
    sol = riccati_lq(LQParams(a=a, b_coef=0.0, q=0.0, g=2.0), ode_steps=4000)
    expected = 2.0 * np.exp(2.0 * a * (1.0 - sol.times))
    assert np.max(np.abs(sol.P[:, 0] - expected)) <= 1e-10


def test_riccati_terminal_condition_exact():
    sol = riccati_lq(LQParams(q=0.3, g=0.7), ode_steps=1000)
    assert sol.P[-1, 0] == 0.7
    assert np.all(sol.P >= 0.0)


def test_riccati_residual_small(lq_riccati):
    assert lq_riccati.max_residual <= 1e-8


def test_riccati_rejects_bad_inputs():
    with pytest.raises(OracleError):
        riccati_lq(LQParams(r=-1.0), ode_steps=1000)
    with pytest.raises(OracleError, match="ode_steps"):
        riccati_lq(LQParams(), ode_steps=100)


def test_riccati_cost_formula(lq_params, lq_riccati):
    # 0.5 P(0) x0^2 plus the sigma^2-weighted trace integral
    base = 0.5 * lq_riccati.P[0, 0] * lq_params.initial_x**2
    noise_part = lq_riccati.optimal_cost - base
    expected = 0.5 * lq_params.sigma**2 * math.log(2.0)
    assert noise_part == pytest.approx(expected, rel=1e-6)


def test_open_loop_control_is_constant_for_default_lq(lq_spec, lq_params, lq_riccati):
    grid = make_time_grid(1.0, 8)
    ctrl = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    assert np.allclose(ctrl.values, -0.5, atol=1e-3)


def test_diagonal_two_dimensional_family_end_to_end():
    # the diagonal LQ family decouples per coordinate; the whole pipeline,
    # oracle and certificates must hold in dim 2 as well
    from fbsde_nearopt import min_gap_over_A, run_pipeline, validate_problem

    params = LQParams(sigma=0.02, dim=2)
    spec = make_lq_instance(params)
    assert validate_problem(spec, samples=30, seed=1, tol=1e-5).passed

    sol = riccati_lq(params, ode_steps=2000)
    assert np.allclose(sol.P[0], 0.5, atol=1e-10)

    grid = make_time_grid(1.0, 16)
    u_star = riccati_open_loop_control(sol, params, grid, spec.control_set)
    noise = sample_noise(grid, 8000, seed=2)
    fwd, bwd, adj = run_pipeline(spec, u_star, noise)
    cost = evaluate_cost_strong(spec, bwd)
    assert abs(cost.value - sol.optimal_cost) / sol.optimal_cost <= 0.01
    gap = min_gap_over_A(adj)
    assert gap.gap >= -3.0 * gap.stderr - 1e-3

    lat_grid = make_time_grid(1.0, 3)
    u3 = constant_control([0.1, -0.1], lat_grid, spec.control_set)
    lattice = enumerate_lattice(spec, u3, lat_grid)
    bundle = enumerate_binomial(lat_grid)
    f3 = simulate_forward(spec, u3, bundle)
    b3 = solve_backward(spec, f3, BasisSpec(degree=1))
    assert abs(evaluate_cost_strong(spec, b3).value - lattice.cost) <= 1e-12


def _array_riccati(params, ode_steps=4000):
    """The RK4 Riccati integration as one loop over coordinate arrays, with
    the closed-loop mean of the open-loop control: the reference that the
    scalar-float oracle must match bit for bit.  Returns (P, gain, cost,
    mean) or raises OracleError at the first tau step any coordinate
    exceeds 1e8."""
    arr = params.arrays()
    a, q, g = arr["a"], arr["q"], arr["g"]
    b2_over_r = arr["b_coef"] ** 2 / arr["r"]
    T = params.horizon
    dtau = T / ode_steps

    def rhs(P):
        return 2.0 * a * P + q - b2_over_r * P * P

    P_tau = np.empty((ode_steps + 1, params.dim))
    P_tau[0] = g
    for s in range(ode_steps):
        p0 = P_tau[s]
        k1 = rhs(p0)
        k2 = rhs(p0 + 0.5 * dtau * k1)
        k3 = rhs(p0 + 0.5 * dtau * k2)
        k4 = rhs(p0 + dtau * k3)
        P_tau[s + 1] = p0 + dtau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.any(np.abs(P_tau[s + 1]) > 1e8):
            raise OracleError(f"Riccati blow-up at tau step {s + 1}")
    P_t = P_tau[::-1].copy()
    times = np.linspace(0.0, T, ode_steps + 1)
    gain = -(arr["b_coef"] / arr["r"])[None, :] * P_t
    trace_term = np.trapezoid(arr["sigma"] ** 2 * P_t, times, axis=0)
    cost = float(0.5 * np.sum(P_t[0] * arr["initial_x"] ** 2) + 0.5 * np.sum(trace_term))
    fine_dt = times[1] - times[0]
    mean = np.empty_like(P_t)
    mean[0] = arr["initial_x"]
    for s in range(ode_steps):
        mean[s + 1] = mean[s] + (a * mean[s] + arr["b_coef"] * gain[s] * mean[s]) * fine_dt
    return P_t, gain, cost, mean


RICCATI_CASES = [
    LQParams(),
    LQParams(dim=2, a=0.3, q=1.0),
    LQParams(dim=3, sigma=0.2, q=0.5, g=2.0, initial_x=-0.7),
    LQParams(
        dim=3, a=[0.1, -0.3, 0.5], b_coef=[1.0, 2.0, 0.5], sigma=[0.1, 0.2, 0.3],
        q=[0.0, 1.0, 2.0], r=[1.0, 0.3, 2.0], g=[1.0, 0.5, 0.0], initial_x=[1.0, -0.5, 0.2],
    ),
]


@pytest.mark.parametrize("params", RICCATI_CASES, ids=["lq1", "lq2", "lq3", "lq3_vector"])
def test_scalar_riccati_bitwise_equal_to_array_loop(params):
    P, gain, cost, mean = _array_riccati(params)
    sol = riccati_lq(params)
    assert sol.P.tobytes() == P.tobytes()
    assert sol.gain.tobytes() == gain.tobytes()
    assert sol.optimal_cost == cost
    grid = make_time_grid(params.horizon, 16)
    spec = make_lq_instance(params)
    control = riccati_open_loop_control(sol, params, grid, spec.control_set)
    # gain * mean at each step's left node, projected into U
    fine = [min(int(round(t / (sol.times[1] - sol.times[0]))), P.shape[0] - 1) for t in grid.times[:-1]]
    want = np.clip(gain[fine] * mean[fine], params.control_lower, params.control_upper)
    assert control.values.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "params",
    [
        LQParams(a=5.0, b_coef=0.0, g=10.0, horizon=3.0),
        # the second coordinate blows up first: the error names its step
        LQParams(dim=2, a=[5.0, 6.0], b_coef=0.0, g=10.0, horizon=3.0),
    ],
)
def test_scalar_riccati_blow_up_names_the_first_step(params):
    with pytest.raises(OracleError) as reference:
        _array_riccati(params)
    with pytest.raises(OracleError) as got:
        riccati_lq(params)
    assert str(got.value) == str(reference.value)
