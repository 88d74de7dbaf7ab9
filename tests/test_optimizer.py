import tracemalloc

import numpy as np
import pytest

from fbsde_nearopt import (
    BasisSpec,
    DescentParams,
    FbsdeError,
    adjoint_trajectories,
    certify_necessary,
    make_lq_observation_instance,
    constant_control,
    evaluate_cost_strong,
    make_control,
    make_time_grid,
    min_gap_over_A,
    order_study,
    riccati_open_loop_control,
    sample_noise,
    simulate_forward,
    smp_descent,
    solve_backward,
)
from fbsde_nearopt import optimizer

from _instances import constant_gamma_instance, control_only_cost_instance


def test_pure_control_cost_converges_to_zero():
    # l = |u|^2 with control-free dynamics: unique interior minimizer at 0
    spec = control_only_cost_instance(target=0.0)
    grid = make_time_grid(1.0, 8)
    u0 = constant_control([1.0], grid, spec.control_set)
    params = DescentParams(max_iter=50, n_paths=2000, seed=0, tol_gap=1e-4)
    trace = smp_descent(spec, u0, params)
    assert len(trace.rows) - 1 <= 50
    assert np.max(np.abs(trace.final_control.values)) <= 0.05


def test_zero_iterations_yields_single_diagnostic_row(lq_spec):
    grid = make_time_grid(1.0, 8)
    u0 = constant_control([0.5], grid, lq_spec.control_set)
    trace = smp_descent(lq_spec, u0, DescentParams(max_iter=0, n_paths=1000, seed=1))
    assert len(trace.rows) == 1
    assert trace.rows[0].iteration == 0
    assert trace.rows[0].step_size == 0.0
    assert np.array_equal(trace.final_control.values, u0.values)


def test_starting_at_optimum_terminates_immediately(lq_spec, lq_params, lq_riccati):
    grid = make_time_grid(1.0, 16)
    u_star = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    params = DescentParams(max_iter=20, n_paths=20_000, seed=2, tol_gap=1e-3)
    trace = smp_descent(lq_spec, u_star, params)
    assert trace.converged
    assert len(trace.rows) == 1
    assert trace.rows[0].min_gap >= -3.0 * trace.rows[0].gap_stderr - 1e-4


def test_iterates_stay_feasible(lq_spec):
    grid = make_time_grid(1.0, 8)
    u0 = constant_control([0.9], grid, lq_spec.control_set)
    params = DescentParams(max_iter=10, n_paths=1500, seed=3, tol_gap=1e-6)
    trace = smp_descent(lq_spec, u0, params)
    for ctrl in trace.controls:
        assert np.all(ctrl.values >= -1.0 - 1e-12)
        assert np.all(ctrl.values <= 1.0 + 1e-12)


def test_cost_monotone_under_line_search(lq_spec):
    grid = make_time_grid(1.0, 8)
    u0 = constant_control([0.9], grid, lq_spec.control_set)
    params = DescentParams(max_iter=15, n_paths=2000, seed=4, tol_gap=1e-8)
    trace = smp_descent(lq_spec, u0, params)
    costs = [row.cost for row in trace.rows]
    stderrs = [row.cost_stderr for row in trace.rows]
    for prev, nxt, se in zip(costs, costs[1:], stderrs[1:]):
        assert nxt <= prev + 3.0 * se


def test_gap_magnitude_shrinks_along_iterates(lq_spec):
    import math

    grid = make_time_grid(1.0, 8)
    u0 = constant_control([0.9], grid, lq_spec.control_set)
    params = DescentParams(max_iter=10, n_paths=2000, seed=14, tol_gap=1e-9)
    trace = smp_descent(lq_spec, u0, params)
    assert len(trace.rows) >= 4
    for prev, nxt in zip(trace.rows, trace.rows[1:]):
        slack = 3.0 * math.hypot(prev.gap_stderr, nxt.gap_stderr)
        assert abs(nxt.min_gap) <= abs(prev.min_gap) + slack


def test_infeasible_start_rejected(lq_spec):
    grid = make_time_grid(1.0, 4)
    bad = make_control(np.full((4, 1), 1.5), grid, lq_spec.control_set, project=True)
    object.__setattr__(bad, "values", np.full((4, 1), 1.5))
    with pytest.raises(FbsdeError, match="admissible"):
        smp_descent(lq_spec, bad, DescentParams(max_iter=1, n_paths=500, seed=5))


def test_trace_csv_export(tmp_path, lq_spec):
    grid = make_time_grid(1.0, 4)
    u0 = constant_control([0.5], grid, lq_spec.control_set)
    trace = smp_descent(lq_spec, u0, DescentParams(max_iter=2, n_paths=800, seed=8))
    out = tmp_path / "trace.csv"
    trace.to_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("iteration,cost")
    assert len(lines) == 1 + len(trace.rows)


def test_certificate_coupling_at_termination(lq_spec, lq_riccati):
    grid = make_time_grid(1.0, 16)
    u0 = constant_control([0.0], grid, lq_spec.control_set)
    params = DescentParams(max_iter=30, n_paths=10_000, seed=9, tol_gap=1e-3)
    trace = smp_descent(lq_spec, u0, params)
    epsilon = max(trace.final_cost - lq_riccati.optimal_cost, 0.0)
    noise = sample_noise(grid, 10_000, seed=10)
    bwd = solve_backward(lq_spec, simulate_forward(lq_spec, trace.final_control, noise))
    cert = certify_necessary(lq_spec, bwd, epsilon=epsilon, C=2.0)
    assert cert.verdict == "necessary-holds"


# ---------------------------------------------------------------------------
# order study


def _order_study(spec, lq_params, lq_riccati, steps, deltas, n_paths, seed):
    grid = make_time_grid(1.0, steps)
    u_star = riccati_open_loop_control(lq_riccati, lq_params, grid, spec.control_set)
    direction = constant_control([1.0], grid, spec.control_set)
    noise = sample_noise(grid, n_paths, seed)
    return order_study(
        spec, u_star, deltas, direction, lq_riccati.optimal_cost, noise, BasisSpec()
    )


def test_family_epsilon_vanishes_at_zero_delta(lq_spec, lq_params, lq_riccati):
    [(_, _, eps, _)] = _order_study(lq_spec, lq_params, lq_riccati, 16, [0.0], 20_000, 11)
    assert eps <= 5e-4


def test_family_epsilon_quadratic_growth(lq_spec, lq_params, lq_riccati):
    small, big = _order_study(lq_spec, lq_params, lq_riccati, 16, [0.1, 0.2], 20_000, 12)
    assert 3.0 <= big[2] / small[2] <= 5.0


def test_family_projection_keeps_feasibility(lq_spec, lq_params, lq_riccati):
    [(delta, control, _, _)] = _order_study(lq_spec, lq_params, lq_riccati, 8, [5.0], 2000, 13)
    assert delta == 5.0
    assert np.all(control.values <= 1.0)
    assert np.all(control.values >= -1.0)


def test_order_study_rejects_a_direction_on_another_grid(lq_spec):
    u = constant_control([0.0], make_time_grid(1.0, 4), lq_spec.control_set)
    other = constant_control([1.0], make_time_grid(1.0, 8), lq_spec.control_set)
    noise = sample_noise(u.grid, 100, 0)
    with pytest.raises(FbsdeError, match="different grid"):
        order_study(lq_spec, u, [0.1], other, 0.0, noise, BasisSpec())


@pytest.mark.parametrize("instance", ["lq", "constant_gamma"])
def test_order_study_matches_the_two_pass_route_bit_for_bit(
    lq_spec, lq_params, lq_riccati, instance
):
    """One pass per member gives what a cost on ``solve_backward``'s bundle
    followed by a gap on a second, fully kept adjoint gives."""
    spec = lq_spec if instance == "lq" else constant_gamma_instance()
    deltas = [0.03, 0.08, 0.21, 0.35]
    members = _order_study(spec, lq_params, lq_riccati, 16, deltas, 4000, 104)
    noise = sample_noise(make_time_grid(1.0, 16), 4000, 104)
    for delta, control, eps, gap in members:
        bwd = solve_backward(spec, simulate_forward(spec, control, noise))
        cost = evaluate_cost_strong(spec, bwd)
        expected = min_gap_over_A(adjoint_trajectories(spec, bwd))
        assert eps == max(cost.value - lq_riccati.optimal_cost, 0.0), delta
        assert (gap.gap, gap.stderr) == (expected.gap, expected.stderr), delta
        assert np.array_equal(gap.minimizer.values, expected.minimizer.values)


def test_line_search_does_not_hold_the_current_bundle(monkeypatch):
    # lq_obs: h = 0.5, so rho is a trajectory as large as x
    spec = make_lq_observation_instance()
    P, N = 20000, 16
    grid = make_time_grid(spec.horizon, N)
    u0 = constant_control(spec.control_set.center(), grid, spec.control_set)
    live = []
    original = optimizer.simulate_forward

    def traced(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return original(*args)

    monkeypatch.setattr(optimizer, "simulate_forward", traced)
    tracemalloc.start()
    try:
        smp_descent(spec, u0, DescentParams(max_iter=2, n_paths=P, seed=3))
    finally:
        tracemalloc.stop()
    noise_bytes = 8 * 2 * N * P
    x_bytes = 8 * (N + 1) * P
    # every trial starts with the noise and no bundle; the current control's
    # x and rho, each of x_bytes, would exceed the bound
    assert len(live) > 2
    assert max(live[1:]) < noise_bytes + x_bytes
