import dataclasses
import math

import numpy as np
import pytest

from fbsde_nearopt import (
    GridMismatchError,
    LQParams,
    SimulationError,
    constant_control,
    control_distance,
    enumerate_lattice,
    evaluate_cost_strong,
    evaluate_cost_weak,
    make_control,
    make_lq_instance,
    make_lq_observation_instance,
    make_scalar_nonlinear_instance,
    make_time_grid,
    sample_noise,
    simulate_forward,
    solve_backward,
)
from fbsde_nearopt.forward_sim import BLOWUP_THRESHOLD

from _instances import constant_running_cost_instance, explosive_instance, pure_noise_instance


def _pipeline(spec, u, noise):
    bwd = solve_backward(spec, simulate_forward(spec, u, noise))
    return bwd.forward, bwd


def test_zero_observation_gives_unit_density(lq_spec):
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 200, seed=1)
    fwd = simulate_forward(lq_spec, constant_control([0.3], grid, lq_spec.control_set), noise)
    assert np.all(fwd.rho == 1.0)


def test_driftless_state_is_random_walk():
    spec = pure_noise_instance(sigma=1.0)
    grid = make_time_grid(1.0, 16)
    noise = sample_noise(grid, 100, seed=2)
    u = constant_control([0.0], grid, spec.control_set)
    fwd = simulate_forward(spec, u, noise)
    walk = np.cumsum(noise.dW, axis=1)
    assert np.allclose(fwd.x[1:, :, 0].T, walk, atol=0.0)
    assert np.all(fwd.x[0] == 0.0)


def test_constant_observation_density_exact():
    c = 0.5
    spec = make_lq_observation_instance(h_const=c)
    grid = make_time_grid(1.0, 32)
    noise = sample_noise(grid, 500, seed=3)
    u = constant_control([0.1], grid, spec.control_set)
    fwd = simulate_forward(spec, u, noise)
    y_total = noise.dY.sum(axis=1)
    expected = np.exp(c * y_total - 0.5 * c * c * grid.horizon)
    assert np.allclose(fwd.rho[-1], expected, rtol=1e-12)


def test_density_positive_everywhere():
    spec = make_scalar_nonlinear_instance()
    grid = make_time_grid(1.0, 16)
    noise = sample_noise(grid, 300, seed=4)
    fwd = simulate_forward(spec, constant_control([0.2], grid, spec.control_set), noise)
    assert np.all(fwd.rho > 0.0)


def test_blowup_detected():
    spec = explosive_instance()
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 10, seed=5)
    with pytest.raises(SimulationError, match="blow-up"):
        simulate_forward(spec, constant_control([0.0], grid, spec.control_set), noise)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 10.0 * BLOWUP_THRESHOLD])
def test_blowup_guard_names_step_and_path(bad):
    # the drift puts one bad value into x[step] on one path; NaN fails a
    # guard that tests only "> threshold"
    step, path = 5, 3
    spec = pure_noise_instance(sigma=1.0)
    grid = make_time_grid(1.0, 8)
    hit_time = grid.times[step - 1]

    def drift(t, x, u):
        out = np.zeros_like(x)
        if t == hit_time:
            out[path] = bad / grid.dt
        return out

    spec = dataclasses.replace(spec, drift_b=dataclasses.replace(spec.drift_b, value=drift))
    noise = sample_noise(grid, 10, seed=5)
    with pytest.raises(SimulationError, match=rf"at step {step}, path {path}:"):
        simulate_forward(spec, constant_control([0.0], grid, spec.control_set), noise)


def test_zero_cost_exactly_zero():
    spec = make_lq_instance(LQParams(q=0.0, g=0.0))
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 100, seed=6)
    u = constant_control([0.0], grid, spec.control_set)
    fwd, bwd = _pipeline(spec, u, noise)
    report = evaluate_cost_strong(spec, bwd)
    assert report.value == 0.0
    assert report.running == 0.0 and report.terminal == 0.0 and report.initial == 0.0


def test_constant_running_cost_integrates_exactly():
    spec = constant_running_cost_instance(level=1.0)
    grid = make_time_grid(1.0, 16)
    noise = sample_noise(grid, 50, seed=7)
    u = constant_control([0.0], grid, spec.control_set)
    fwd, bwd = _pipeline(spec, u, noise)
    report = evaluate_cost_strong(spec, bwd)
    assert report.value == 1.0
    assert report.stderr == 0.0


def test_cost_parts_sum(lq_spec):
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 400, seed=8)
    u = constant_control([-0.4], grid, lq_spec.control_set)
    fwd, bwd = _pipeline(lq_spec, u, noise)
    report = evaluate_cost_strong(lq_spec, bwd)
    assert report.value == report.running + report.terminal + report.initial
    assert report.stderr >= 0.0


def test_lq_cost_matches_lattice_oracle(lq_spec):
    # Gaussian Monte-Carlo vs exact binomial expectation: for the LQ family
    # the discretized cost depends only on first and second moments, which
    # the binomial approximation matches exactly.
    grid = make_time_grid(1.0, 5)
    u = constant_control([0.0], grid, lq_spec.control_set)
    lattice = enumerate_lattice(lq_spec, u, grid)
    noise = sample_noise(grid, 50_000, seed=10)
    fwd, bwd = _pipeline(lq_spec, u, noise)
    report = evaluate_cost_strong(lq_spec, bwd)
    assert abs(report.value - lattice.cost) <= 3.0 * report.stderr


def test_weak_equals_strong_without_observation(lq_spec):
    grid = make_time_grid(1.0, 16)
    u = constant_control([-0.3], grid, lq_spec.control_set)
    noise = sample_noise(grid, 30_000, seed=11)
    fwd, bwd = _pipeline(lq_spec, u, noise)
    strong = evaluate_cost_strong(lq_spec, bwd)
    weak = evaluate_cost_weak(lq_spec, u, seed=12, n_paths=30_000, grid=grid)
    assert abs(strong.value - weak.value) <= 3.0 * math.hypot(strong.stderr, weak.stderr)


def test_weak_mean_of_linear_terminal_is_initial_state():
    spec = pure_noise_instance(
        sigma=1.0,
        phi_terminal=lambda x: x[:, 0],
        phi_dx=lambda x: np.ones_like(x),
    )
    grid = make_time_grid(1.0, 8)
    weak = evaluate_cost_weak(spec, constant_control([0.0], grid, spec.control_set),
                              seed=13, n_paths=40_000, grid=grid)
    assert abs(weak.value - 0.0) <= 3.0 * weak.stderr


@pytest.mark.parametrize("name", ["lq", "lq_obs", "scalar_nonlinear", "double_well"])
def test_girsanov_consistency(name):
    from fbsde_nearopt import builtin_instance

    spec = builtin_instance(name)
    grid = make_time_grid(1.0, 32)
    u = constant_control([0.15], grid, spec.control_set)
    noise = sample_noise(grid, 30_000, seed=14)
    fwd, bwd = _pipeline(spec, u, noise)
    strong = evaluate_cost_strong(spec, bwd)
    weak = evaluate_cost_weak(spec, u, seed=15, n_paths=30_000, grid=grid)
    assert abs(strong.value - weak.value) <= 3.0 * math.hypot(strong.stderr, weak.stderr)


def test_density_martingale_mean():
    spec = make_lq_observation_instance()
    grid = make_time_grid(1.0, 16)
    noise = sample_noise(grid, 100_000, seed=16)
    fwd = simulate_forward(spec, constant_control([0.0], grid, spec.control_set), noise)
    rho_T = fwd.rho[-1]
    stderr = np.std(rho_T, ddof=1) / math.sqrt(rho_T.shape[0])
    assert abs(rho_T.mean() - 1.0) <= 3.0 * stderr


def test_control_distance_examples(lq_spec):
    grid = make_time_grid(1.0, 4)
    cs = lq_spec.control_set
    u1 = constant_control([1.0], grid, cs)
    u0 = constant_control([0.0], grid, cs)
    assert control_distance(u1, u1) == 0.0
    assert control_distance(u1, u0) == 1.0
    step = make_control(np.array([[1.0], [0.0], [0.0], [0.0]]), grid, cs)
    assert control_distance(step, u0) == 0.5


def test_control_distance_axioms(lq_spec):
    grid = make_time_grid(1.0, 6)
    cs = lq_spec.control_set
    rng = np.random.default_rng(17)
    for _ in range(100):
        a, b, c = (
            make_control(rng.uniform(-1, 1, size=(6, 1)), grid, cs) for _ in range(3)
        )
        dab, dba = control_distance(a, b), control_distance(b, a)
        assert dab == dba
        assert control_distance(a, a) == 0.0
        assert dab <= control_distance(a, c) + control_distance(c, b) + 1e-12


def test_control_distance_grid_mismatch(lq_spec):
    cs = lq_spec.control_set
    u1 = constant_control([0.0], make_time_grid(1.0, 4), cs)
    u2 = constant_control([0.0], make_time_grid(1.0, 8), cs)
    with pytest.raises(GridMismatchError):
        control_distance(u1, u2)


@pytest.mark.parametrize(
    "spec", [make_lq_observation_instance(), make_scalar_nonlinear_instance()],
    ids=["lq_obs", "scalar_nonlinear"],
)
def test_sup_moments_stable_across_seeds(spec):
    # empirical finiteness/stability of sup-norm moments of x, y and rho
    grid = make_time_grid(1.0, 16)
    u = constant_control([0.1], grid, spec.control_set)
    stats = {2: {"x": [], "y": [], "rho": []}, 4: {"x": [], "y": [], "rho": []}}
    for seed in range(5):
        noise = sample_noise(grid, 20_000, seed=seed)
        fwd = simulate_forward(spec, u, noise)
        bwd = solve_backward(spec, fwd)
        sup_x = np.abs(fwd.x[:, :, 0]).max(axis=0)
        sup_y = np.abs(bwd.y[:, :, 0]).max(axis=0)
        sup_rho = fwd.rho.max(axis=0)
        for order in (2, 4):
            stats[order]["x"].append(np.mean(sup_x**order))
            stats[order]["y"].append(np.mean(sup_y**order))
            stats[order]["rho"].append(np.mean(sup_rho**order))
    for order, series in stats.items():
        for name, vals in series.items():
            assert np.all(np.isfinite(vals))
            assert max(vals) / min(vals) < 1.2, (order, name, vals)
