import dataclasses
import json
import math

import numpy as np
import pytest

from fbsde_nearopt import (
    FbsdeError,
    GridMismatchError,
    PreconditionError,
    adjoint_trajectories,
    builtin_instance,
    certify_necessary,
    certify_sufficient,
    constant_control,
    cost_difference_representation,
    enumerate_binomial,
    enumerate_lattice,
    estimate_order,
    make_control,
    make_time_grid,
    min_gap_over_A,
    necessary_gap,
    riccati_open_loop_control,
    run_pipeline,
    sample_noise,
    simulate_forward,
    solve_adjoint,
    solve_backward,
)

from _instances import linear_gap_instance


def _bundle(spec, u, n_paths, seed):
    """The backward bundle of u on n_paths paths of noise drawn from seed."""
    return solve_backward(spec, simulate_forward(spec, u, sample_noise(u.grid, n_paths, seed)))


@pytest.fixture(scope="module")
def lq_bundles(lq_spec):
    grid = make_time_grid(1.0, 16)
    u = constant_control([-0.2], grid, lq_spec.control_set)
    noise = sample_noise(grid, 8000, seed=0)
    fwd, bwd, adj = run_pipeline(lq_spec, u, noise)
    return grid, u, noise, fwd, bwd, adj


def test_gap_zero_at_base_control(lq_spec, lq_bundles):
    grid, u, noise, fwd, bwd, adj = lq_bundles
    gap, stderr = necessary_gap(adj, u)
    assert gap == 0.0
    assert stderr == 0.0


def test_gap_linear_in_direction(lq_spec, lq_bundles):
    grid, u, noise, fwd, bwd, adj = lq_bundles
    v = constant_control([0.1], grid, lq_spec.control_set)
    doubled_vals = u.values + 2.0 * (v.values - u.values)
    doubled = make_control(doubled_vals, grid, lq_spec.control_set)
    g1, _ = necessary_gap(adj, v)
    g2, _ = necessary_gap(adj, doubled)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


def test_gap_grid_mismatch_rejected(lq_spec, lq_bundles):
    grid, u, noise, fwd, bwd, adj = lq_bundles
    other = constant_control([0.0], make_time_grid(1.0, 8), lq_spec.control_set)
    with pytest.raises(GridMismatchError):
        necessary_gap(adj, other)


def test_min_gap_single_step_closed_form():
    # H_u == 2 everywhere, one unit step: minimizer -1 and gap exactly -2
    spec = linear_gap_instance(slope=2.0)
    grid = make_time_grid(1.0, 1)
    u = constant_control([0.0], grid, spec.control_set)
    noise = sample_noise(grid, 500, seed=1)
    fwd, bwd, adj = run_pipeline(spec, u, noise)
    result = min_gap_over_A(adj)
    assert np.all(result.minimizer.values == -1.0)
    assert result.gap == -2.0


def test_min_gap_never_positive(lq_spec):
    rng = np.random.default_rng(2)
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 3000, seed=3)
    for _ in range(5):
        u = make_control(rng.uniform(-1, 1, (8, 1)), grid, lq_spec.control_set)
        fwd, bwd, adj = run_pipeline(lq_spec, u, noise)
        result = min_gap_over_A(adj)
        assert result.gap <= 1e-12


def test_min_gap_names_the_first_non_finite_step():
    # rho * H_u is NaN at step 2 and infinite at step 3; the sweep meets
    # step 3 first and still names step 2
    base = linear_gap_instance(slope=2.0)

    def l_du(t, x, y, z1, z2, u):
        value = np.inf if t >= 0.75 else np.nan if t >= 0.5 else 2.0
        return np.full((x.shape[0], 1), value)

    spec = dataclasses.replace(base, running_l=dataclasses.replace(base.running_l, du=l_du))
    grid = make_time_grid(1.0, 4)
    bwd = _bundle(spec, constant_control([0.0], grid, spec.control_set), 200, 1)
    for solver in (solve_adjoint, adjoint_trajectories):
        with pytest.raises(FbsdeError, match="non-finite mean rho \\* H_u at step 2$"):
            solver(spec, bwd)


FOLD_CASES = {
    "lq1": lambda: builtin_instance("lq", dim=1),
    "lq2": lambda: builtin_instance("lq", dim=2),
    "lq3": lambda: builtin_instance("lq", dim=3),
    "lq_obs": lambda: builtin_instance("lq_obs"),
    "scalar_nonlinear": lambda: builtin_instance("scalar_nonlinear"),
    "double_well": lambda: builtin_instance("double_well"),
}


@pytest.mark.parametrize("tree", [False, True], ids=["lsmc", "binomial_tree"])
@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_folded_gap_equals_the_gap_of_the_kept_trajectories(name, tree):
    # solve_adjoint folds each step as the sweep solves it and keeps no
    # rho * H_u; adjoint_trajectories keeps it, and necessary_gap re-adds it
    # in the sweep's step order: the same bits either way
    spec = FOLD_CASES[name]()
    grid = make_time_grid(spec.horizon, 4 if tree else 16)
    values = np.random.default_rng(12).uniform(-0.5, 0.5, (grid.steps, spec.dim_u))
    u = make_control(values, grid, spec.control_set, project=True)
    bwd = enumerate_lattice(spec, u, grid).backward if tree else _bundle(spec, u, 3000, 13)
    grad, adj = solve_adjoint(spec, bwd), adjoint_trajectories(spec, bwd)
    result, kept = min_gap_over_A(grad), min_gap_over_A(adj)
    assert result.gap < 0.0
    hexed = [float(v).hex() for v in (result.gap, result.stderr)]
    assert [float(v).hex() for v in (kept.gap, kept.stderr)] == hexed
    assert [float(v).hex() for v in necessary_gap(adj, result.minimizer)] == hexed
    assert result.minimizer.values.tobytes() == kept.minimizer.values.tobytes()
    assert grad.means.tobytes() == adj.means.tobytes()
    assert grad.per_path_gap.tobytes() == adj.per_path_gap.tobytes()
    for i in range(grid.steps):
        assert np.array_equal(grad.means[i], adj.weighted[i].mean(axis=0))


def test_min_gap_noise_floor_at_optimum(lq_spec, lq_params, lq_riccati):
    grid = make_time_grid(1.0, 16)
    u_star = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    noise = sample_noise(grid, 20_000, seed=4)
    fwd, bwd, adj = run_pipeline(lq_spec, u_star, noise)
    result = min_gap_over_A(adj)
    assert result.gap >= -3.0 * result.stderr - 1e-4


def test_gap_at_optimum_against_random_candidates(lq_spec, lq_params, lq_riccati):
    grid = make_time_grid(1.0, 16)
    u_star = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    noise = sample_noise(grid, 20_000, seed=5)
    fwd, bwd, adj = run_pipeline(lq_spec, u_star, noise)
    rng = np.random.default_rng(6)
    for _ in range(50):
        cand = make_control(rng.uniform(-1, 1, (16, 1)), grid, lq_spec.control_set)
        gap, stderr = necessary_gap(adj, cand)
        assert gap >= -3.0 * stderr - 1e-4


def test_certify_necessary_at_optimum(lq_spec, lq_params, lq_riccati):
    grid = make_time_grid(1.0, 16)
    u_star = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    cert = certify_necessary(lq_spec, _bundle(lq_spec, u_star, 20_000, 7), epsilon=0.0, C=1.0)
    assert cert.verdict == "necessary-holds"
    assert cert.gap >= -3.0 * cert.gap_stderr - 1e-4


def test_certify_necessary_flags_adversarial_claim(lq_spec):
    grid = make_time_grid(1.0, 16)
    far = constant_control([0.9], grid, lq_spec.control_set)
    cert = certify_necessary(lq_spec, _bundle(lq_spec, far, 5000, 8), epsilon=1e-8, C=1.0)
    assert cert.verdict == "necessary-violated"


def test_certify_necessary_validates_inputs(lq_spec):
    grid = make_time_grid(1.0, 4)
    u = constant_control([0.0], grid, lq_spec.control_set)
    bwd = _bundle(lq_spec, u, 100_000, 0)
    with pytest.raises(FbsdeError):
        certify_necessary(lq_spec, bwd, epsilon=-1.0, C=1.0)
    with pytest.raises(FbsdeError):
        certify_necessary(lq_spec, bwd, epsilon=0.1, C=0.0)


def test_each_result_holds_what_it_was_computed_from(lq_spec):
    # the certificates and the gap read their bundle, seed and base control
    # from the results themselves, with no argument to contradict them
    grid = make_time_grid(1.0, 16)
    u = constant_control([-0.2], grid, lq_spec.control_set)
    fwd = simulate_forward(lq_spec, u, sample_noise(grid, 3000, seed=5))
    bwd = solve_backward(lq_spec, fwd)
    grad = solve_adjoint(lq_spec, bwd)
    assert bwd.forward is fwd
    assert grad.control is fwd.control
    result = min_gap_over_A(grad)
    full = adjoint_trajectories(lq_spec, bwd)
    assert (result.gap, result.stderr) == necessary_gap(full, result.minimizer)
    for cert in (
        certify_necessary(lq_spec, bwd, epsilon=0.01, C=1.0),
        certify_sufficient(lq_spec, bwd, epsilon=0.01, lambda_exp=0.5, C=1.0),
    ):
        assert cert.provenance["n_paths"] == 3000
        assert cert.provenance["seed"] == 5
        assert cert.gap == result.gap


def test_sufficient_verdict_on_the_unseeded_binomial_bundle_is_reproducible():
    spec = builtin_instance("double_well")
    grid = make_time_grid(1.0, 4)
    u = constant_control([0.0], grid, spec.control_set)
    bwd = solve_backward(spec, simulate_forward(spec, u, enumerate_binomial(grid)))
    first, second = (
        certify_sufficient(spec, bwd, epsilon=0.1, lambda_exp=0.5, C=10.0) for _ in range(2)
    )
    assert first.provenance["convexity"] == second.provenance["convexity"]
    assert first.provenance["convexity"]["witness"] is not None


def test_certificate_json_roundtrip(lq_spec):
    grid = make_time_grid(1.0, 4)
    u = constant_control([0.0], grid, lq_spec.control_set)
    cert = certify_necessary(lq_spec, _bundle(lq_spec, u, 1000, 9), epsilon=0.5, C=5.0)
    payload = json.loads(json.dumps(cert.to_dict()))
    assert payload["verdict"] in ("necessary-holds", "necessary-violated")
    assert payload["provenance"]["instance"] == "lq"


def test_certify_sufficient_requires_control_free_observation():
    spec = builtin_instance("scalar_nonlinear")
    grid = make_time_grid(1.0, 4)
    u = constant_control([0.1], grid, spec.control_set)
    with pytest.raises(PreconditionError, match="observation drift"):
        certify_sufficient(spec, _bundle(spec, u, 500, 0), epsilon=0.1, lambda_exp=0.5, C=1.0)


def test_certify_sufficient_on_convex_lq(lq_spec, lq_params, lq_riccati):
    grid = make_time_grid(1.0, 16)
    u_star = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    cert = certify_sufficient(
        lq_spec, _bundle(lq_spec, u_star, 20_000, 10), epsilon=1e-4, lambda_exp=0.5, C=2.0
    )
    assert cert.verdict == "sufficient-near-optimal"


def test_certify_sufficient_inconclusive_on_double_well():
    spec = builtin_instance("double_well")
    grid = make_time_grid(1.0, 8)
    u = constant_control([0.0], grid, spec.control_set)
    cert = certify_sufficient(
        spec, _bundle(spec, u, 2000, 11), epsilon=0.1, lambda_exp=0.5, C=10.0
    )
    assert cert.verdict == "inconclusive"
    assert cert.provenance["convexity"]["witness"] is not None


def test_cost_difference_zero_for_identical_controls(lq_spec):
    grid = make_time_grid(1.0, 8)
    u = constant_control([0.3], grid, lq_spec.control_set)
    noise = sample_noise(grid, 2000, seed=12)
    rep = cost_difference_representation(lq_spec, u, u, noise)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0


def test_cost_difference_identity_on_random_pairs(lq_spec):
    grid = make_time_grid(1.0, 16)
    noise = sample_noise(grid, 5000, seed=13)
    rng = np.random.default_rng(14)
    for _ in range(5):
        u = make_control(rng.uniform(-1, 1, (16, 1)), grid, lq_spec.control_set)
        u_eps = make_control(rng.uniform(-1, 1, (16, 1)), grid, lq_spec.control_set)
        rep = cost_difference_representation(lq_spec, u, u_eps, noise)
        slack = 3.0 * max(rep.diff_stderr, 1e-12)
        assert abs(rep.lhs - rep.rhs) <= slack


def test_cost_difference_dominates_gap_on_convex_instance(lq_spec):
    # convexity chain: the cost difference is bounded below by the
    # first-order gap term against the candidate
    grid = make_time_grid(1.0, 16)
    noise = sample_noise(grid, 5000, seed=15)
    rng = np.random.default_rng(16)
    for _ in range(5):
        u = make_control(rng.uniform(-1, 1, (16, 1)), grid, lq_spec.control_set)
        u_eps = make_control(rng.uniform(-1, 1, (16, 1)), grid, lq_spec.control_set)
        rep = cost_difference_representation(lq_spec, u, u_eps, noise)
        fwd, bwd, adj = run_pipeline(lq_spec, u_eps, noise)
        gap, stderr = necessary_gap(adj, u)
        assert rep.rhs >= gap - 3.0 * math.hypot(rep.rhs_stderr, stderr)


def test_cost_difference_requires_structure():
    spec = builtin_instance("scalar_nonlinear")
    grid = make_time_grid(1.0, 4)
    u = constant_control([0.1], grid, spec.control_set)
    noise = sample_noise(grid, 500, seed=17)
    with pytest.raises(PreconditionError):
        cost_difference_representation(spec, u, u, noise)


def test_estimate_order_exact_sqrt_line():
    eps = np.array([1e-4, 1e-3, 1e-2, 1e-1])
    slope, constant = estimate_order([(e, -math.sqrt(e)) for e in eps])
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert constant == pytest.approx(1.0, rel=1e-12)


def test_estimate_order_exact_linear():
    eps = np.array([1e-3, 1e-2, 1e-1])
    slope, constant = estimate_order([(e, -3.0 * e) for e in eps])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert constant == pytest.approx(3.0, rel=1e-12)


def test_estimate_order_filters_unusable_points():
    points = [(1e-3, -1e-2), (1e-2, 0.5), (0.0, -1e-1), (1e-1, -1e-1)]
    with pytest.raises(FbsdeError, match="3 usable"):
        estimate_order(points)
