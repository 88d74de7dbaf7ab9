"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failures surface the line in the assertion message regardless).
"""

import math
import time

import numpy as np
import pytest

from fbsde_nearopt import (
    BasisSpec,
    DescentParams,
    MultiplierPoint,
    builtin_instance,
    certify_sufficient,
    constant_control,
    control_distance,
    cost_difference_representation,
    enumerate_binomial,
    enumerate_lattice,
    estimate_order,
    eval_H,
    eval_H_partials,
    evaluate_cost_strong,
    evaluate_cost_weak,
    make_control,
    make_time_grid,
    min_gap_over_A,
    order_study,
    riccati_open_loop_control,
    run_pipeline,
    sample_noise,
    simulate_forward,
    smp_descent,
    solve_backward,
)
from fbsde_nearopt.hamiltonian import shifted_slot

from _instances import linear_bsde_instance

MODULE_START = time.time()


def report(criterion: int | str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared pipelines


@pytest.fixture(scope="module")
def girsanov_run():
    spec = builtin_instance("lq_obs")
    grid = make_time_grid(1.0, 64)
    u = constant_control([-0.2], grid, spec.control_set)
    start = time.time()
    noise = sample_noise(grid, 100_000, seed=101)
    fwd = simulate_forward(spec, u, noise)
    bwd = solve_backward(spec, fwd)
    strong = evaluate_cost_strong(spec, bwd)
    weak = evaluate_cost_weak(spec, u, seed=102, n_paths=100_000, grid=grid)
    elapsed = time.time() - start
    rho_terminal = fwd.rho[-1].copy()
    return strong, weak, rho_terminal, elapsed


@pytest.fixture(scope="module")
def lq_descent(lq_spec):
    grid = make_time_grid(1.0, 64)
    u0 = constant_control([0.0], grid, lq_spec.control_set)
    params = DescentParams(max_iter=100, n_paths=100_000, seed=103, tol_gap=1e-3)
    return smp_descent(lq_spec, u0, params)


@pytest.fixture(scope="module", name="order_study")
def order_study_members(lq_spec, lq_params, lq_riccati):
    grid = make_time_grid(1.0, 32)
    u_star = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    direction = constant_control([1.0], grid, lq_spec.control_set)
    deltas = [0.03, 0.05, 0.08, 0.13, 0.21, 0.35]
    noise = sample_noise(grid, 20_000, seed=104)
    members = [
        (control, epsilon, gap.gap, gap.stderr)
        for _, control, epsilon, gap in order_study(
            lq_spec, u_star, deltas, direction, lq_riccati.optimal_cost, noise, BasisSpec()
        )
    ]
    exponent, constant = estimate_order([(eps, gap) for _, eps, gap, _ in members])
    return members, exponent, constant


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_girsanov_consistency(girsanov_run):
    strong, weak, _, elapsed = girsanov_run
    combined = math.hypot(strong.stderr, weak.stderr)
    diff = abs(strong.value - weak.value)
    ok = diff <= 3.0 * combined and elapsed <= 60.0
    report(
        1,
        ok,
        f"|J_weak - J_strong| = {diff:.2e} <= 3*{combined:.2e} "
        f"(N=64, 1e5 paths, h=0.5) in {elapsed:.1f}s",
    )


def test_criterion_2_lattice_equivalence():
    start = time.time()
    worst = 0.0
    for name in ("lq", "lq_obs", "scalar_nonlinear", "double_well"):
        spec = builtin_instance(name)
        for steps in ((4, 5) if name == "lq" else (4,)):
            grid = make_time_grid(1.0, steps)
            u = constant_control([0.2], grid, spec.control_set)
            lattice = enumerate_lattice(spec, u, grid)
            bundle = enumerate_binomial(grid)
            fwd = simulate_forward(spec, u, bundle)
            bwd = solve_backward(spec, fwd, BasisSpec(degree=1))
            mc = evaluate_cost_strong(spec, bwd)
            worst = max(worst, abs(mc.value - lattice.cost))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed <= 10.0
    report(2, ok, f"max |J_mc - J_lattice| = {worst:.2e} over builtins in {elapsed:.1f}s")


def test_criterion_3_bsde_accuracy():
    beta = 2.0
    spec = linear_bsde_instance(beta=beta)

    def rel_error(steps):
        grid = make_time_grid(1.0, steps)
        noise = sample_noise(grid, 100_000, seed=105)
        u = constant_control([0.0], grid, spec.control_set)
        fwd = simulate_forward(spec, u, noise)
        bwd = solve_backward(spec, fwd, BasisSpec(degree=2))
        exact = np.exp(-beta * (1.0 - grid.times))[:, None, None] * fwd.x
        return float(
            np.sqrt(np.mean((bwd.y - exact) ** 2)) / np.sqrt(np.mean(exact**2))
        )

    err_coarse = rel_error(64)
    err_base = rel_error(128)
    ratio = err_coarse / err_base
    ok = err_base <= 0.05 and ratio >= 1.5
    report(
        3,
        ok,
        f"linear-driver y error {err_base:.4f} at N=128 (<= 5%), "
        f"doubling N from 64 shrinks it by {ratio:.2f}x (>= 1.5)",
    )


def test_criterion_4_adjoint_accuracy(lq_spec, lq_params, lq_riccati):
    grid = make_time_grid(1.0, 128)
    u = riccati_open_loop_control(lq_riccati, lq_params, grid, lq_spec.control_set)
    noise = sample_noise(grid, 100_000, seed=106)
    fwd, bwd, adj = run_pipeline(lq_spec, u, noise)
    p_ref = lq_riccati.P_at(grid.times)[:, None, :] * fwd.x
    rel = float(np.sqrt(np.mean((adj.p - p_ref) ** 2)) / np.sqrt(np.mean(p_ref**2)))
    ok = rel <= 0.05
    report(4, ok, f"adjoint p vs Riccati P(t)x relative error {rel:.4f} (<= 5%)")


def test_criterion_5_optimizer(lq_descent, lq_riccati):
    trace = lq_descent
    rel = abs(trace.final_cost - lq_riccati.optimal_cost) / lq_riccati.optimal_cost
    iterations = len(trace.rows) - 1
    monotone = all(
        nxt.cost <= prev.cost + 3.0 * math.hypot(nxt.cost_stderr, prev.cost_stderr)
        for prev, nxt in zip(trace.rows, trace.rows[1:])
    )
    ok = rel <= 0.01 and iterations <= 100 and monotone
    report(
        5,
        ok,
        f"final cost {trace.final_cost:.6f} vs oracle {lq_riccati.optimal_cost:.6f} "
        f"({100 * rel:.3f}% <= 1%) in {iterations} iterations, monotone={monotone}",
    )


def test_criterion_6_necessary_order(order_study):
    members, exponent, constant = order_study
    eps_values = [eps for _, eps, _, _ in members]
    decades = math.log10(max(eps_values) / min(eps_values))
    all_certified = all(
        gap >= -constant * math.sqrt(eps) - 3.0 * stderr
        for _, eps, gap, stderr in members
    )
    ok = decades >= 2.0 and exponent >= 0.4 and all_certified
    report(
        6,
        ok,
        f"epsilon spans {decades:.2f} decades, fitted exponent {exponent:.3f} (>= 0.4), "
        f"fitted C {constant:.3f} certifies all {len(members)} members: {all_certified}",
    )


def test_criterion_7_sufficient_verdicts(lq_spec, lq_params, lq_riccati, order_study):
    members, _, constant = order_study
    control, epsilon, _, _ = members[1]  # delta = 0.05 member
    noise = sample_noise(control.grid, 20_000, seed=107)
    cert = certify_sufficient(
        lq_spec, solve_backward(lq_spec, simulate_forward(lq_spec, control, noise)),
        epsilon, lambda_exp=0.5, C=constant,
    )
    bound_holds = epsilon <= constant * epsilon**0.5

    dw = builtin_instance("double_well")
    grid = make_time_grid(1.0, 16)
    u = constant_control([0.0], grid, dw.control_set)
    dw_noise = sample_noise(grid, 4000, seed=108)
    dw_cert = certify_sufficient(
        dw, solve_backward(dw, simulate_forward(dw, u, dw_noise)),
        epsilon=0.1, lambda_exp=0.5, C=constant,
    )
    witness = dw_cert.provenance["convexity"]["witness"]
    ok = (
        cert.verdict == "sufficient-near-optimal"
        and bound_holds
        and dw_cert.verdict == "inconclusive"
        and witness is not None
    )
    report(
        7,
        ok,
        f"convex LQ verdict {cert.verdict}, J - J_oracle = {epsilon:.2e} <= "
        f"C eps^0.5 = {constant * epsilon**0.5:.2e}; double-well verdict "
        f"{dw_cert.verdict} with witness eigenvalue "
        f"{dw_cert.provenance['convexity']['worst_eigenvalue']:.3f}",
    )


def test_criterion_8_cost_difference_identity(lq_spec):
    grid = make_time_grid(1.0, 32)
    noise = sample_noise(grid, 5000, seed=109)
    rng = np.random.default_rng(110)
    passes = 0
    worst_z = 0.0
    for _ in range(20):
        u = make_control(rng.uniform(-1, 1, (32, 1)), grid, lq_spec.control_set)
        u_eps = make_control(rng.uniform(-1, 1, (32, 1)), grid, lq_spec.control_set)
        rep = cost_difference_representation(lq_spec, u, u_eps, noise)
        slack = 3.0 * max(rep.diff_stderr, 1e-14)
        z = abs(rep.lhs - rep.rhs) / max(rep.diff_stderr, 1e-14)
        worst_z = max(worst_z, z)
        passes += abs(rep.lhs - rep.rhs) <= slack
    ok = passes >= 18
    report(8, ok, f"{passes}/20 pairs within 3 stderr (worst z = {worst_z:.2f})")


def test_criterion_9_invariant_suites(girsanov_run, lq_spec):
    details = []

    # terminal / initial pinning, exact per path
    spec = builtin_instance("lq_obs")
    grid = make_time_grid(1.0, 8)
    noise = sample_noise(grid, 2000, seed=111)
    u = constant_control([0.1], grid, spec.control_set)
    fwd, bwd, adj = run_pipeline(spec, u, noise)
    pin = (
        np.array_equal(bwd.y[-1], fwd.x[-1])
        and np.array_equal(adj.r[-1], np.asarray(spec.terminal_Phi.value(fwd.x[-1])))
        and np.array_equal(adj.k[0], -np.asarray(spec.initial_gamma.dy(bwd.y[0])))
    )
    p_expected = np.asarray(spec.terminal_Phi.dx(fwd.x[-1])) - np.einsum(
        "pij,pi->pj", np.asarray(spec.terminal_phi.dx(fwd.x[-1])), adj.k[-1]
    )
    pin = pin and np.allclose(adj.p[-1], p_expected, atol=1e-13)
    details.append(f"pinning exact={pin}")

    # density martingale at 1e5 paths
    _, _, rho_terminal, _ = girsanov_run
    se = float(np.std(rho_terminal, ddof=1) / math.sqrt(rho_terminal.shape[0]))
    martingale = abs(float(rho_terminal.mean()) - 1.0) <= 3.0 * se
    details.append(f"rho martingale within 3se={martingale}")

    # minimal gap never positive
    rng = np.random.default_rng(112)
    gap_ok = True
    for name in ("lq", "lq_obs", "scalar_nonlinear", "double_well"):
        ispec = builtin_instance(name)
        g8 = make_time_grid(1.0, 8)
        n8 = sample_noise(g8, 2000, seed=113)
        for _ in range(3):
            vals = ispec.control_set.sample(rng, 8)
            ctrl = make_control(vals, g8, ispec.control_set)
            f8, b8, a8 = run_pipeline(ispec, ctrl, n8)
            gap_ok &= min_gap_over_A(a8).gap <= 1e-12
    details.append(f"min_gap <= 0 always={gap_ok}")

    # Hamiltonian partials against central differences at 100 points
    fd_ok = True
    step = 1e-5
    ispec = builtin_instance("scalar_nonlinear")
    rng = np.random.default_rng(114)
    for _ in range(100):
        x = rng.normal(size=(1, 1))
        y, z1, z2 = rng.normal(size=(3, 1, 1))
        uu = ispec.control_set.sample(rng, 1)[0]
        t = float(rng.uniform(0, 1))
        mult = MultiplierPoint.single(
            k=rng.normal(size=1), p=rng.normal(size=1),
            q1=rng.normal(size=1), q2=rng.normal(size=1), R2=rng.normal(),
        )
        slot = shifted_slot(ispec, t, x, uu, z2, mult)
        frozen = MultiplierPoint(k=mult.k, p=mult.p, q1=mult.q1, q2=mult.q2, R2=slot)
        parts = eval_H_partials(ispec, t, x, y, z1, z2, uu, mult)
        for name, arr, col in (("x", x, 0), ("u", None, 0)):
            if name == "x":
                up, dn = x.copy(), x.copy()
                up[0, 0] += step
                dn[0, 0] -= step
                fd = (
                    eval_H(ispec, t, up, y, z1, z2, uu, frozen)[0]
                    - eval_H(ispec, t, dn, y, z1, z2, uu, frozen)[0]
                ) / (2 * step)
                exact = parts.dx[0, 0]
            else:
                up, dn = uu.copy(), uu.copy()
                up[0] += step
                dn[0] -= step
                fd = (
                    eval_H(ispec, t, x, y, z1, z2, up, frozen)[0]
                    - eval_H(ispec, t, x, y, z1, z2, dn, frozen)[0]
                ) / (2 * step)
                exact = parts.du[0, 0]
            fd_ok &= abs(exact - fd) <= 1e-5 * (1.0 + abs(exact))
    details.append(f"H partials vs FD at 100 pts={fd_ok}")

    # metric axioms
    g6 = make_time_grid(1.0, 6)
    cs = lq_spec.control_set
    metric_ok = True
    rng = np.random.default_rng(115)
    for _ in range(100):
        a, b, c = (make_control(rng.uniform(-1, 1, (6, 1)), g6, cs) for _ in range(3))
        metric_ok &= control_distance(a, b) == control_distance(b, a)
        metric_ok &= control_distance(a, a) == 0.0
        metric_ok &= (
            control_distance(a, b)
            <= control_distance(a, c) + control_distance(c, b) + 1e-12
        )
    details.append(f"metric axioms={metric_ok}")

    ok = pin and martingale and gap_ok and fd_ok and metric_ok
    report(9, ok, "; ".join(details))


def test_criterion_10_stability_constant(lq_spec):
    grid = make_time_grid(1.0, 16)
    rng = np.random.default_rng(116)
    pairs = [
        (
            make_control(rng.uniform(-1, 1, (16, 1)), grid, lq_spec.control_set),
            make_control(rng.uniform(-1, 1, (16, 1)), grid, lq_spec.control_set),
        )
        for _ in range(20)
    ]
    dt = grid.dt

    def sup_sq(d):
        return float(np.mean(np.max(np.sum(d * d, axis=2), axis=0)))

    def int_sq(d):
        return float(np.mean(np.sum(np.sum(d * d, axis=2), axis=0) * dt))

    fitted = []
    for seed in range(5):
        noise = sample_noise(grid, 2000, seed=117 + seed)
        worst = 0.0
        for ua, ub in pairs:
            fa, ba, aa = run_pipeline(lq_spec, ua, noise)
            fb, bb, ab = run_pipeline(lq_spec, ub, noise)
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
            worst = max(worst, (theta + lam + r2) / control_distance(ua, ub) ** 2)
        fitted.append(worst)
    spread = max(fitted) / min(fitted)
    ok = spread < 2.0 and all(np.isfinite(fitted))
    report(
        10,
        ok,
        f"fitted stability constant in [{min(fitted):.4f}, {max(fitted):.4f}], "
        f"spread {spread:.3f}x (< 2x) across 5 seeds, 20 pairs",
    )


def test_suite_runtime_budget():
    # runtime clause of the invariant-suite criterion, on a line of its own
    # so that each of criteria 1 to 10 prints exactly one line
    elapsed = time.time() - MODULE_START
    ok = elapsed <= 300.0
    report("runtime", ok, f"runtime clause: acceptance module took {elapsed:.0f}s (<= 300s)")
