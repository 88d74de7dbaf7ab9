"""Layout contract: every trajectory's per-step (P, d) slice is column-major,
and the Hamiltonian contractions keep that layout without moving a bit."""

import numpy as np
import pytest

from fbsde_nearopt import (
    LQParams,
    adjoint_trajectories,
    builtin_instance,
    constant_control,
    enumerate_lattice,
    make_lq_instance,
    make_lq_observation_instance,
    make_time_grid,
    sample_noise,
    simulate_forward,
    solve_backward,
)
from fbsde_nearopt.hamiltonian import ShiftedPartials, vjp


def _steps_column_major(a):
    return all(a[i].flags.f_contiguous for i in range(a.shape[0]))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["lq", "lq_obs"])
def test_every_trajectory_step_is_column_major(family, dim):
    params = LQParams(dim=dim, sigma=0.2, q=1.0)
    spec = make_lq_instance(params) if family == "lq" else make_lq_observation_instance(params)
    grid = make_time_grid(spec.horizon, 4)
    u = constant_control(np.full(dim, 0.2), grid, spec.control_set)
    fwd = simulate_forward(spec, u, sample_noise(grid, 400, 3))
    bwd = solve_backward(spec, fwd)
    adj = adjoint_trajectories(spec, bwd)
    lattice_grid = make_time_grid(spec.horizon, 3)
    lattice = enumerate_lattice(
        spec, constant_control(np.full(dim, 0.2), lattice_grid, spec.control_set), lattice_grid
    )
    arrays = {
        "x": fwd.x, "y": bwd.y, "z1": bwd.z1, "z2": bwd.z2,
        "k": adj.k, "p": adj.p, "q1": adj.q1, "q2": adj.q2,
        "lattice x": lattice.backward.forward.x,
    }
    for name, a in arrays.items():
        assert a.shape[2] == dim and _steps_column_major(a), name


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("cols", [1, 2, 3])
@pytest.mark.parametrize("shared_v", [False, True])
def test_vjp_shared_jacobian_is_column_major_and_bitwise_a_row_product(rows, cols, shared_v):
    rng = np.random.default_rng(rows * 10 + cols)
    P = 257
    J0 = rng.normal(size=(rows, cols))
    np.fill_diagonal(J0, 0.0)  # exact zeros meet negative v entries: signed zeros must agree
    J = np.broadcast_to(J0, (P, rows, cols))
    v = rng.normal(size=(1, rows)) if shared_v else np.asfortranarray(rng.normal(size=(P, rows)))
    got = vjp(v, J)
    want = np.dot(np.ascontiguousarray(np.broadcast_to(v, (P, rows))), J[0])
    assert got.shape == (P, cols) and got.flags.f_contiguous
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["lq2", "lq_obs", "scalar_nonlinear", "double_well"])
def test_shifted_partials_are_layout_independent_and_column_major(name):
    spec = make_lq_instance(LQParams(dim=2)) if name == "lq2" else builtin_instance(name)
    rng = np.random.default_rng(4)
    P, n, m = 500, spec.dim_x, spec.dim_y
    t = 0.4
    u = spec.control_set.sample(rng, 1)[0]
    F = {
        "x": rng.normal(size=(P, n)), "y": rng.normal(size=(P, m)),
        "z1": rng.normal(size=(P, m)), "z2": rng.normal(size=(P, m)),
        "k": rng.normal(size=(P, m)), "q1": rng.normal(size=(P, n)),
        "q2": rng.normal(size=(P, n)), "p": rng.normal(size=(P, n)),
    }
    F = {key: np.asfortranarray(a) for key, a in F.items()}
    C = {key: np.ascontiguousarray(a) for key, a in F.items()}
    R2 = rng.normal(size=P)
    results = []
    for args in (F, C):
        partials = ShiftedPartials(
            spec, t, args["x"], args["y"], args["z1"], args["z2"], u,
            args["k"], args["q1"], args["q2"],
        )
        results.append((
            partials.slot(args["p"], R2), partials.h_x(args["p"], R2), partials.h_u(args["p"], R2)
        ))
    (slot_f, hx_f, hu_f), (slot_c, hx_c, hu_c) = results
    for got, want in ((slot_f, slot_c), (hx_f, hx_c), (hu_f, hu_c)):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    assert hx_f.shape == (P, n) and hx_f.flags.f_contiguous
    assert hu_f.shape == (P, spec.dim_u) and hu_f.flags.f_contiguous
