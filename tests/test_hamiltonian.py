import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_nearopt import (
    FbsdeError,
    LQParams,
    MultiplierPoint,
    builtin_instance,
    check_H_convexity,
    eval_H,
    eval_H_partials,
    make_lq_instance,
    make_lq_observation_instance,
    make_scalar_nonlinear_instance,
)
from fbsde_nearopt import hamiltonian as ham
from fbsde_nearopt.hamiltonian import ShiftedPartials, shifted_slot, vjp
from fbsde_nearopt.model import Coefficient

from _instances import concave_control_cost_instance


def _point(spec, rng, n_pts=1):
    n, m = spec.dim_x, spec.dim_y
    return dict(
        t=float(rng.uniform(0, spec.horizon)),
        x=rng.normal(size=(n_pts, n)),
        y=rng.normal(size=(n_pts, m)),
        z1=rng.normal(size=(n_pts, m)),
        z2=rng.normal(size=(n_pts, m)),
        u=spec.control_set.sample(rng, 1)[0],
    )


def _random_mult(spec, rng):
    n, m = spec.dim_x, spec.dim_y
    return MultiplierPoint.single(
        k=rng.normal(size=m),
        p=rng.normal(size=n),
        q1=rng.normal(size=n),
        q2=rng.normal(size=n),
        R2=rng.normal(),
    )


def _scaled(mult, factor):
    return MultiplierPoint(**{name: factor * v for name, v in vars(mult).items()})


def test_zero_multipliers_reduce_to_running_cost():
    spec = make_scalar_nonlinear_instance()
    rng = np.random.default_rng(0)
    pt = _point(spec, rng, n_pts=7)
    zero = MultiplierPoint.single(k=[0.0], p=[0.0], q1=[0.0], q2=[0.0], R2=0.0)
    h_val = eval_H(spec, pt["t"], pt["x"], pt["y"], pt["z1"], pt["z2"], pt["u"], zero)
    l_val = spec.running_l.value(pt["t"], pt["x"], pt["y"], pt["z1"], pt["z2"], pt["u"])
    assert np.allclose(h_val, l_val, atol=0.0)


def test_single_pairing():
    # b == 1, everything else zero, p = 2 -> H = 2
    spec = make_lq_instance(LQParams(a=0.0, b_coef=0.0, sigma=0.0, q=0.0, r=1.0, g=0.0))
    one_drift = Coefficient(
        value=lambda t, x, u: np.ones_like(x),
        dx=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
        du=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
    )
    spec = dataclasses.replace(spec, drift_b=one_drift)
    mult = MultiplierPoint.single(k=[0.0], p=[2.0], q1=[0.0], q2=[0.0], R2=0.0)
    val = eval_H(
        spec, 0.0, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
        np.zeros((1, 1)), np.zeros(1), mult,
    )
    assert val[0] == 2.0


def test_affinity_in_multipliers():
    spec = make_lq_observation_instance()
    rng = np.random.default_rng(1)
    pt = _point(spec, rng)
    mult = _random_mult(spec, rng)
    zero = _scaled(mult, 0.0)
    args = (spec, pt["t"], pt["x"], pt["y"], pt["z1"], pt["z2"], pt["u"])
    base = eval_H(*args, zero)[0]
    ref = eval_H(*args, mult)[0] - base
    for lam in (-1.0, 0.5, 2.0):
        scaled = eval_H(*args, _scaled(mult, lam))[0] - base
        assert scaled == pytest.approx(lam * ref, rel=1e-12, abs=1e-12)


def test_shift_vanishes_without_sigma2_and_z2(lq_spec):
    rng = np.random.default_rng(2)
    pt = _point(lq_spec, rng)
    mult = _random_mult(lq_spec, rng)
    pt["z2"] = np.zeros_like(pt["z2"])
    slot = shifted_slot(lq_spec, pt["t"], pt["x"], pt["u"], pt["z2"], mult)
    assert slot[0] == mult.R2[0]


def test_lq_control_gradient_formula(lq_spec, lq_params):
    rng = np.random.default_rng(3)
    pt = _point(lq_spec, rng)
    mult = _random_mult(lq_spec, rng)
    parts = eval_H_partials(
        lq_spec, pt["t"], pt["x"], pt["y"], pt["z1"], pt["z2"], pt["u"], mult
    )
    expected = lq_params.r * pt["u"][0] + lq_params.b_coef * mult.p[0, 0]
    assert parts.du[0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", ["lq", "lq_obs", "scalar_nonlinear", "double_well"])
def test_partials_match_finite_differences(name):
    spec = builtin_instance(name)
    rng = np.random.default_rng(4)
    step = 1e-5
    for _ in range(100):
        pt = _point(spec, rng)
        mult = _random_mult(spec, rng)
        slot = shifted_slot(spec, pt["t"], pt["x"], pt["u"], pt["z2"], mult)
        frozen = MultiplierPoint(k=mult.k, p=mult.p, q1=mult.q1, q2=mult.q2, R2=slot)
        parts = eval_H_partials(
            spec, pt["t"], pt["x"], pt["y"], pt["z1"], pt["z2"], pt["u"], mult
        )
        for slot_name, attr in (("x", "dx"), ("y", "dy"), ("z1", "dz1"), ("z2", "dz2"), ("u", "du")):
            width = pt[slot_name].shape[-1]
            for col in range(width):
                args_up = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in pt.items()}
                args_dn = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in pt.items()}
                if slot_name == "u":
                    args_up["u"][col] += step
                    args_dn["u"][col] -= step
                else:
                    args_up[slot_name][0, col] += step
                    args_dn[slot_name][0, col] -= step
                f_up = eval_H(spec, args_up["t"], args_up["x"], args_up["y"],
                              args_up["z1"], args_up["z2"], args_up["u"], frozen)[0]
                f_dn = eval_H(spec, args_dn["t"], args_dn["x"], args_dn["y"],
                              args_dn["z1"], args_dn["z2"], args_dn["u"], frozen)[0]
                fd = (f_up - f_dn) / (2 * step)
                exact = getattr(parts, attr)[0, col]
                assert abs(exact - fd) <= 1e-5 * (1.0 + abs(exact)), (name, slot_name, col)


def test_convexity_passes_on_lq(lq_spec):
    report = check_H_convexity(lq_spec, n_probes=20, seed=5)
    assert report.passed
    assert report.worst_eigenvalue >= -1e-8


def test_convexity_flags_concave_control_cost():
    report = check_H_convexity(concave_control_cost_instance(), n_probes=30, seed=6)
    assert not report.hamiltonian_ok
    assert report.worst_eigenvalue == pytest.approx(-2.0, abs=1e-3)
    assert report.witness is not None


def test_convexity_flags_double_well():
    report = check_H_convexity(builtin_instance("double_well"), n_probes=40, seed=7)
    assert not report.passed
    assert report.witness is not None
    assert "u" in report.witness


def test_quadratic_terminal_midpoint_exact(lq_spec):
    report = check_H_convexity(lq_spec, n_probes=20, seed=8)
    assert report.phi_ok
    assert report.worst_phi_violation <= 1e-9
    assert report.gamma_ok


def test_convexity_report_json(lq_spec):
    report = check_H_convexity(lq_spec, n_probes=5, seed=9)
    assert json.loads(json.dumps(report.to_dict()))["passed"] is True


def _point_by_point_fd_hessian(fn, v, step=1e-4):
    """The probe's stencil evaluated one point at a time, pair by pair."""
    def at(w):
        return fn(w[None, :])[0]

    dim = v.shape[0]
    hess = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            vpp = v.copy(); vpp[i] += step; vpp[j] += step
            vpm = v.copy(); vpm[i] += step; vpm[j] -= step
            vmp = v.copy(); vmp[i] -= step; vmp[j] += step
            vmm = v.copy(); vmm[i] -= step; vmm[j] -= step
            hess[i, j] = hess[j, i] = (at(vpp) - at(vpm) - at(vmp) + at(vmm)) / (
                4.0 * step * step
            )
    return hess


@pytest.mark.parametrize("name", ["lq2", "lq_obs", "scalar_nonlinear", "double_well", "concave"])
def test_convexity_report_bitwise_equal_to_point_by_point_stencil(name, monkeypatch):
    """The whole stencil in one call per control value reports the bits of
    one eval_H call per stencil point."""
    if name == "concave":
        spec = concave_control_cost_instance()
    else:
        spec = make_lq_instance(LQParams(dim=2)) if name == "lq2" else builtin_instance(name)
    for seed in (0, 5):
        batched = check_H_convexity(spec, n_probes=8, seed=seed).to_dict()
        with monkeypatch.context() as patch:
            patch.setattr(ham, "_fd_hessian", _point_by_point_fd_hessian)
            reference = check_H_convexity(spec, n_probes=8, seed=seed).to_dict()
        assert json.dumps(batched) == json.dumps(reference)


def test_probe_count_validated(lq_spec):
    with pytest.raises(FbsdeError):
        check_H_convexity(lq_spec, n_probes=0)


def test_non_finite_coefficient_detected(lq_spec):
    bad = dataclasses.replace(
        lq_spec,
        drift_b=Coefficient(
            value=lambda t, x, u: np.full_like(x, np.nan),
            dx=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
            du=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
        ),
    )
    mult = MultiplierPoint.single(k=[0.0], p=[1.0], q1=[0.0], q2=[0.0], R2=0.0)
    with pytest.raises(FbsdeError, match="drift_b"):
        eval_H(bad, 0.0, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
               np.zeros((1, 1)), np.zeros(1), mult)


# ---------------------------------------------------------------------------
# the per-step evaluator against a fresh evaluation of the same formula


def _reference_slot(spec, t, x, u, z2, k, p, R2):
    sigma2 = spec.diffusion_sigma2.value(t, x, u)
    return R2 - np.einsum("pi,pi->p", sigma2, p) - np.einsum("pi,pi->p", z2, k)


def _reference_gradient(spec, w, t, x, y, z1, z2, u, k, p, q1, q2, r2s):
    return (
        getattr(spec.running_l, w)(t, x, y, z1, z2, u)
        + vjp(p, getattr(spec.drift_b, w)(t, x, u))
        + vjp(q1, getattr(spec.diffusion_sigma1, w)(t, x, u))
        + vjp(q2, getattr(spec.diffusion_sigma2, w)(t, x, u))
        + vjp(k, getattr(spec.backward_f, w)(t, x, y, z1, z2, u))
        + r2s[:, None] * getattr(spec.observation_h, w)(t, x, u)
    )


@pytest.mark.parametrize(
    "name, n_paths, shared",
    [
        ("lq", 500, True),
        ("lq2", 1000, True),
        ("lq_obs", 1000, True),
        ("double_well", 1500, True),
        ("scalar_nonlinear", 2000, False),
    ],
)
def test_shifted_partials_bitwise_equal_to_reference(name, n_paths, shared):
    """Two corrector passes and then H_u on one evaluator, each bitwise
    equal to a fresh evaluation: a reordered sum fails on per-path Jacobians."""
    spec = make_lq_instance(LQParams(dim=2)) if name == "lq2" else builtin_instance(name)
    rng = np.random.default_rng(12)
    n, m = spec.dim_x, spec.dim_y
    t = 0.3
    x, q1, q2 = (rng.normal(size=(n_paths, n)) for _ in range(3))
    y, z1, z2, k = (rng.normal(size=(n_paths, m)) for _ in range(4))
    u = spec.control_set.sample(rng, 1)[0]
    R2 = rng.normal(size=n_paths)
    jacobians = [
        getattr(getattr(spec, c), w)(t, x, u)
        for c in ("drift_b", "diffusion_sigma1", "diffusion_sigma2")
        for w in ("dx", "du")
    ]
    assert all(J.strides[0] == 0 for J in jacobians) is shared

    partials = ShiftedPartials(spec, t, x, y, z1, z2, u, k, q1, q2)
    p = rng.normal(size=(n_paths, n))
    for w in ("dx", "dx", "du"):
        r2s = _reference_slot(spec, t, x, u, z2, k, p, R2)
        assert np.array_equal(partials.slot(p, R2), r2s)
        got = partials.h_x(p, R2) if w == "dx" else partials.h_u(p, R2)
        want = _reference_gradient(spec, w, t, x, y, z1, z2, u, k, p, q1, q2, r2s)
        assert np.array_equal(got, want), w
        p = p + 0.05 * got if w == "dx" else p


# ---------------------------------------------------------------------------
# per-path vector-Jacobian contraction


def _einsum_vjp(v, J):
    return np.einsum("pij,pi->pj", J, np.broadcast_to(v, J.shape[:2]))


@st.composite
def _vjp_case(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    P = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3)
    if draw(st.booleans()):
        J = scale * rng.normal(size=(P, rows, cols))
    else:
        J = np.broadcast_to(scale * rng.normal(size=(rows, cols)), (P, rows, cols))
    layout = draw(st.sampled_from(["contiguous", "strided", "fortran", "shared"]))
    if layout == "contiguous":
        v = rng.normal(size=(P, rows))
    elif layout == "strided":
        v = rng.normal(size=(2 * P, 2 * rows))[::2, 1::2]
    elif layout == "fortran":
        v = np.asfortranarray(rng.normal(size=(P, rows)))
    else:
        v = np.broadcast_to(rng.normal(size=rows), (P, rows))
    return v, J, P, rows, cols


@given(_vjp_case())
@settings(max_examples=200, deadline=None)
def test_vjp_matches_einsum(case):
    v, J, P, rows, cols = case
    got = vjp(v, J)
    want = _einsum_vjp(v, J)
    assert got.shape == (P, cols)
    # rtol 1e-13 of the sum of absolute products: cancellation-safe
    magnitude = _einsum_vjp(np.abs(v), np.abs(J))
    assert np.all(np.abs(got - want) <= 1e-13 * magnitude)


@given(
    st.integers(1, 3),
    st.integers(1, 50),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["contiguous", "strided"]),
)
@settings(max_examples=100, deadline=None)
def test_vjp_bitwise_on_shared_diagonal(n, P, seed, layout):
    rng = np.random.default_rng(seed)
    diag = rng.normal(size=n) * rng.integers(0, 2, size=n)  # some entries exactly 0
    J = np.broadcast_to(np.diag(diag), (P, n, n))
    v = rng.normal(size=(P, n)) if layout == "contiguous" else rng.normal(size=(P, 3 * n))[:, ::3]
    assert np.array_equal(vjp(v, J), _einsum_vjp(v, J))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lq_jacobians_are_shared_read_only_views(dim):
    """LQ Jacobians are the same on every path and contract on the fast path."""
    rng = np.random.default_rng(dim)
    P = 7
    x = rng.normal(size=(P, dim))
    y = rng.normal(size=(P, dim))
    u = np.zeros(dim)
    for spec in (
        make_lq_instance(LQParams(dim=dim, a=0.3)),
        make_lq_observation_instance(LQParams(dim=dim, sigma=0.2)),
    ):
        jacobians = [
            spec.drift_b.dx(0.0, x, u),
            spec.drift_b.du(0.0, x, u),
            spec.diffusion_sigma1.dx(0.0, x, u),
            spec.diffusion_sigma1.du(0.0, x, u),
            spec.diffusion_sigma2.dx(0.0, x, u),
            spec.diffusion_sigma2.du(0.0, x, u),
            spec.terminal_phi.dx(x),
        ] + [
            getattr(spec.backward_f, name)(0.0, x, y, y, y, u)
            for name in ("dx", "dy", "dz1", "dz2", "du")
        ]
        for J in jacobians:
            assert J.shape == (P, dim, dim)
            assert J.strides[0] == 0
            assert not J.flags.writeable
