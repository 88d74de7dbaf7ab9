"""Skipping structurally zero coefficient parts changes no number.

The adjoint drops the Jacobian products, k-sweep partials, shifted slot
and corrector pass that a structurally zero part (``model._zero``, the part
of ``zero_coefficient()`` and ``zero_driver()``) makes identically zero.
A dropped term is an exact zero, so every output equals the one computed
with nothing skipped (up to the sign of a zero, which ``np.array_equal``
does not see); the forward step drops sigma2's terms and holds rho as ones
in the same way.  What no result reads is not computed either: the value
system when h has zero Jacobians, the adjoint's increment fit when nothing
reads q1 or q2, the dY draw when nothing reads dY, and the backward solve
and the k sweep where neither the cost nor the adjoint reads y or z.  Every
one of these decisions is read from ``model.live_terms``.
"""

import dataclasses
import functools
import sys
import tracemalloc

import numpy as np
import pytest

from fbsde_nearopt import (
    DescentParams,
    FbsdeError,
    LQParams,
    adjoint_trajectories,
    builtin_instance,
    constant_control,
    make_lq_instance,
    make_lq_observation_instance,
    make_time_grid,
    min_gap_over_A,
    necessary_gap,
    sample_noise,
    simulate_forward,
    smp_descent,
    solve_adjoint,
    solve_backward,
)
from fbsde_nearopt import bsde, optimizer
from fbsde_nearopt import hamiltonian as ham
from fbsde_nearopt.forward_sim import evaluate_cost_strong, evaluate_cost_weak
from fbsde_nearopt.model import (
    BUILTIN_FAMILIES,
    InitialCoefficient,
    LiveTerms,
    live_terms,
    structurally_zero,
    without_observation,
    zero_coefficient,
    zero_driver,
)

from _instances import (
    constant_running_cost_instance,
    cost_through_y_twin,
    value_as_backward_instance,
)

COEFFICIENTS = (
    "drift_b", "diffusion_sigma1", "diffusion_sigma2", "backward_f", "observation_h",
    "terminal_phi", "running_l", "terminal_Phi", "initial_gamma",
)

INSTANCES = {
    "lq1": lambda: make_lq_instance(LQParams(dim=1)),
    "lq2": lambda: make_lq_instance(LQParams(dim=2)),
    "lq3": lambda: make_lq_instance(LQParams(dim=3, a=0.2, q=0.5)),
    "lq_obs1": lambda: make_lq_observation_instance(),
    "lq_obs2": lambda: make_lq_observation_instance(LQParams(dim=2, sigma=0.2, q=1.0)),
    "scalar_nonlinear": lambda: builtin_instance("scalar_nonlinear"),
    "double_well": lambda: builtin_instance("double_well"),
    "lq_twin": lambda: cost_through_y_twin(make_lq_instance(LQParams(q=0.5))),
    "lq_value": lambda: value_as_backward_instance(make_lq_instance(LQParams(q=0.5))),
    "lq_obs_twin": lambda: cost_through_y_twin(make_lq_observation_instance()),
    "lq_obs_value": lambda: value_as_backward_instance(make_lq_observation_instance()),
    # a y-dependent f under a nonzero k: H_y is live and moves k
    "scalar_nonlinear_gamma": lambda: dataclasses.replace(
        builtin_instance("scalar_nonlinear"),
        initial_gamma=InitialCoefficient(value=lambda y: 0.5 * y[:, 0] ** 2, dy=lambda y: y),
    ),
}


SLOTS = ("y", "z1", "z2")
# the table of each instance, in field order: sigma2, density, backward,
# driver, k_partials, value_system, integrands
LIVE = {
    "lq1": LiveTerms(False, False, False, False, (), False, False),
    "lq2": LiveTerms(False, False, False, False, (), False, False),
    "lq3": LiveTerms(False, False, False, False, (), False, False),
    "lq_obs1": LiveTerms(True, True, False, False, (), False, True),
    "lq_obs2": LiveTerms(True, True, False, False, (), False, True),
    "scalar_nonlinear": LiveTerms(True, True, False, True, ("y",), True, True),
    "double_well": LiveTerms(False, False, False, False, (), False, False),
    "lq_twin": LiveTerms(False, False, True, True, SLOTS, False, False),
    "lq_value": LiveTerms(False, False, False, True, SLOTS, False, False),
    "lq_obs_twin": LiveTerms(True, True, True, True, SLOTS, False, True),
    "lq_obs_value": LiveTerms(True, True, False, True, SLOTS, False, True),
    "scalar_nonlinear_gamma": LiveTerms(True, True, True, True, ("y",), True, True),
}
ALL_LIVE = LiveTerms(True, True, True, True, SLOTS, True, True)


def _outputs(spec, seed, n_paths=1000, steps=8):
    """Every array and number the pipeline computes on one bundle."""
    grid = make_time_grid(spec.horizon, steps)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    fwd = simulate_forward(spec, u, sample_noise(grid, n_paths, seed))
    bwd = solve_backward(spec, fwd)
    grad = solve_adjoint(spec, bwd)
    adj = adjoint_trajectories(spec, bwd)
    cost = evaluate_cost_strong(spec, bwd)
    gap = min_gap_over_A(grad)
    out = {
        "x": fwd.x, "rho": fwd.rho,
        "y": bwd.y, "z1": bwd.z1, "z2": bwd.z2,
        "means": grad.means, "per_path_gap": grad.per_path_gap,
        "cost": cost.value, "cost_stderr": cost.stderr,
        "gap": gap.gap, "gap_stderr": gap.stderr, "minimizer": gap.minimizer.values,
        # solve_adjoint's p fits, listed after any value-system fits it ran
        "diagnostics": (
            grad.diagnostics.condition_numbers,
            grad.diagnostics.residual_rms[-steps:],
            bwd.diagnostics,
        ),
    }
    for name in ("means", "per_path_gap", "weighted", "k", "p", "q1", "q2", "r", "R1", "R2"):
        out[f"adj_{name}"] = getattr(adj, name)
    out["adj_diagnostics"] = adj.diagnostics
    return out


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(got[name], value), name
        else:
            assert got[name] == value, name


def _nothing_structurally_zero(monkeypatch, spec):
    """Patch the predicate to False in every package module that holds it:
    ``model``, whose table then finds every term of ``spec`` live, and
    ``hamiltonian``, whose per-step evaluator then skips no Jacobian."""
    patched = set()
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("fbsde_nearopt"):
            if getattr(module, "structurally_zero", None) is structurally_zero:
                monkeypatch.setattr(module, "structurally_zero", lambda part: False)
                patched.add(module.__name__)
    assert patched == {"fbsde_nearopt.model", "fbsde_nearopt.hamiltonian"}
    assert live_terms(spec) == ALL_LIVE


def _force_backward(monkeypatch, reads=True):
    """Make ``bsde`` read ``reads`` as every spec's ``LiveTerms.backward``."""
    monkeypatch.setattr(
        bsde, "live_terms", lambda spec: dataclasses.replace(live_terms(spec), backward=reads)
    )


def _with_plain_zeros(spec):
    """The same instance with every structurally zero part a plain lambda."""
    changes = {}
    for name in COEFFICIENTS:
        coeff = getattr(spec, name)
        plain = {
            f.name: (lambda *args: 0.0)
            for f in dataclasses.fields(coeff)
            if structurally_zero(getattr(coeff, f.name))
        }
        if plain:
            changes[name] = dataclasses.replace(coeff, **plain)
    return dataclasses.replace(spec, **changes)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_skipping_structural_zeros_changes_no_output(name, monkeypatch):
    spec = INSTANCES[name]()
    for seed in (3, 11):
        skipped = _outputs(spec, seed)
        _assert_same(_outputs(_with_plain_zeros(spec), seed), skipped)
        with monkeypatch.context() as patch:
            _nothing_structurally_zero(patch, spec)
            reference = _outputs(spec, seed)
        _assert_same(skipped, reference)


def test_predicate_sees_through_wraps_but_not_a_zero_valued_map():
    spec = make_lq_instance(LQParams(dim=2))
    assert structurally_zero(spec.backward_f.dy)  # wrapped once by the spec's shaping
    assert structurally_zero(functools.wraps(spec.backward_f.dy)(lambda *a: 0.0))
    assert not structurally_zero(spec.diffusion_sigma1.value)
    assert not structurally_zero(_with_plain_zeros(spec).backward_f.dy)
    assert all(structurally_zero(part) for part in vars(zero_coefficient()).values())
    assert all(structurally_zero(part) for part in vars(zero_driver()).values())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_live_terms_of_every_instance(name):
    spec = INSTANCES[name]()
    assert live_terms(spec) == LIVE[name]
    # plain-lambda parts declare nothing, so every term is taken to be live
    assert live_terms(_with_plain_zeros(spec)) == ALL_LIVE


# ---------------------------------------------------------------------------
# the work is gone, not moved: coefficient calls counted per part

JACOBIANS = ("dx", "du")
SLOT_PARTIALS = ("dy", "dz1", "dz2")


def _counted(spec, monkeypatch):
    """``spec`` with every coefficient part counting its calls (wrapped with
    functools.wraps, as a tracer would), and the counts of the Hamiltonian's
    k-sweep partials."""
    counts = {}

    def counting(key, fn):
        @functools.wraps(fn)
        def counted(*args):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)

        return counted

    changes = {}
    for name in COEFFICIENTS:
        coeff = getattr(spec, name)
        changes[name] = dataclasses.replace(coeff, **{
            f.name: counting(f"{name}.{f.name}", getattr(coeff, f.name))
            for f in dataclasses.fields(coeff)
        })
    for slot in ("y", "z1", "z2"):
        monkeypatch.setattr(ham, f"partial_{slot}", counting(f"partial_{slot}", getattr(ham, f"partial_{slot}")))
    return dataclasses.replace(spec, **changes), counts


def _adjoint_counts(spec, monkeypatch, steps=8):
    counted, counts = _counted(spec, monkeypatch)
    grid = make_time_grid(spec.horizon, steps)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    fwd = simulate_forward(counted, u, sample_noise(grid, 500, 2))
    counts.clear()
    bwd = solve_backward(counted, fwd)
    backward = dict(counts)
    counts.clear()
    solve_adjoint(counted, bwd)
    return backward, counts


def test_lq_adjoint_calls_no_structurally_zero_part(monkeypatch):
    steps = 8
    backward, adjoint = _adjoint_counts(make_lq_instance(LQParams(dim=2)), monkeypatch, steps)
    # the k sweep: no partial and no f or l slot partial
    for key in ("partial_y", "partial_z1", "partial_z2"):
        assert key not in adjoint
    for c in ("backward_f", "running_l"):
        for w in SLOT_PARTIALS:
            assert f"{c}.{w}" not in adjoint
    # ShiftedPartials: no sigma1, sigma2, f or h Jacobian, and no slot
    for c in ("diffusion_sigma1", "diffusion_sigma2", "backward_f", "observation_h"):
        for w in JACOBIANS:
            assert f"{c}.{w}" not in adjoint
    assert "diffusion_sigma2.value" not in adjoint
    # what is left is live: l and b Jacobians, once per step each
    for c in ("running_l", "drift_b"):
        for w in JACOBIANS:
            assert adjoint[f"{c}.{w}"] == steps
    # a zero f never reads y: one driver evaluation per backward step
    assert backward["backward_f.value"] == steps


@pytest.mark.parametrize("family", ["lq", "lq_obs"])
def test_twin_adjoint_still_calls_its_live_parts(family, monkeypatch):
    steps = 8
    base = make_lq_instance(LQParams(q=0.5)) if family == "lq" else make_lq_observation_instance()
    backward, adjoint = _adjoint_counts(cost_through_y_twin(base), monkeypatch, steps)
    for slot in ("y", "z1", "z2"):
        assert adjoint[f"partial_{slot}"] == steps
        assert adjoint[f"backward_f.d{slot}"] == steps
    for w in JACOBIANS:
        assert adjoint[f"backward_f.{w}"] == steps
    assert backward["backward_f.value"] == 2 * steps


def test_gradient_with_one_or_no_live_term_is_a_fresh_column_major_array():
    spec = make_lq_instance(LQParams(dim=2, q=0.5))
    lone = dataclasses.replace(spec, drift_b=dataclasses.replace(spec.drift_b, dx=zero_coefficient().dx))
    dead = dataclasses.replace(lone, running_l=dataclasses.replace(spec.running_l, dx=zero_driver().dx))
    rng = np.random.default_rng(8)
    P = 50
    x, y, z1, z2, k, q1, q2, p = (rng.normal(size=(P, 2)) for _ in range(8))
    u, R2 = np.zeros(2), rng.normal(size=P)
    got = ham.ShiftedPartials(lone, 0.1, x, y, z1, z2, u, k, q1, q2).h_x(p, R2)
    assert np.array_equal(got, 0.5 * x)
    assert got.flags.f_contiguous and got.flags.writeable
    got = ham.ShiftedPartials(dead, 0.1, x, y, z1, z2, u, k, q1, q2).h_x(p, R2)
    assert got.shape == (P, 2) and not got.any()
    assert got.flags.f_contiguous and got.flags.writeable


def test_adjoint_trajectories_copies_a_held_k_into_a_writable_trajectory():
    spec = make_lq_instance(LQParams(dim=2))
    grid = make_time_grid(spec.horizon, 8)
    u = constant_control(np.full(2, 0.2), grid, spec.control_set)
    bwd = solve_backward(spec, simulate_forward(spec, u, sample_noise(grid, 500, 2)))
    held = next(bsde._adjoint_sweep(spec, bwd, live_terms(spec)))[0]
    assert held.strides[0] == 0 and not held.flags.writeable
    k = adjoint_trajectories(spec, bwd).k
    assert k.shape == (9, 500, 2) and k.flags.writeable
    assert all(k[i].flags.f_contiguous for i in range(9))
    assert np.array_equal(k, held)


# ---------------------------------------------------------------------------
# what no result reads is not computed


def _bits(report):
    """Every float field of a report or row, bit for bit (the sign of a zero too)."""
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(report).items()
    }


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cost_on_the_forward_bundle_equals_the_cost_on_the_backward_bundle(name):
    spec = INSTANCES[name]()
    grid = make_time_grid(spec.horizon, 8)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    fwd = simulate_forward(spec, u, sample_noise(grid, 1000, 5))
    bundle = bsde.backward_bundle(spec, fwd)
    # the backward equation is solved only where the spec reads it
    assert (bundle.y is not None) == live_terms(spec).backward
    want = _bits(evaluate_cost_strong(spec, solve_backward(spec, fwd)))
    assert _bits(evaluate_cost_strong(spec, bundle)) == want


@pytest.mark.parametrize("name", ["lq1", "lq_obs1", "lq_obs_twin"])
def test_weak_cost_solves_the_backward_equation_only_for_a_reader(name, monkeypatch):
    spec = INSTANCES[name]()
    grid = make_time_grid(spec.horizon, 8)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    calls = []
    original = bsde.solve_backward
    monkeypatch.setattr(bsde, "solve_backward", lambda *args: calls.append(1) or original(*args))
    got = _bits(evaluate_cost_weak(spec, u, seed=5, n_paths=1000, grid=grid))
    assert len(calls) == live_terms(without_observation(spec)).backward
    _force_backward(monkeypatch)
    assert _bits(evaluate_cost_weak(spec, u, seed=5, n_paths=1000, grid=grid)) == got


def test_which_specs_read_the_backward_state():
    readers = {name for name, make in INSTANCES.items() if live_terms(make()).backward}
    assert readers == {"lq_twin", "lq_obs_twin", "scalar_nonlinear_gamma"}
    # no built-in reads y or z: on scalar_nonlinear f_y = -0.5 multiplies only k = 0
    assert not any(live_terms(builtin_instance(f)).backward for f in BUILTIN_FAMILIES)
    # plain-lambda partials declare nothing, so y and z are taken to be read
    assert live_terms(constant_running_cost_instance()).backward


def test_which_gradients_read_the_adjoint_integrands():
    readers = {name for name, make in INSTANCES.items() if live_terms(make()).integrands}
    assert readers == {
        "lq_obs1", "lq_obs2", "lq_obs_twin", "lq_obs_value",
        "scalar_nonlinear", "scalar_nonlinear_gamma",
    }
    # h = 0.5 on lq_obs; sigma1's and sigma2's Jacobians on scalar_nonlinear
    assert {f for f in BUILTIN_FAMILIES if live_terms(builtin_instance(f)).integrands} == {
        "lq_obs", "scalar_nonlinear"
    }
    # plain-lambda parts declare nothing, so q1 and q2 are taken to be read
    assert live_terms(_with_plain_zeros(make_lq_instance())).integrands


@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
def test_certify_pipeline_draws_dY_only_where_it_is_read(family):
    spec = builtin_instance(family)
    grid = make_time_grid(spec.horizon, 8)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    noise = sample_noise(grid, 1000, 5)
    fwd = simulate_forward(spec, u, noise)
    bundle = bsde.backward_bundle(spec, fwd)
    evaluate_cost_strong(spec, bundle)
    min_gap_over_A(solve_adjoint(spec, bundle))
    # sigma2 and h are zero on lq and double_well: no step reads dY
    assert ("dY" in vars(noise)) == (family in ("lq_obs", "scalar_nonlinear"))


def test_forward_simulation_on_lq_never_holds_a_density_trajectory():
    spec = make_lq_instance()
    P, N = 20000, 16
    grid = make_time_grid(spec.horizon, N)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    noise = sample_noise(grid, P, 5)
    tracemalloc.start()
    try:
        fwd = simulate_forward(spec, u, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    x_bytes = rho_bytes = 8 * (N + 1) * P
    assert fwd.rho.strides[0] == 0 and not fwd.rho.flags.writeable
    # x and one step's work: neither log rho nor rho is a trajectory
    assert peak < x_bytes + rho_bytes


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_adjoint_on_the_forward_bundle_equals_the_adjoint_on_the_backward_bundle(name):
    spec = INSTANCES[name]()
    grid = make_time_grid(spec.horizon, 8)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    fwd = simulate_forward(spec, u, sample_noise(grid, 1000, 5))
    bundle = bsde.backward_bundle(spec, fwd)
    bwd = solve_backward(spec, fwd)
    # the backward equation is solved only for a spec that reads it
    if live_terms(spec).backward:
        assert np.array_equal(bundle.y, bwd.y)
    else:
        assert bundle.y is bundle.z1 is bundle.z2 is None
    got, want = solve_adjoint(spec, bundle), solve_adjoint(spec, bwd)
    for field in ("means", "per_path_gap"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert _hex(got.diagnostics.condition_numbers) == _hex(want.diagnostics.condition_numbers)
    assert _hex(got.diagnostics.residual_rms) == _hex(want.diagnostics.residual_rms)
    gap, gap_want = min_gap_over_A(got), min_gap_over_A(want)
    assert _hex(gap[:2]) == _hex(gap_want[:2])
    assert gap.minimizer.values.tobytes() == gap_want.minimizer.values.tobytes()
    full, full_want = adjoint_trajectories(spec, bundle), adjoint_trajectories(spec, bwd)
    v = constant_control(np.full(spec.dim_u, -0.1), grid, spec.control_set)
    assert _hex(necessary_gap(full, v)) == _hex(necessary_gap(full_want, v))
    for field in ("means", "per_path_gap", "weighted", "k", "p", "q1", "q2", "r", "R1", "R2"):
        assert getattr(full, field).tobytes() == getattr(full_want, field).tobytes(), field


def test_a_bundle_without_backward_values_refuses_a_reader():
    spec = cost_through_y_twin(make_lq_observation_instance())
    grid = make_time_grid(spec.horizon, 8)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    fwd = simulate_forward(spec, u, sample_noise(grid, 1000, 5))
    bare = dataclasses.replace(solve_backward(spec, fwd), y=None, z1=None, z2=None)
    with pytest.raises(FbsdeError, match="backward bundle"):
        evaluate_cost_strong(spec, bare)
    with pytest.raises(FbsdeError, match="solved backward bundle"):
        solve_adjoint(spec, bare)


def _descent(spec, monkeypatch, reads=None):
    """A short descent with its backward solves and forward simulations
    counted; ``LiveTerms.backward`` can be forced."""
    calls = {"solve_backward": 0, "simulate_forward": 0}
    for module, fn in ((bsde, "solve_backward"), (optimizer, "simulate_forward")):
        original = getattr(module, fn)

        def counted(*args, _fn=fn, _original=original):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(module, fn, counted)
    if reads is not None:
        _force_backward(monkeypatch, reads)
    grid = make_time_grid(spec.horizon, 16)
    u0 = constant_control(spec.control_set.center(), grid, spec.control_set)
    trace = smp_descent(spec, u0, DescentParams(max_iter=4, n_paths=4000, seed=3))
    return trace, calls


def _assert_same_descent(got, want):
    assert [_bits(row) for row in got.rows] == [_bits(row) for row in want.rows]
    assert len(got.controls) == len(want.controls)
    for a, b in zip(got.controls, want.controls):
        assert np.array_equal(a.values, b.values)
    assert (got.converged, got.stop_reason) == (want.converged, want.stop_reason)


def test_line_search_trials_skip_the_backward_solve(monkeypatch):
    spec = make_lq_observation_instance()
    with monkeypatch.context() as patch:
        want, want_calls = _descent(spec, patch, reads=True)
    got, calls = _descent(spec, monkeypatch)
    _assert_same_descent(got, want)
    # neither the trials' costs nor the accepted steps' adjoints read y or z;
    # forced, every evaluation is solved backward once
    assert calls["solve_backward"] == 0
    assert calls["simulate_forward"] > calls["solve_backward"]
    assert want_calls["solve_backward"] == want_calls["simulate_forward"] == calls["simulate_forward"]


def test_a_cost_through_y_keeps_its_per_trial_backward_solve(monkeypatch):
    _, calls = _descent(cost_through_y_twin(make_lq_observation_instance()), monkeypatch)
    assert calls["solve_backward"] == calls["simulate_forward"]


def test_scalar_nonlinear_runs_neither_the_backward_solve_nor_the_k_sweep(monkeypatch):
    spec = builtin_instance("scalar_nonlinear")
    grid = make_time_grid(spec.horizon, 8)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    fwd = simulate_forward(spec, u, sample_noise(grid, 1000, 5))
    calls = []
    for module, name in ((bsde, "solve_backward"), (ham, "partial_y")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _fn=original, _name=name: calls.append(_name) or _fn(*args)
        )
    with monkeypatch.context() as patch:
        _force_backward(patch)
        want = solve_adjoint(spec, bsde.backward_bundle(spec, fwd))
    # forced, y is solved and f_y moves k by exact zeros at every step
    assert calls.count("solve_backward") == 1 and calls.count("partial_y") == 8
    calls.clear()
    got = solve_adjoint(spec, bsde.backward_bundle(spec, fwd))
    assert calls == []
    for field in ("means", "per_path_gap"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.minimizer.values.tobytes() == want.minimizer.values.tobytes()


def test_scalar_nonlinear_adjoint_evaluates_no_f_jacobian(monkeypatch):
    # no y or z is read, so k = k(0) = 0: ShiftedPartials drops f_x^T k and
    # the slot's <z2, k>, and with them f's x-Jacobian at every step
    steps = 8
    counted, counts = _counted(builtin_instance("scalar_nonlinear"), monkeypatch)
    grid = make_time_grid(counted.horizon, steps)
    u = constant_control(np.full(counted.dim_u, 0.2), grid, counted.control_set)
    fwd = simulate_forward(counted, u, sample_noise(grid, 500, 2))
    counts.clear()
    got = solve_adjoint(counted, bsde.backward_bundle(counted, fwd))
    assert "backward_f.dx" not in counts and "backward_f.du" not in counts
    with monkeypatch.context() as patch:
        _force_backward(patch)
        counts.clear()
        want = solve_adjoint(counted, bsde.backward_bundle(counted, fwd))
    # forced, k is swept and read: f_x is evaluated once per step and
    # multiplies k = 0 into exact zeros, which change no bit
    assert counts["backward_f.dx"] == steps
    for field in ("means", "per_path_gap"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.minimizer.values.tobytes() == want.minimizer.values.tobytes()
    assert got.diagnostics == want.diagnostics


def _fit_counts(spec, monkeypatch, steps=8):
    """Per-part coefficient calls and operator fits of solve_adjoint and of
    adjoint_trajectories on one bundle."""
    counted, counts = _counted(spec, monkeypatch)
    original = bsde.ConditionalExpectation.fit

    def fit(self, i, targets):
        counts["fit"] = counts.get("fit", 0) + 1
        return original(self, i, targets)

    monkeypatch.setattr(bsde.ConditionalExpectation, "fit", fit)
    grid = make_time_grid(spec.horizon, steps)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    bwd = solve_backward(counted, simulate_forward(counted, u, sample_noise(grid, 500, 2)))
    got = {}
    for solver in (solve_adjoint, adjoint_trajectories):
        counts.clear()
        solver(counted, bwd)
        got[solver.__name__] = dict(counts)
    return got["solve_adjoint"], got["adjoint_trajectories"]


@pytest.mark.parametrize("family", ["lq", "lq_obs"])
def test_adjoint_skips_the_value_system_no_gradient_reads(family, monkeypatch):
    steps = 8
    spec = builtin_instance(family)
    production, full = _fit_counts(spec, monkeypatch, steps)
    assert "running_l.value" not in production
    assert full["running_l.value"] == steps
    # per step: two fits for p and q, and two for r and R in the full sweep;
    # on lq nothing reads q1 or q2, so p's increment fit is not run
    assert production["fit"] == (steps if family == "lq" else 2 * steps)
    assert full["fit"] == 4 * steps


def test_adjoint_keeps_the_value_system_when_h_has_a_jacobian(monkeypatch):
    steps = 8
    production, full = _fit_counts(builtin_instance("scalar_nonlinear"), monkeypatch, steps)
    assert production["running_l.value"] == full["running_l.value"] == steps
    assert production["fit"] == full["fit"] == 4 * steps
