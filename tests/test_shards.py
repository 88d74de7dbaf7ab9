"""The per-path sweeps on path shards: no output depends on the shard count.

The forward sweep, the cost and the adjoint's per-step work run on
shards; the adjoint's fits and the gap's path means stay on the
calling thread, with BLAS held to one thread while a sweep runs on more
than one shard.

The shard count is min(cores, paths // MIN_SHARD_PATHS); the tests set the
core count and the shard floor to get one, two and three shards on a few
hundred paths, with path counts no shard count divides.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from _instances import cost_through_y_twin, pure_noise_instance
from fbsde_nearopt import paths
from fbsde_nearopt import hamiltonian as ham
from fbsde_nearopt.bsde import adjoint_trajectories, backward_bundle, solve_adjoint
from fbsde_nearopt.errors import FbsdeError, SimulationError
from fbsde_nearopt.forward_sim import evaluate_cost_strong, simulate_forward
from fbsde_nearopt.model import (
    BUILTIN_FAMILIES,
    LQParams,
    builtin_instance,
    constant_control,
    make_lq_instance,
)
from fbsde_nearopt.paths import enumerate_binomial, make_time_grid, sample_noise

SHARD_COUNTS = (1, 2, 3)
MIN_SHARD = 100


@pytest.fixture
def shards(monkeypatch):
    """A function setting the number of shards a sweep over >= 3 * MIN_SHARD
    paths runs on."""
    monkeypatch.setattr(paths, "MIN_SHARD_PATHS", MIN_SHARD)

    def use(count):
        monkeypatch.setattr(paths, "_worker_count", lambda: count)

    return use


def _reads_z(spec):
    """``spec`` with 0.3 * z1 + 0.2 * z2 added to its scalar driver, so that
    H_z1 and H_z2 move k."""
    f = spec.backward_f
    driver = dataclasses.replace(
        f,
        value=lambda t, x, y, z1, z2, u: f.value(t, x, y, z1, z2, u) + 0.3 * z1 + 0.2 * z2,
        dz1=lambda t, x, y, z1, z2, u: f.dz1(t, x, y, z1, z2, u) + 0.3,
        dz2=lambda t, x, y, z1, z2, u: f.dz2(t, x, y, z1, z2, u) + 0.2,
    )
    return dataclasses.replace(spec, backward_f=driver, label=f"{spec.label}_z")


def _specs():
    specs = {name: builtin_instance(name) for name in sorted(BUILTIN_FAMILIES)}
    for dim in (1, 2, 3):
        specs[f"lq{dim}"] = make_lq_instance(LQParams(dim=dim))
    specs["scalar_nonlinear_twin"] = cost_through_y_twin(builtin_instance("scalar_nonlinear"))
    specs["lq_obs_twin"] = cost_through_y_twin(builtin_instance("lq_obs"))
    specs["lq_obs_twin_z"] = _reads_z(specs["lq_obs_twin"])
    return specs


SPECS = _specs()


def _outputs(spec, noise):
    u = constant_control(np.full(spec.dim_u, 0.2), noise.grid, spec.control_set)
    fwd = simulate_forward(spec, u, noise)
    cost = evaluate_cost_strong(spec, backward_bundle(spec, fwd))
    return fwd.x.tobytes(), np.ascontiguousarray(fwd.rho).tobytes(), dataclasses.astuple(cost)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("n_paths", [301, 3 * MIN_SHARD + 7])
def test_forward_and_cost_do_not_depend_on_the_shard_count(shards, name, n_paths):
    spec = SPECS[name]
    grid = make_time_grid(spec.horizon, 7)
    runs = []
    for count in SHARD_COUNTS:
        shards(count)
        runs.append(_outputs(spec, sample_noise(grid, n_paths, seed=31)))
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("name", ["lq_obs", "scalar_nonlinear", "lq2"])
def test_forward_and_cost_on_the_binomial_bundle_do_not_depend_on_the_shard_count(shards, name):
    spec = SPECS[name]
    noise = enumerate_binomial(make_time_grid(spec.horizon, 5))  # 1024 paths
    runs = []
    for count in SHARD_COUNTS:
        shards(count)
        runs.append(_outputs(spec, noise))
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("dY_first", [False, True])
def test_noise_does_not_depend_on_the_shard_count_or_the_read_order(shards, dY_first):
    grid = make_time_grid(1.0, 6)
    draws = []
    for count in SHARD_COUNTS:
        shards(count)
        bundle = sample_noise(grid, 3 * MIN_SHARD + 7, seed=12)
        if dY_first:
            dY, dW = bundle.dY, bundle.dW
        else:
            dW, dY = bundle.dW, bundle.dY
        assert dW.flags.f_contiguous and dY.flags.f_contiguous
        draws.append((dW.tobytes(), dY.tobytes()))
    assert draws[1] == draws[0] and draws[2] == draws[0]


def _pointed_drift(spec, grid, hits, action):
    """``spec`` with a drift that applies ``action`` to the rows of x it gets
    at the given (step, path) hits, and is zero elsewhere.

    ``spec`` is a pure-noise instance, so every x value is path specific:
    each hit is found by its value in the undisturbed sweep, and the drift
    stays row-wise.
    """
    noise = sample_noise(grid, 10 * MIN_SHARD, seed=5)
    u = constant_control([0.0], grid, spec.control_set)
    clean = simulate_forward(spec, u, noise).x
    targets = {grid.times[step - 1]: clean[step - 1, path, 0] for step, path in hits}

    def drift(t, x, u):
        out = np.zeros_like(x)
        if t in targets:
            rows = x[:, 0] == targets[t]
            if rows.any():
                action(out, rows)
        return out

    pointed = dataclasses.replace(spec, drift_b=dataclasses.replace(spec.drift_b, value=drift))
    return pointed, u, noise


def _blow_up(out, rows):
    out[rows] = np.inf


@pytest.mark.parametrize(
    "hits, want",
    [
        # a later shard blows up at an earlier step than an earlier shard
        (((6, 2 * MIN_SHARD + 3), (3, 9 * MIN_SHARD + 1)), (3, 9 * MIN_SHARD + 1)),
        # the same step in two shards: the lower path
        (((4, 9 * MIN_SHARD + 1), (4, 4 * MIN_SHARD + 2)), (4, 4 * MIN_SHARD + 2)),
    ],
)
def test_a_blow_up_names_the_step_and_path_of_the_single_sweep(shards, hits, want):
    spec = pure_noise_instance(sigma=1.0)
    grid = make_time_grid(1.0, 8)
    shards(1)
    pointed, u, noise = _pointed_drift(spec, grid, hits, _blow_up)
    messages = []
    for count in SHARD_COUNTS:
        shards(count)
        with pytest.raises(SimulationError) as raised:
            simulate_forward(pointed, u, noise)
        messages.append(str(raised.value))
    assert f"at step {want[0]}, path {want[1]}:" in messages[0]
    assert messages[1] == messages[0] and messages[2] == messages[0]


class CoefficientFault(ValueError):
    pass


def test_a_coefficient_exception_in_a_worker_reaches_the_caller_unchanged(shards):
    spec = pure_noise_instance(sigma=1.0)
    grid = make_time_grid(1.0, 8)
    threads = []

    def fault(out, rows):
        threads.append(threading.current_thread())
        raise CoefficientFault("drift undefined on this row")

    shards(1)
    pointed, u, noise = _pointed_drift(spec, grid, [(5, 9 * MIN_SHARD + 4)], fault)
    shards(3)
    with pytest.raises(CoefficientFault, match="^drift undefined on this row$"):
        simulate_forward(pointed, u, noise)
    # the path is in the last shard, which runs on the pool
    assert threads and threads[0] is not threading.main_thread()
    # and the rerun of the whole sweep on the calling thread meets it last
    assert threads[-1] is threading.main_thread()


def test_a_failure_met_only_on_a_pool_thread_is_still_raised(shards):
    calls = []

    def fn(lo, hi):
        on_main = threading.current_thread() is threading.main_thread()
        calls.append((lo, hi, on_main))
        if not on_main:
            raise CoefficientFault(f"off the calling thread from path {lo}")

    shards(3)
    with pytest.raises(CoefficientFault, match=f"^off the calling thread from path {MIN_SHARD}$"):
        paths._on_path_shards(fn, 3 * MIN_SHARD)
    # every shard, then the single sweep on the calling thread, which raises nothing
    assert sorted(calls[:3]) == [
        (0, MIN_SHARD, True), (MIN_SHARD, 2 * MIN_SHARD, False), (2 * MIN_SHARD, 3 * MIN_SHARD, False)
    ]
    assert calls[3:] == [(0, 3 * MIN_SHARD, True)]


def test_a_blow_up_at_an_earlier_step_outranks_a_later_coefficient_exception(shards):
    # the blow-up is in the last shard, the exception in the first, which
    # the single sweep never reaches
    spec = pure_noise_instance(sigma=1.0)
    grid = make_time_grid(1.0, 8)
    early, late = (3, 8 * MIN_SHARD), (6, MIN_SHARD)
    shards(1)
    pointed, u, noise = _pointed_drift(spec, grid, [early, late], _blow_up)
    drift = pointed.drift_b.value

    def raising_late(t, x, u):
        out = drift(t, x, u)
        if t == grid.times[late[0] - 1] and np.isinf(out).any():
            raise CoefficientFault("late")
        return out

    raising = dataclasses.replace(pointed, drift_b=dataclasses.replace(pointed.drift_b, value=raising_late))
    for count in SHARD_COUNTS:
        shards(count)
        with pytest.raises(SimulationError, match=rf"at step {early[0]}, path {early[1]}:"):
            simulate_forward(raising, u, noise)


def test_a_floating_point_error_state_holds_on_every_shard(shards):
    # np.errstate is context-local: a worker shard runs in the caller's context
    spec = pure_noise_instance(sigma=1.0)
    grid = make_time_grid(1.0, 8)

    def overflow(out, rows):
        out[rows] = np.exp(np.full(rows.sum(), 1000.0))

    shards(1)
    pointed, u, noise = _pointed_drift(spec, grid, [(4, 9 * MIN_SHARD + 6)], overflow)
    for count in SHARD_COUNTS:
        shards(count)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            simulate_forward(pointed, u, noise)


def test_more_shards_than_cores_under_frequent_thread_switches_give_the_same_bits(
    shards, monkeypatch
):
    spec = SPECS["scalar_nonlinear"]
    grid = make_time_grid(spec.horizon, 6)
    n_paths = 8 * MIN_SHARD + 13
    shards(1)
    want = _outputs(spec, sample_noise(grid, n_paths, seed=3))
    shards(8)
    pool = paths._ShardPool()  # seven threads, whatever the core count
    monkeypatch.setattr(paths, "_POOL", pool)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: got.extend(_outputs(spec, sample_noise(grid, n_paths, seed=3)) for _ in range(3))
        )
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        pool._executor.shutdown(wait=True)
    assert not runner.is_alive()
    assert got == [want] * 3


# ---------------------------------------------------------------------------
# the adjoint sweep: k on the calling thread, p and rho * H_u on shards per step


def _bits(value):
    """Every field of a result, recursively: arrays as shape and bytes,
    floats as hex, so the sign of a zero counts too."""
    if isinstance(value, np.ndarray):
        return value.shape, np.ascontiguousarray(value).tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _adjoints(spec, noise):
    u = constant_control(np.full(spec.dim_u, 0.2), noise.grid, spec.control_set)
    bwd = backward_bundle(spec, simulate_forward(spec, u, noise))
    return _bits(solve_adjoint(spec, bwd)), _bits(adjoint_trajectories(spec, bwd))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_adjoint_does_not_depend_on_the_shard_count(shards, name):
    spec = SPECS[name]
    grid = make_time_grid(spec.horizon, 7)
    runs = []
    for count in SHARD_COUNTS:
        shards(count)
        runs.append(_adjoints(spec, sample_noise(grid, 3 * MIN_SHARD + 7, seed=31)))
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("name", ["lq_obs", "scalar_nonlinear", "lq2", "lq_obs_twin"])
def test_the_adjoint_on_the_binomial_bundle_does_not_depend_on_the_shard_count(shards, name):
    spec = SPECS[name]
    noise = enumerate_binomial(make_time_grid(spec.horizon, 5))  # 1024 paths
    runs = []
    for count in SHARD_COUNTS:
        shards(count)
        runs.append(_adjoints(spec, noise))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def _planted(spec, grid, hits):
    """A forward bundle of ``spec`` at 10 * MIN_SHARD paths, and a map that
    sets the rows of a ``(P, ...)`` array to inf where x is the state of a
    ``(step, path)`` hit at that step's time (every state after step 0 is
    path specific)."""
    noise = sample_noise(grid, 10 * MIN_SHARD, seed=5)
    u = constant_control(np.full(spec.dim_u, 0.2), grid, spec.control_set)
    fwd = simulate_forward(spec, u, noise)
    targets = {}
    for step, path in hits:
        targets.setdefault(grid.times[step], []).append(fwd.x[step, path])

    def plant(t, x, out):
        out = np.array(out)
        for state in targets.get(t, ()):
            out[(x == state).all(axis=1)] = np.inf
        return out

    return fwd, plant


@pytest.mark.parametrize(
    "hits, want",
    [
        # a worker shard's path alone
        (((4, 9 * MIN_SHARD + 1),), 4),
        # the reversed sweep meets a worker shard's later step first
        (((5, 9 * MIN_SHARD + 1), (3, 2)), 5),
    ],
)
def test_a_non_finite_H_x_names_the_step_of_the_single_sweep(shards, hits, want):
    base = SPECS["scalar_nonlinear"]
    grid = make_time_grid(base.horizon, 8)
    shards(1)
    fwd, plant = _planted(base, grid, hits)
    l_x = base.running_l.dx
    spec = dataclasses.replace(base, running_l=dataclasses.replace(
        base.running_l, dx=lambda t, x, y, z1, z2, u: plant(t, x, l_x(t, x, y, z1, z2, u))
    ))
    bwd = backward_bundle(spec, fwd)
    messages = []
    for count in SHARD_COUNTS:
        shards(count)
        for run in (solve_adjoint, adjoint_trajectories):
            with pytest.raises(FbsdeError) as raised:
                run(spec, bwd)
            messages.append(str(raised.value))
    assert messages == [f"non-finite Hamiltonian partial H_x at step {want}"] * len(messages)


@pytest.mark.parametrize(
    "first, last, want",
    [
        # the single sweep evaluates l on every path before it checks H_x
        ("H_x", "l", "l"),
        # and h on every path before l
        ("l", "h", "h"),
        # and, inside one H_x, l_x on every path before b_x
        ("b_x", "l_x", "l_x"),
    ],
)
def test_a_failing_step_raises_the_failure_the_single_sweep_meets_first(shards, first, last, want):
    # at step 4, ``first`` fails on the first shard's path and ``last`` on
    # the last shard's path: a non-finite H_x, or a coefficient raising
    base = SPECS["scalar_nonlinear"]
    grid = make_time_grid(base.horizon, 8)
    shards(1)
    fwd, _ = _planted(base, grid, ())
    sites = {site: _planted(base, grid, [(4, path)])[1] for site, path in ((first, 2), (last, 9 * MIN_SHARD + 1))}

    def hit(site, t, x):
        return site in sites and np.isinf(sites[site](t, x, np.zeros(x.shape[0]))).any()

    def raising(site, value):
        def coefficient(t, x, *args):
            if hit(site, t, x):
                raise CoefficientFault(site)
            return value(t, x, *args)

        return coefficient

    def l_x(t, x, *args):
        out = raising("l_x", base.running_l.dx)(t, x, *args)
        return sites["H_x"](t, x, out) if "H_x" in sites else out

    spec = dataclasses.replace(
        base,
        running_l=dataclasses.replace(base.running_l, value=raising("l", base.running_l.value), dx=l_x),
        observation_h=dataclasses.replace(base.observation_h, value=raising("h", base.observation_h.value)),
        drift_b=dataclasses.replace(base.drift_b, dx=raising("b_x", base.drift_b.dx)),
    )
    bwd = backward_bundle(spec, fwd)
    for count in SHARD_COUNTS:
        shards(count)
        for run in (solve_adjoint, adjoint_trajectories):
            with pytest.raises(CoefficientFault, match=f"^{want}$"):
                run(spec, bwd)


def test_a_failing_cost_raises_the_failure_the_single_sweep_meets_first(shards):
    # l raises at step 6 on the first shard's path and at step 3 on the last shard's
    base = SPECS["scalar_nonlinear"]
    grid = make_time_grid(base.horizon, 8)
    shards(1)
    fwd, _ = _planted(base, grid, ())
    sites = {name: _planted(base, grid, [hit])[1] for name, hit in (("late", (6, 2)), ("early", (3, 9 * MIN_SHARD + 1)))}
    l = base.running_l.value

    def raising(t, x, *args):
        for name, plant in sites.items():
            if np.isinf(plant(t, x, np.zeros(x.shape[0]))).any():
                raise CoefficientFault(name)
        return l(t, x, *args)

    spec = dataclasses.replace(base, running_l=dataclasses.replace(base.running_l, value=raising))
    bwd = backward_bundle(spec, fwd)
    for count in SHARD_COUNTS:
        shards(count)
        with pytest.raises(CoefficientFault, match="^early$"):
            evaluate_cost_strong(spec, bwd)


@pytest.mark.parametrize(
    "hits, want",
    [
        # a later shard's earlier step comes first
        ({"y": ((6, 2), (3, 9 * MIN_SHARD + 1))}, "H_y at step 3"),
        # at one step, the slot the single sweep evaluates first
        ({"z1": ((3, 2),), "y": ((3, 9 * MIN_SHARD + 1),)}, "H_y at step 3"),
        ({"z2": ((2, 4 * MIN_SHARD),), "z1": ((2, 9 * MIN_SHARD + 1),)}, "H_z1 at step 2"),
    ],
)
def test_a_non_finite_k_partial_names_the_step_and_slot_of_the_single_sweep(shards, monkeypatch, hits, want):
    spec = SPECS["scalar_nonlinear_twin"]
    grid = make_time_grid(spec.horizon, 8)
    shards(1)
    for slot, slot_hits in hits.items():
        # the same bundle for every slot
        fwd, plant = _planted(spec, grid, slot_hits)
        partial = getattr(ham, f"partial_{slot}")
        monkeypatch.setattr(
            ham, f"partial_{slot}",
            lambda s, t, x, *args, partial=partial, plant=plant: plant(t, x, partial(s, t, x, *args)),
        )
    bwd = backward_bundle(spec, fwd)
    for count in SHARD_COUNTS:
        shards(count)
        for run in (solve_adjoint, adjoint_trajectories):
            with pytest.raises(FbsdeError, match=f"^non-finite Hamiltonian partial {want}$"):
                run(spec, bwd)


def _blas_threads():
    """The process's OpenBLAS thread count, read by setting it to itself."""
    setter = paths._blas_threads_setter()
    count = setter(1)
    setter(count)
    return count


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread count, at 2 for the test and restored after it."""
    setter = paths._blas_threads_setter()
    if setter is None:
        pytest.skip("numpy links no OpenBLAS")
    prior = setter(2)
    if _blas_threads() != 2:
        setter(prior)
        pytest.skip("this OpenBLAS runs one thread")
    yield _blas_threads
    setter(prior)


def test_a_sharded_sweep_holds_blas_to_one_thread_and_restores_it(shards, blas_threads):
    base = SPECS["scalar_nonlinear"]
    grid = make_time_grid(base.horizon, 6)
    seen = []
    l_x = base.running_l.dx

    def recording(t, x, y, z1, z2, u):
        seen.append((threading.current_thread() is threading.main_thread(), blas_threads()))
        return l_x(t, x, y, z1, z2, u)

    spec = dataclasses.replace(base, running_l=dataclasses.replace(base.running_l, dx=recording))
    u = constant_control([0.2], grid, spec.control_set)
    bwd = backward_bundle(spec, simulate_forward(spec, u, sample_noise(grid, 3 * MIN_SHARD + 7, seed=2)))
    shards(3)
    solve_adjoint(spec, bwd)
    assert blas_threads() == 2
    # every step's l_x on the calling thread and on two pool threads, each at one BLAS thread
    assert sorted(seen) == [(False, 1)] * 12 + [(True, 1)] * 6
    seen.clear()
    shards(1)
    solve_adjoint(spec, bwd)
    assert seen == [(True, 2)] * 6


def test_a_sweep_that_raises_restores_the_blas_threads(shards, blas_threads):
    base = SPECS["scalar_nonlinear"]
    grid = make_time_grid(base.horizon, 8)
    shards(1)
    fwd, plant = _planted(base, grid, [(4, 9 * MIN_SHARD + 1)])
    l_x = base.running_l.dx
    spec = dataclasses.replace(base, running_l=dataclasses.replace(
        base.running_l, dx=lambda t, x, y, z1, z2, u: plant(t, x, l_x(t, x, y, z1, z2, u))
    ))
    shards(3)
    with pytest.raises(FbsdeError, match="at step 4"):
        solve_adjoint(spec, backward_bundle(spec, fwd))
    assert blas_threads() == 2
