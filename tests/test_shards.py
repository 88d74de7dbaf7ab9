"""The per-path sweeps on path shards: no output depends on the shard count.

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
from fbsde_nearopt.bsde import backward_bundle
from fbsde_nearopt.errors import SimulationError
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


def _specs():
    specs = {name: builtin_instance(name) for name in sorted(BUILTIN_FAMILIES)}
    for dim in (1, 2, 3):
        specs[f"lq{dim}"] = make_lq_instance(LQParams(dim=dim))
    specs["scalar_nonlinear_twin"] = cost_through_y_twin(builtin_instance("scalar_nonlinear"))
    specs["lq_obs_twin"] = cost_through_y_twin(builtin_instance("lq_obs"))
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
