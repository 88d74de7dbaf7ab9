import dataclasses
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fbsde_nearopt import FbsdeError, enumerate_binomial, make_time_grid, paths, sample_noise
from fbsde_nearopt.paths import DRAW_BLOCK, binomial_signs


def _c_order_draw(grid, n_paths, seed):
    """The Philox draws of ``sample_noise`` in C order, scaled in place."""
    child_w, child_y = np.random.SeedSequence(seed).spawn(2)
    draws = []
    for child in (child_w, child_y):
        raw = np.random.Generator(np.random.Philox(child)).standard_normal((n_paths, grid.steps))
        raw *= np.sqrt(grid.dt)
        draws.append(raw)
    return draws


def test_grid_nodes():
    grid = make_time_grid(1.0, 4)
    assert grid.dt == 0.25
    assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_single_step():
    grid = make_time_grid(2.0, 1)
    assert grid.dt == 2.0
    assert grid.steps == 1


def test_grid_rejects_zero_steps():
    with pytest.raises(FbsdeError):
        make_time_grid(1.0, 0)
    with pytest.raises(FbsdeError):
        make_time_grid(-1.0, 4)


def test_sampling_deterministic():
    grid = make_time_grid(1.0, 8)
    a = sample_noise(grid, 500, seed=42)
    b = sample_noise(grid, 500, seed=42)
    assert np.array_equal(a.dW, b.dW)
    assert np.array_equal(a.dY, b.dY)


def test_sampling_path_prefix_reproducible():
    # a smaller bundle is a bitwise prefix of a larger one from the same seed
    grid = make_time_grid(1.0, 6)
    small = sample_noise(grid, 50, seed=9)
    large = sample_noise(grid, 400, seed=9)
    assert np.array_equal(small.dW, large.dW[:50])
    assert np.array_equal(small.dY, large.dY[:50])


def test_adjacent_seeds_differ():
    grid = make_time_grid(1.0, 4)
    a = sample_noise(grid, 10, seed=7)
    b = sample_noise(grid, 10, seed=8)
    assert a.dW[0, 0] != b.dW[0, 0]


def test_w_and_y_streams_differ():
    grid = make_time_grid(1.0, 4)
    a = sample_noise(grid, 100, seed=3)
    assert not np.allclose(a.dW, a.dY)


def test_increment_variance_concentration():
    n = 100_000
    grid = make_time_grid(1.0, 1)
    bundle = sample_noise(grid, n, seed=123)
    svar = np.var(bundle.dW[:, 0], ddof=1)
    assert abs(svar - grid.dt) <= 3.0 * math.sqrt(2.0 / n) * grid.dt


def test_normal_increments_ks():
    # fixed-seed Kolmogorov-Smirnov check at the 1% critical value
    n = 10_000
    grid = make_time_grid(1.0, 1)
    z = np.sort(sample_noise(grid, n, seed=77).dW[:, 0] / math.sqrt(grid.dt))
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in z]))
    ranks = np.arange(1, n + 1) / n
    d_stat = max(np.max(np.abs(ranks - cdf)), np.max(np.abs(ranks - 1.0 / n - cdf)))
    assert d_stat <= 1.628 / math.sqrt(n)


def test_binomial_enumeration_n1():
    grid = make_time_grid(1.0, 1)
    bundle = enumerate_binomial(grid)
    assert bundle.n_paths == 4
    pairs = {(float(w), float(y)) for w, y in zip(bundle.dW[:, 0], bundle.dY[:, 0])}
    assert pairs == {(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)}


def test_binomial_enumeration_n2():
    bundle = enumerate_binomial(make_time_grid(1.0, 2))
    assert bundle.n_paths == 16


def test_binomial_exact_moments_rational():
    # first two moments of each increment are exact under the uniform weight 4**-N
    steps = 3
    sw, sy = binomial_signs(steps)
    weight = Fraction(1, 4**steps)
    for signs in (sw, sy):
        for i in range(steps):
            mean = sum(weight * Fraction(int(s)) for s in signs[:, i])
            second = sum(weight * Fraction(int(s)) ** 2 for s in signs[:, i])
            assert mean == 0
            assert second == 1  # increments are sign * sqrt(dt)


def test_binomial_budget_guard():
    with pytest.raises(FbsdeError, match="4\\^10"):
        enumerate_binomial(make_time_grid(1.0, 10))


def test_prefix_blocks_share_history():
    # step-0 crumbs occupy the most significant position
    sw, _ = binomial_signs(2)
    assert np.array_equal(sw[:4, 0], np.full(4, sw[0, 0]))


def _assert_time_contiguous(bundle):
    assert bundle.dW.flags.f_contiguous and bundle.dY.flags.f_contiguous
    assert not bundle.dW.flags.c_contiguous  # (paths, steps) with both > 1


def test_sampled_noise_is_time_contiguous_with_unchanged_values():
    grid = make_time_grid(1.0, 6)
    for seed, n_paths in ((9, 300), (4, 1), (4, 3000), (2024, 1), (2024, 3000)):
        bundle = sample_noise(grid, n_paths, seed=seed)
        if n_paths > 1:
            _assert_time_contiguous(bundle)
        dW, dY = _c_order_draw(grid, n_paths, seed=seed)
        assert bundle.dW.shape == dW.shape
        assert np.array_equal(bundle.dW, dW)
        assert np.array_equal(bundle.dY, dY)


def test_blocked_draw_has_the_bits_of_one_draw_without_its_temporary():
    # a path count that is not a multiple of the block: the last block is short
    grid = make_time_grid(1.0, 3)
    n_paths = 4 * DRAW_BLOCK + 5
    sample_noise(grid, 10, seed=21)  # first-use allocations of the generator machinery
    tracemalloc.start()
    try:
        bundle = sample_noise(grid, n_paths, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dW, dY = _c_order_draw(grid, n_paths, seed=21)
    assert bundle.dW.tobytes(order="C") == dW.tobytes()
    assert bundle.dY.tobytes(order="C") == dY.tobytes()
    # the matrix, one block of paths (a quarter of it here) and the
    # generator's few dozen kB; a whole-matrix draw would hold it twice
    assert peak < 1.5 * bundle.dW.nbytes


def test_binomial_noise_is_time_contiguous_with_unchanged_values():
    grid = make_time_grid(1.0, 3)
    bundle = enumerate_binomial(grid)
    _assert_time_contiguous(bundle)
    sw, sy = binomial_signs(3)
    assert np.array_equal(bundle.dW, sw * np.sqrt(grid.dt))
    assert np.array_equal(bundle.dY, sy * np.sqrt(grid.dt))


def test_replaced_noise_is_time_contiguous():
    grid = make_time_grid(1.0, 6)
    bundle = sample_noise(grid, 300, seed=9)
    dW, dY = _c_order_draw(grid, 300, seed=4)
    assert dW.flags.c_contiguous
    replaced = dataclasses.replace(bundle, dW=dW, dY=dY)
    _assert_time_contiguous(replaced)
    assert np.array_equal(replaced.dW, dW)
    assert np.array_equal(replaced.dY, dY)


def test_sampled_dY_is_drawn_on_first_read_with_the_eager_bits():
    grid = make_time_grid(1.0, 6)
    want_w, want_y = _c_order_draw(grid, 300, seed=9)
    bundle = sample_noise(grid, 300, seed=9)
    assert np.array_equal(bundle.dW, want_w)
    # reading dW does not draw dY, and the instance holds no dY until it is read
    assert "dY" not in vars(bundle)
    dY = bundle.dY
    assert np.array_equal(dY, want_y) and dY.flags.f_contiguous
    assert vars(bundle)["dY"] is dY and bundle.dY is dY
    # the prefix property holds for a lazily drawn dY, read in either order
    small, large = sample_noise(grid, 50, seed=9), sample_noise(grid, 400, seed=9)
    assert np.array_equal(large.dY[:50], small.dY)
    # a replaced bundle draws the same dY
    replaced = dataclasses.replace(sample_noise(grid, 300, seed=9), seed=None)
    assert np.array_equal(replaced.dY, want_y)


def test_noise_is_drawn_where_the_os_has_no_affinity_call(monkeypatch):
    grid = make_time_grid(1.0, 5)
    want = sample_noise(grid, 300, seed=4)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert paths._worker_count() == (os.cpu_count() or 1)
    bundle = sample_noise(grid, 300, seed=4)
    assert bundle.dW.tobytes() == want.dW.tobytes() and bundle.dY.tobytes() == want.dY.tobytes()
