"""Time grids and driving-noise generation.

Two one-dimensional noise streams drive every simulation: increments of the
internal Brownian motion W and of the observation process Y, independent
under the reference measure.  Bundles are either Gaussian Monte-Carlo draws
or the exhaustive binomial (+/- sqrt(dt)) enumeration used by the oracle.
Every bundle stores its increments time-contiguous: ``(paths, steps)``
matrices in column-major order, so the column a sweep reads at one step is
contiguous.  The layout changes no value and not the prefix property.  A
Monte-Carlo bundle draws dY on its first read, from the same substream it
was always drawn from, so a run whose instance reads no dY (sigma2 and h
structurally zero) never draws it and every reader gets the same bits.

Paths are independent, so the per-path sweeps (the forward Euler step, the
per-path cost and the per-path work of each reversed adjoint step) run on
contiguous path shards, one per core the process may use and at least
``MIN_SHARD_PATHS`` paths each, on a thread pool started on first use; the
dW draw runs on the same pool while the reader draws dY, and so do the
regression statistics a sharded adjoint prepares a step ahead
(``bsde.ConditionalExpectation.prefetching``).  numpy releases the
interpreter lock inside its loops, so these run at once.  Every path sees
the same operations in the same order on any shard, and each reduction
across paths (the fits and their statistics, means and stderrs) runs over
all paths, on one thread, in one order, so no output depends on the core
count.  Only the calling thread waits on pool work (``_on_pool``).

A sweep that runs fits between its shard calls (the adjoint) holds BLAS to
one thread while it runs on more than one shard (``_blas_for_shards``):
after a multithreaded fit, OpenBLAS's worker thread spins on the core the
next shard needs.  The OpenBLAS call is looked up on the first such sweep,
not at import; where numpy links no OpenBLAS the hold does nothing, and
the bits are the same either way.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import FbsdeError

MAX_BINOMIAL_PATHS = 10**6
DRAW_BLOCK = 8192
# fewest paths a shard holds.  On 2 cores (numpy 2.4.6, 64 steps) two shards
# of 16384 paths only break even with one sweep; two of 32768 are faster on
# every built-in family
MIN_SHARD_PATHS = 32768


def _worker_count() -> int:
    """Cores this process may run on; every core where the OS has no
    affinity call (macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_threads_setter() -> Callable[[int], int] | None:
    """OpenBLAS's ``openblas_set_num_threads_local`` as linked into numpy,
    or None where numpy links no OpenBLAS.

    Looked up through numpy's extension module, whose dependencies a
    ``dlsym`` on it searches, so it finds the bundled
    ``libscipy_openblas64_*`` and a system OpenBLAS alike.  The call sets
    the count and returns the one it replaces.  Measured with numpy 2.4.6's
    OpenBLAS 0.3.31, the count holds on every thread of the process, not on
    the calling thread alone.
    """
    try:
        from numpy._core import _multiarray_umath

        setter = ctypes.CDLL(_multiarray_umath.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


class _ShardPool:
    """The threads the shards beyond the caller's own run on, started on
    first use and shared by every caller in the process, and the count of
    sweeps holding BLAS single-threaded."""

    def __init__(self) -> None:
        self.forget()

    def forget(self) -> None:
        # also run in a forked child, which holds the executor but none of its threads
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._blas_holds = 0
        self._blas_prior = 0

    @contextlib.contextmanager
    def single_threaded_blas(self) -> Iterator[None]:
        """BLAS on one thread from entry to exit, also on a raise; a no-op
        where numpy links no OpenBLAS.  The count is the process's, so the
        first of overlapping holders sets it and the last restores it."""
        setter = _blas_threads_setter()
        if setter is None:
            yield
            return
        with self._lock:
            if self._blas_holds == 0:
                self._blas_prior = setter(1)
            self._blas_holds += 1
        try:
            yield
        finally:
            with self._lock:
                self._blas_holds -= 1
                if self._blas_holds == 0:
                    setter(self._blas_prior)

    def submit(self, fn: Callable, *args) -> Future:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(1, _worker_count() - 1), thread_name_prefix="fbsde-shard"
                )
        return self._executor.submit(fn, *args)


_POOL = _ShardPool()
os.register_at_fork(after_in_child=_POOL.forget)


def _shard_count(n_paths: int) -> int:
    """How many path shards ``n_paths`` paths run on:
    ``min(cores, n_paths // MIN_SHARD_PATHS)``, at least one."""
    return max(1, min(_worker_count(), n_paths // MIN_SHARD_PATHS))


def _blas_for_shards(n_paths: int) -> contextlib.AbstractContextManager:
    """What a sweep over ``n_paths`` paths that runs fits between its shard
    calls holds BLAS to: one thread where it runs on more than one shard.

    Left alone, OpenBLAS runs each step's fits on a worker thread too, which
    then spins on the core the next shard needs: measured on 2 cores with
    numpy 2.4.6 (OpenBLAS 0.3.31), scalar_nonlinear at 100k x 64, the
    adjoint's per-path phase took 0.60 s on one shard and on two, and 0.31 s
    on two shards with BLAS single-threaded; the fits take as long on one
    BLAS thread as on two.
    """
    return _POOL.single_threaded_blas() if _shard_count(n_paths) > 1 else contextlib.nullcontext()


def _on_pool(fn: Callable, *args) -> Future:
    """``fn(*args)`` on the shard pool, in a copy of the caller's context,
    so numpy's floating-point error state (``np.errstate``) holds there.

    Only the calling thread may wait on the future: the pool may have a
    single thread, which a task waiting on another task would deadlock.
    """
    return _POOL.submit(contextvars.copy_context().run, fn, *args)


def _on_path_shards(fn: Callable[[int, int], None], n_paths: int) -> None:
    """``fn(lo, hi)`` on each contiguous shard ``[lo, hi)`` of ``[0, n_paths)``.

    There are ``_shard_count(n_paths)`` shards.  The calling thread runs
    the first and the pool the rest (``_on_pool``), so numpy's
    floating-point error state holds on every shard.  Every shard finishes
    before this returns or raises.

    If a shard raised, ``fn(0, n_paths)`` then runs on the calling thread,
    so the exception raised is the one the single sweep meets first; where
    that run raises nothing (a fault met only on a pool thread), the first
    failed shard's exception, in shard order, is raised.  This needs what
    ``fn`` raises to depend only on what it reads, not on what a failed run
    left in what it writes.
    """
    count = _shard_count(n_paths)
    bounds = [n_paths * s // count for s in range(count + 1)]
    if count == 1:
        fn(0, n_paths)
        return
    futures = [_on_pool(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(bounds[0], bounds[1])
        failures = []
    except Exception as exc:
        failures = [exc]
    finally:
        wait(futures)
    failures += [future.exception() for future in futures if future.exception() is not None]
    if failures:
        fn(0, n_paths)
        raise failures[0]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt on [0, T] with N steps."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise FbsdeError(f"horizon must be a positive real, got {self.horizon}")
        if self.steps < 1:
            raise FbsdeError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def matches(self, other: "TimeGrid") -> bool:
        return self.steps == other.steps and abs(self.horizon - other.horizon) <= 1e-12


def make_time_grid(horizon: float, steps: int) -> TimeGrid:
    return TimeGrid(horizon=float(horizon), steps=int(steps))


@dataclass(frozen=True)
class NoiseBundle:
    """Per-path increment matrices for (W, Y), plus the seed that drew them.

    ``dW`` and ``dY`` have shape ``(paths, steps)`` and are stored
    column-major (time-contiguous) however the bundle was built, because a
    sweep reads one step's column at a time.  Every path carries the same
    weight: Monte-Carlo draws and the binomial enumeration alike are
    averaged with a plain mean.  A bundle from ``sample_noise`` may still be
    drawing dW on another thread: its first read of dW waits for the draw.
    It draws dY on its first read, on the reading thread; until then the
    instance holds no dY.
    """

    grid: TimeGrid
    dW: np.ndarray
    dY: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.dW.shape != self.dY.shape:
            raise FbsdeError("dW and dY must have identical shape")
        if self.dW.ndim != 2 or self.dW.shape[1] != self.grid.steps:
            raise FbsdeError(
                f"increment matrices must be (paths, {self.grid.steps}), got {self.dW.shape}"
            )
        object.__setattr__(self, "dW", np.asfortranarray(self.dW))
        object.__setattr__(self, "dY", np.asfortranarray(self.dY))

    def __getattr__(self, name: str):
        # reached only for an attribute the instance does not hold: a dW
        # still being drawn or an undrawn dY
        state = vars(self)
        if name == "dW" and "_dW_draw" in state:
            dW, drawing = state["_dW_draw"]
            drawing.result()
            state["dW"] = dW
            del state["_dW_draw"]
            return dW
        if name == "dY" and "_dY_child" in state:
            child, shape = state["_dY_child"]
            state["dY"] = _draw(child, shape, np.sqrt(self.grid.dt))
            del state["_dY_child"]
            return state["dY"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def n_paths(self) -> int:
        # known without waiting for a dW still being drawn
        pending = vars(self).get("_dW_draw")
        return (self.dW if pending is None else pending[0]).shape[0]


def _buffers(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A column-major ``shape`` matrix and the block of paths it is drawn
    through."""
    n_paths, steps = shape
    return np.empty(shape, order="F"), np.empty((min(DRAW_BLOCK, n_paths), steps))


def _fill(child: np.random.SeedSequence, out: np.ndarray, block: np.ndarray, scale: float) -> None:
    """Standard normals from ``child``'s Philox stream, filled path-major and
    scaled into the column-major ``out``.

    The stream is drawn in blocks of ``DRAW_BLOCK`` paths into ``block``,
    each scaled into its rows of ``out``: the bits of a single path-major
    draw of the whole matrix, without its (P, N) temporary.
    """
    n_paths = out.shape[0]
    generator = np.random.Generator(np.random.Philox(child))
    for start in range(0, n_paths, DRAW_BLOCK):
        rows = block[: min(DRAW_BLOCK, n_paths - start)]
        generator.standard_normal(out=rows)
        np.multiply(rows, scale, out=out[start : start + rows.shape[0]])


def _draw(child: np.random.SeedSequence, shape: tuple[int, int], scale: float) -> np.ndarray:
    out, block = _buffers(shape)
    _fill(child, out, block, scale)
    return out


def sample_noise(grid: TimeGrid, n_paths: int, seed: int) -> NoiseBundle:
    """Draw Gaussian increments, reproducibly.

    W and Y come from two spawned Philox substreams, each filled path-major,
    so a bundle with fewer paths is a bitwise prefix of a larger one drawn
    from the same seed.  The scaling pass writes each block of paths into
    the column-major matrix.  The dW matrix and its block are allocated
    here; with more than one core the draw runs on the shard pool, and the
    first read of dW waits for it.  dY is drawn on its first read, from the
    same substream, so every reader gets the same bits and a run that never
    reads dY never draws it.  A reader of both that reads dY first
    (``simulate_forward``) draws it while dW is being drawn.
    """
    if n_paths < 1:
        raise FbsdeError(f"n_paths must be >= 1, got {n_paths}")
    shape = (n_paths, grid.steps)
    w_child, y_child = np.random.SeedSequence(seed).spawn(2)
    dW, block = _buffers(shape)
    bundle = object.__new__(NoiseBundle)
    state = vars(bundle)
    state.update(grid=grid, seed=seed, _dY_child=(y_child, shape))
    scale = np.sqrt(grid.dt)
    if _worker_count() > 1:
        state["_dW_draw"] = (dW, _POOL.submit(_fill, w_child, dW, block, scale))
    else:
        _fill(w_child, dW, block, scale)
        state["dW"] = dW
    return bundle


def binomial_signs(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign matrices (+/-1) of all 4**steps joint (W, Y) sign paths.

    Path index encodes step 0 in the most significant crumb, so paths
    sharing a history prefix occupy contiguous index blocks.
    """
    n_paths = 4**steps
    idx = np.arange(n_paths, dtype=np.int64)
    shifts = 2 * (steps - 1 - np.arange(steps, dtype=np.int64))
    crumbs = (idx[:, None] >> shifts[None, :]) & 3
    sw = 2 * (crumbs & 1) - 1
    sy = 2 * ((crumbs >> 1) & 1) - 1
    return sw.astype(np.float64), sy.astype(np.float64)


def enumerate_binomial(grid: TimeGrid) -> NoiseBundle:
    """All 4**N equally likely sign paths with increments +/- sqrt(dt)."""
    n_paths = 4**grid.steps
    if n_paths > MAX_BINOMIAL_PATHS:
        raise FbsdeError(
            f"binomial enumeration needs 4^{grid.steps} = {n_paths} paths, "
            f"over the {MAX_BINOMIAL_PATHS} budget (use N <= 9)"
        )
    sw, sy = binomial_signs(grid.steps)
    scale = np.sqrt(grid.dt)
    return NoiseBundle(grid=grid, dW=sw * scale, dY=sy * scale)

