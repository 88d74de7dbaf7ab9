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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FbsdeError

MAX_BINOMIAL_PATHS = 10**6
DRAW_BLOCK = 8192


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
    averaged with a plain mean.  A bundle from ``sample_noise`` draws dY on
    its first read; until then the instance holds no dY.
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
        # reached only for an attribute the instance does not hold: an undrawn dY
        state = vars(self)
        if name != "dY" or "_dY_child" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state["dY"] = _draw(state["_dY_child"], self.dW.shape, np.sqrt(self.grid.dt))
        del state["_dY_child"]
        return state["dY"]

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]


def _draw(child: np.random.SeedSequence, shape: tuple[int, int], scale: float) -> np.ndarray:
    """Standard normals from ``child``'s Philox stream, filled path-major and
    scaled into a column-major matrix.

    The stream is drawn in blocks of ``DRAW_BLOCK`` paths into one held
    block, each scaled into its rows of the matrix: the bits of a single
    path-major draw of the whole matrix, without its (P, N) temporary.
    """
    n_paths, steps = shape
    out = np.empty(shape, order="F")
    generator = np.random.Generator(np.random.Philox(child))
    block = np.empty((min(DRAW_BLOCK, n_paths), steps))
    for start in range(0, n_paths, DRAW_BLOCK):
        rows = block[: min(DRAW_BLOCK, n_paths - start)]
        generator.standard_normal(out=rows)
        np.multiply(rows, scale, out=out[start : start + rows.shape[0]])
    return out


def sample_noise(grid: TimeGrid, n_paths: int, seed: int) -> NoiseBundle:
    """Draw Gaussian increments, reproducibly.

    W and Y come from two spawned Philox substreams, each filled path-major,
    so a bundle with fewer paths is a bitwise prefix of a larger one drawn
    from the same seed.  The scaling pass writes each block of paths into
    the column-major matrix.  dW is drawn here and dY on its first read,
    from the same substream, so every reader gets the same bits and a run
    that never reads dY never draws it.
    """
    if n_paths < 1:
        raise FbsdeError(f"n_paths must be >= 1, got {n_paths}")
    w_child, y_child = np.random.SeedSequence(seed).spawn(2)
    dW = _draw(w_child, (n_paths, grid.steps), np.sqrt(grid.dt))
    bundle = object.__new__(NoiseBundle)
    vars(bundle).update(grid=grid, dW=dW, seed=seed, _dY_child=y_child)
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

