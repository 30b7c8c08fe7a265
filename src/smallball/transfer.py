"""Deterministic tube probabilities by backward transition-operator sweeps.

For a Gaussian random walk X_0, X_1, ... with N(0, dt) increments this
module computes log P(X_i in [lo_i, hi_i] for all i | X_0 = x) on a grid of
starting points x: multiply by the band indicator, convolve with the step
kernel, repeat backwards. Probability of the discretely monitored tube is
exact up to the O(dx^2) spatial error; the continuous-time value follows
from two-resolution extrapolation of the O(sqrt(dt)) monitoring bias.

Everything here is deterministic, so results carry the ``analytic`` method
tag with zero stderr (the spatial error at default resolution sits near
1e-3 in the log, far below the Monte Carlo noise it is compared against).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DomainError
from .models import GaussianModel, WienerPath
from .norms import NormSpec

KERNEL_REACH = 8.0  # step-kernel truncation, in units of sqrt(dt)
CELLS_PER_STEP_SD = 8  # default spatial resolution: dx = sqrt(dt)/8
TILE = 64  # most output cells per block of the banded step operator
WEIGHT_CELLS = 2**15  # cell weights computed at once, over as many nodes as fit
REFINE = 4  # step-size ratio of the two sweeps a bias-corrected probability combines


def transfer_applies(model: GaussianModel, norm_spec: NormSpec) -> bool:
    """Whether a band sweep prices balls of this model and norm: a 1-d
    Brownian path under the sup norm over its whole horizon."""
    return (isinstance(model, WienerPath) and model.d == 1 and norm_spec.kind == "sup"
            and norm_spec.interval == (0.0, model.horizon))


def _cell_weights(left: np.ndarray, right: np.ndarray, dx: float, lo, hi) -> np.ndarray:
    """Fraction of each cell [left, right] = [x - dx/2, x + dx/2] covered
    by [lo, hi]; overwrites both edge arrays."""
    np.maximum(left, lo, out=left)
    np.minimum(right, hi, out=right)
    right -= left
    right /= dx
    np.maximum(right, 0.0, out=right)
    return np.minimum(right, 1.0, out=right)


def _sweep(lo: np.ndarray, hi: np.ndarray, dt: float, dx: float | None):
    """Backward sweep of a batch of bands, (B, N) each, one row per band.

    Row b lives on its own grid x0[b] + dx * j with x0[b] = lo[b].min() - 2dx.
    At node i only the row's active window is kept: the cells whose weight
    can be nonzero, +-1, which start at cell first[b, i] and share one
    length L across rows and nodes. One step moves every window by its own
    integer cell shift, gathers L + 2k inputs per row, and convolves all
    rows at once as one GEMM against a fixed (tile + 2k, tile) Toeplitz
    block of the 2k+1-tap kernel, tile <= TILE. Returns (x0, dx, first
    cell of the node-0 window, log-profile on that window); cells off the
    window are -inf, and a row whose band cannot be followed is -inf
    throughout.
    """
    if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[1] < 2:
        raise ConfigurationError("need equal-shape (bands, nodes) arrays with >= 2 nodes")
    if np.any(hi <= lo):
        raise DomainError("band width must be positive at every node")
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    sd = math.sqrt(dt)
    if dx is None:
        dx = sd / CELLS_PER_STEP_SD
    if dx <= 0:
        raise ConfigurationError(f"dx must be positive, got {dx}")
    n_bands, n_nodes = lo.shape
    x0 = lo.min(axis=1) - 2 * dx

    k = int(math.ceil(KERNEL_REACH * sd / dx))
    g = np.exp(-0.5 * ((np.arange(-k, k + 1) * dx) / sd) ** 2)
    g /= g.sum()

    first = np.floor((lo - x0[:, None]) / dx - 0.5).astype(np.int64)
    width = int((np.ceil((hi - x0[:, None]) / dx + 0.5) - first).max()) + 1
    n_tiles = -(-width // TILE)
    tile = -(-width // n_tiles)
    L = n_tiles * tile
    halo = tile + 2 * k
    # out[p] = sum_a U[p + a] g[2k - a], with U the input window padded by k
    lag = np.arange(tile)[None, :] - np.arange(halo)[:, None] + 2 * k
    op = np.where((lag >= 0) & (lag <= 2 * k), g[np.clip(lag, 0, 2 * k)], 0.0)

    # cell edges of every grid cell a window visits, read per node by window
    base = first.min()
    left = x0[:, None] + dx * np.arange(base, first.max() + L)
    right = left + 0.5 * dx
    left -= 0.5 * dx
    view = np.lib.stride_tricks.sliding_window_view
    left, right = view(left, L, axis=1), view(right, L, axis=1)

    # the live window sits at [pad, pad + L) of a zero-bordered buffer; the
    # shift from node i+1's window to node i's is clipped where no input
    # cell reaches the output either way
    pad = L + 2 * k
    buf = np.zeros((n_bands, 3 * L + 4 * k))
    live = buf[:, pad : pad + L]
    blocks = view(buf, halo, axis=1)
    starts = pad + np.clip(first[:, :-1] - first[:, 1:] - k, -pad, L)
    tiles = tile * np.arange(n_tiles)
    rows = np.arange(n_bands)[:, None]
    out = np.empty((n_bands * n_tiles, tile))
    log_scale = np.zeros(n_bands)

    per_chunk = max(1, WEIGHT_CELLS // (n_bands * L))
    for top in range(n_nodes - 1, -1, -per_chunk):
        nodes = slice(max(top - per_chunk + 1, 0), top + 1)
        cells = rows, first[:, nodes] - base
        weights = _cell_weights(left[cells], right[cells], dx, lo[:, nodes, None],
                                hi[:, nodes, None])
        for i in range(top, nodes.start - 1, -1):
            w = weights[:, i - nodes.start]
            if i == n_nodes - 1:
                live[...] = w
                continue
            at = starts[:, i, None] + tiles
            np.matmul(blocks[rows, at].reshape(-1, halo), op, out=out)
            v = out.reshape(n_bands, L)
            v *= w
            mx = np.maximum.reduce(v, axis=1)
            if not mx.all():  # a row that lost its band stays 0, hence -inf
                mx[mx == 0.0] = 1.0
            np.divide(v, mx[:, None], out=live)
            log_scale += np.log(mx)
    with np.errstate(divide="ignore"):
        return x0, dx, first[:, 0], np.log(live) + log_scale[:, None]


def band_log_profile(
    band_lo: np.ndarray, band_hi: np.ndarray, dt: float, dx: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Log-probability of staying in a moving band, per starting point.

    Returns (x, logv): logv[j] = log P(X_i in [band_lo[i], band_hi[i]]
    for all i = 0..n | X_0 = x[j]), -inf where the start is outside the
    first band. Bands are indexed by time node; len >= 2.
    """
    lo = np.asarray(band_lo, dtype=float)
    hi = np.asarray(band_hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or len(lo) < 2:
        raise ConfigurationError("need equal-length 1d band arrays with >= 2 nodes")
    x0, dx, first, window = _sweep(lo[None], hi[None], dt, dx)
    m = int(math.ceil((float(hi.max()) + 2 * dx - x0[0]) / dx)) + 1
    x = x0[0] + dx * np.arange(m)
    logv = np.full(m, -np.inf)
    a, b = max(first[0], 0), min(first[0] + window.shape[1], m)
    logv[a:b] = window[0, a - first[0] : b - first[0]]
    return x, logv


def _at_start(x: np.ndarray, logv: np.ndarray, start: float | None) -> float:
    """A profile read at one start (interpolated), or at its best start."""
    if start is None:
        return float(logv.max())
    finite = np.isfinite(logv)
    if not finite.any():
        return -math.inf
    xf, lf = x[finite], logv[finite]
    if start < xf[0] or start > xf[-1]:
        return -math.inf
    return float(np.interp(start, xf, lf))


def band_log_prob(
    band_lo, band_hi, dt: float, start: float | None = 0.0, dx: float | None = None
) -> float:
    """Log band-staying probability from a fixed start, or the best start.

    ``start=None`` maximizes over the starting point (the free-start tube
    cost); a numeric start interpolates the profile and is -inf outside
    the first band.
    """
    return _at_start(*band_log_profile(band_lo, band_hi, dt, dx), start)


def band_log_probs(
    band_lo, band_hi, dt: float, start: float | None = 0.0, dx: float | None = None
) -> np.ndarray:
    """``band_log_prob`` for a batch of bands, (B, N) arrays, in one sweep."""
    lo = np.asarray(band_lo, dtype=float)
    hi = np.asarray(band_hi, dtype=float)
    x0, dx, first, logv = _sweep(lo, hi, dt, dx)
    x = x0[:, None] + dx * (first[:, None] + np.arange(logv.shape[1]))
    return np.array([_at_start(xb, lb, start) for xb, lb in zip(x, logv)])


def refine_nodes(values: np.ndarray, factor: int) -> np.ndarray:
    """Insert factor-1 linearly interpolated nodes between adjacent ones,
    along the last axis."""
    if factor < 1:
        raise ConfigurationError("refinement factor must be >= 1")
    values = np.asarray(values, dtype=float)
    if factor == 1:
        return values
    n = values.shape[-1]
    t = np.arange(n, dtype=float)
    tf = np.linspace(0.0, n - 1.0, (n - 1) * factor + 1)
    return np.apply_along_axis(lambda v: np.interp(tf, t, v), -1, values)


def band_log_prob_extrapolated(
    band_lo,
    band_hi,
    dt: float,
    start: float | None = 0.0,
    dx: float | None = None,
) -> float | np.ndarray:
    """Monitoring-bias-corrected band probability.

    The discretely monitored tube overstates the staying probability with a
    leading error c*sqrt(dt); combining step sizes dt and dt/REFINE as
    (sqrt(REFINE)*fine - coarse) / (sqrt(REFINE) - 1) cancels it. One band
    (1-d arrays) gives a float; a (B, N) batch gives one value per row,
    from one coarse and one fine sweep.
    """
    lo = np.atleast_2d(np.asarray(band_lo, dtype=float))
    hi = np.atleast_2d(np.asarray(band_hi, dtype=float))
    coarse = band_log_probs(lo, hi, dt, start, dx)
    fine = band_log_probs(refine_nodes(lo, REFINE), refine_nodes(hi, REFINE), dt / REFINE, start, dx)
    r = math.sqrt(REFINE)
    out = (r * fine - coarse) / (r - 1.0)
    return float(out[0]) if np.ndim(band_lo) == 1 else out
