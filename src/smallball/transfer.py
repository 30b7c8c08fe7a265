"""Deterministic tube probabilities by backward transition-operator sweeps.

For a Gaussian random walk X_0, X_1, ... with N(0, dt) increments this
module computes log P(X_i in [lo_i, hi_i] for all i | X_0 = x) on a grid of
starting points x: multiply by the band indicator, convolve with the step
kernel, repeat backwards. Probability of the discretely monitored tube is
exact up to the O(dx^2) spatial error; the continuous-time value follows
from two-resolution extrapolation of the O(sqrt(dt)) monitoring bias.

Everything here is deterministic, so results carry the ``analytic`` method
tag with zero stderr (the spatial error at dx = sqrt(dt)/CELLS_PER_STEP_SD
sits near 1e-3 in the log, far below the Monte Carlo noise it is compared
against).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DomainError
from .models import GaussianModel, WienerPath
from .norms import NormSpec

KERNEL_REACH = 8.0  # step-kernel truncation, in units of sqrt(dt)
CELLS_PER_STEP_SD = 8  # spatial resolution: dx = sqrt(dt)/8
TILE = 64  # most output cells per block of the banded step operator
WEIGHT_CELLS = 2**15  # cell weights computed at once, over as many nodes as fit
EDGE_GUARD = 2  # cells inside a cut cell that still take the full weight formula
SPAN_CELLS = 2**12  # band edges read at once (rows x nodes)
REFINE = 4  # step-size ratio of the two sweeps a bias-corrected probability combines;
# a power of two, which _refined_edges needs to reproduce whole-band floats


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


def _spans(n_nodes: int, size: int):
    """Node slices of at most ``size`` nodes, from the last node down."""
    for top in range(n_nodes, 0, -size):
        yield slice(max(top - size, 0), top)


def _offsets(lo: np.ndarray, hi: np.ndarray, x0: np.ndarray, dx: float):
    """Window offsets in cells at a span of nodes, through one float
    scratch: each node's window starts at grid cell ``first``, and its upper
    band edge cuts window cell ``upper`` - 1."""
    scratch = lo - x0[:, None]
    scratch /= dx
    scratch -= 0.5
    first = np.floor(scratch, out=scratch).astype(np.int32)
    np.subtract(hi, x0[:, None], out=scratch)
    scratch /= dx
    scratch += 0.5
    np.ceil(scratch, out=scratch)
    scratch -= first
    return first, scratch.astype(np.int32)


def _shifts(first: np.ndarray, after: np.ndarray | None) -> np.ndarray:
    """Cells each node's window starts past the next node's, first[i] -
    first[i+1], over a span; ``after`` is first at the node after the span,
    None when the span ends the band, whose last node takes no step."""
    shift = np.empty_like(first)
    np.subtract(first[:, :-1], first[:, 1:], out=shift[:, :-1])
    np.subtract(first[:, -1], first[:, -1] if after is None else after, out=shift[:, -1])
    return shift


def _sweep(lo: np.ndarray, hi: np.ndarray, dt: float):
    """Backward sweep of a batch of bands, (B, N) arrays, one row per band;
    see ``_sweep_edges``."""
    if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[1] < 2:
        raise ConfigurationError("need equal-shape (bands, nodes) arrays with >= 2 nodes")
    return _sweep_edges(_band_edges(lo, hi), lo.shape, dt)


def _band_edges(lo: np.ndarray, hi: np.ndarray):
    """Edges of (B, N) bands, per span of nodes."""
    return lambda s: (lo[:, s], hi[:, s])


def _tube_edges(centers: np.ndarray, eps):
    """Edges of the tubes of radius eps (a scalar, or one per row) around
    (B, N) centers, formed per span: the floats of slicing c - e and c + e."""
    e = eps[:, None] if np.ndim(eps) else eps

    def edges(s):
        c = centers[:, s]
        return c - e, c + e
    return edges


def _refined_edges(edges, n_nodes: int, factor: int):
    """The edges of n_nodes coarse nodes with factor-1 linearly interpolated
    nodes between adjacent ones, per span of fine nodes: each span
    interpolates only the coarse nodes it covers, into the floats that
    np.interp gives over the whole band at np.linspace's positions. The
    factor is a power of two, so fine positions are short binary fractions."""
    last = (n_nodes - 1) * factor

    def fine(s):
        # np.linspace(0, n - 1, last + 1) is j times its step, the rounded
        # (n - 1) / last = 1 / factor, with the last node set to n - 1
        t = np.arange(s.start, s.stop) * (1.0 / factor)
        if s.stop > last:
            t[-1] = n_nodes - 1.0
        a = s.start // factor
        coarse = edges(slice(a, min((s.stop - 1) // factor + 2, n_nodes)))
        # one np.interp for all rows: row r's coarse nodes sit at r*m + j,
        # and its fine nodes as far past r*m as past coarse node a. These
        # shifts are exact, and so is every difference the interpolation
        # forms, so each row reads the floats of its own np.interp
        n_rows, m = coarse[0].shape
        x = (m * np.arange(n_rows)[:, None] + (t - a)).ravel()
        xp = np.arange(n_rows * m, dtype=float)
        return tuple(np.interp(x, xp, v.ravel()).reshape(n_rows, -1) for v in coarse)
    return fine


def _sweep_edges(edges, shape: tuple[int, int], dt: float):
    """Backward sweep of a batch of B bands on N nodes, whose edges
    ``edges(nodes)`` gives as (B, span) arrays per slice of nodes.

    Row b lives on its own grid x0[b] + dx * j with x0[b] = lo[b].min() - 2dx.
    At node i only the row's active window is kept: the cells whose weight
    can be nonzero, +-1, which start at cell first[b, i] and share one
    length L across rows and nodes. One step moves every window by its own
    integer cell shift, gathers L + 2k inputs per row, and convolves all
    rows at once as one GEMM against a fixed (tile + 2k, tile) Toeplitz
    block of the 2k+1-tap kernel, tile <= TILE. A band edge cuts one cell
    of a window: window cell 1 at the lower edge, window cell cut[b, i] at
    the upper. Only those cells and the EDGE_GUARD cells inside each take
    the full weight formula; every other cell clears the band on both
    sides, where the formula gives exactly the cell's own width fraction,
    computed once per sweep. Edges are read a span of about SPAN_CELLS
    (rows x nodes) at a time: twice up front for x0 and the extremes that
    size the buffers, and once in the backward loop, which computes the
    offsets of one span at a time. Apart from the own fractions, a sweep so
    holds O(B * L) and one span, whatever N is. Returns (x0, dx, first cell
    of the node-0 window, log-profile on that window); cells off the window
    are -inf, and a row whose band cannot be followed is -inf throughout.
    """
    n_bands, n_nodes = shape
    span = max(1, SPAN_CELLS // n_bands)
    lo_min = np.full(n_bands, np.inf)
    hi_max = np.full(n_bands, -np.inf)
    for s in _spans(n_nodes, span):
        lo, hi = edges(s)
        if np.any(hi <= lo):
            raise DomainError("band width must be positive at every node")
        np.minimum(lo_min, lo.min(axis=1), out=lo_min)
        np.maximum(hi_max, hi.max(axis=1), out=hi_max)
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    sd = math.sqrt(dt)
    dx = sd / CELLS_PER_STEP_SD
    x0 = lo_min - 2 * dx
    if np.max(hi_max - x0) / dx >= 2**31 - 1:  # window offsets are int32
        raise DomainError("a band spans more than 2**31 grid cells")

    # the extremes of the offsets: window width, first cells, and shifts
    # between nodes' windows
    width, base, top_cell, shift_lo, shift_hi = 0, 2**31, -(2**31), 0, 0
    after = None
    for s in _spans(n_nodes, span):
        first, upper = _offsets(*edges(s), x0, dx)
        shift = _shifts(first, after)
        width = max(width, int(upper.max()) + 1)
        base, top_cell = min(base, int(first.min())), max(top_cell, int(first.max()))
        shift_lo, shift_hi = min(shift_lo, int(shift.min())), max(shift_hi, int(shift.max()))
        after = first[:, 0]

    k = int(math.ceil(KERNEL_REACH * sd / dx))
    g = np.exp(-0.5 * ((np.arange(-k, k + 1) * dx) / sd) ** 2)
    g /= g.sum()
    n_tiles = -(-width // TILE)
    tile = -(-width // n_tiles)
    L = n_tiles * tile
    halo = tile + 2 * k
    # out[p] = sum_a U[p + a] g[2k - a], with U the input window padded by k
    lag = np.arange(tile)[None, :] - np.arange(halo)[:, None] + 2 * k
    op = np.where((lag >= 0) & (lag <= 2 * k), g[np.clip(lag, 0, 2 * k)], 0.0)

    # the own width fraction of every grid cell a window visits, read per
    # node by window; a few rows at a time, so no whole-grid edge array
    own = np.empty((n_bands, top_cell + L - base))
    offsets = dx * np.arange(base, base + own.shape[1])
    per_block = max(1, WEIGHT_CELLS // own.shape[1])
    for r in range(0, n_bands, per_block):
        c = x0[r : r + per_block, None] + offsets
        own[r : r + per_block] = _cell_weights(c - 0.5 * dx, c + 0.5 * dx, dx, -np.inf, np.inf)
    view = np.lib.stride_tricks.sliding_window_view
    windows = view(own, L, axis=1)

    # the live window sits at [pad, pad + L) of a zero-bordered buffer, with
    # pad = k + the largest shift between nodes' windows; a shift is clipped
    # only past L + k cells, where no input cell reaches the output either way
    reach = min(max(shift_hi, -shift_lo), L + k)
    pad = k + reach
    buf = np.zeros((n_bands, L + 2 * pad))
    live = buf[:, pad : pad + L]
    blocks = view(buf, halo, axis=1)
    tiles = tile * np.arange(n_tiles)
    rows = np.arange(n_bands)[:, None]
    out = np.empty((n_bands * n_tiles, tile))
    log_scale = np.zeros(n_bands)

    per_chunk = max(1, WEIGHT_CELLS // (n_bands * L))
    head = 2 + EDGE_GUARD  # cell 0, the cell 1 a lower edge cuts, and its guard
    after = None
    # spans of whole weight chunks, so every chunk is the one it would be
    # with the offsets of the whole band at hand
    for s in _spans(n_nodes, per_chunk * max(1, SPAN_CELLS // (n_bands * per_chunk))):
        lo, hi = edges(s)
        first, cut = _offsets(lo, hi, x0, dx)
        cut -= 1
        starts = _shifts(first, after)
        starts -= k
        np.clip(starts, -pad, reach - k, out=starts)
        starts += pad
        after = first[:, 0]
        for top in range(s.stop - 1 - s.start, -1, -per_chunk):  # in span nodes
            nodes = slice(max(top - per_chunk + 1, 0), top + 1)
            weights = windows[rows, first[:, nodes] - base]
            # the full formula on the head, and from the guard below the
            # leftmost cell an upper edge cuts to the window's end
            upper = int(cut[:, nodes].min()) - EDGE_GUARD
            for a, b in ((0, L),) if upper <= head else ((0, head), (upper, L)):
                c = x0[:, None, None] + dx * (first[:, nodes, None] + np.arange(a, b))
                weights[..., a:b] = _cell_weights(c - 0.5 * dx, c + 0.5 * dx, dx,
                                                  lo[:, nodes, None], hi[:, nodes, None])
            for i in range(top, nodes.start - 1, -1):
                w = weights[:, i - nodes.start]
                if s.start + i == n_nodes - 1:
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
        logv = np.log(live, out=out.reshape(n_bands, L))
    logv += log_scale[:, None]
    return x0, dx, first[:, 0], logv


def band_log_profile(
    band_lo: np.ndarray, band_hi: np.ndarray, dt: float
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
    x0, dx, first, window = _sweep(lo[None], hi[None], dt)
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


def band_log_prob(band_lo, band_hi, dt: float, start: float | None = 0.0) -> float:
    """Log band-staying probability from a fixed start, or the best start.

    ``start=None`` maximizes over the starting point (the free-start tube
    cost); a numeric start interpolates the profile and is -inf outside
    the first band.
    """
    return _at_start(*band_log_profile(band_lo, band_hi, dt), start)


def _log_probs(sweep, start: float | None) -> np.ndarray:
    x0, dx, first, logv = sweep
    x = x0[:, None] + dx * (first[:, None] + np.arange(logv.shape[1]))
    return np.array([_at_start(xb, lb, start) for xb, lb in zip(x, logv)])


def band_log_probs(band_lo, band_hi, dt: float, start: float | None = 0.0) -> np.ndarray:
    """``band_log_prob`` for a batch of bands, (B, N) arrays, in one sweep."""
    lo = np.asarray(band_lo, dtype=float)
    hi = np.asarray(band_hi, dtype=float)
    return _log_probs(_sweep(lo, hi, dt), start)


def tube_log_probs(centers, eps, dt: float, start: float | None = 0.0) -> np.ndarray:
    """``band_log_probs`` of the tubes [c - eps, c + eps] around a batch of
    (B, N) centers, eps one radius or one per center, in one sweep that
    forms each tube's edges a span of nodes at a time; the same floats as
    ``band_log_probs(c - eps, c + eps)``."""
    c = np.asarray(centers, dtype=float)
    e = np.asarray(eps, dtype=float)
    if c.ndim != 2 or c.shape[1] < 2 or e.ndim > 1 or e.size not in (1, len(c)):
        raise ConfigurationError("need (centers, nodes) centers with >= 2 nodes and "
                                 "one radius or one per center")
    return _log_probs(_sweep_edges(_tube_edges(c, e), c.shape, dt), start)


def band_log_prob_extrapolated(
    band_lo, band_hi, dt: float, start: float | None = 0.0
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
    coarse = band_log_probs(lo, hi, dt, start)
    n_bands, n_nodes = lo.shape
    fine_edges = _refined_edges(_band_edges(lo, hi), n_nodes, REFINE)
    fine = _log_probs(_sweep_edges(fine_edges, (n_bands, (n_nodes - 1) * REFINE + 1), dt / REFINE),
                      start)
    r = math.sqrt(REFINE)
    out = (r * fine - coarse) / (r - 1.0)
    return float(out[0]) if np.ndim(band_lo) == 1 else out
