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
FORMULA_CELLS = 2**13  # cut-cell weights and GEMM offsets computed at once
LEAST = math.ulp(0.0)  # the least positive float
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
    return _sweep_edges(_band_edges(lo, hi), lo.shape, dt)


def _band_edges(lo: np.ndarray, hi: np.ndarray):
    """Edges of (B, N) bands, per span of nodes."""
    if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[1] < 2:
        raise ConfigurationError("need equal-shape (bands, nodes) arrays with >= 2 nodes")
    return lambda s: (lo[:, s], hi[:, s])


def _tube_edges(centers: np.ndarray, eps: np.ndarray):
    """Edges of the tubes of radius eps (a scalar, or one per row) around
    (B, N) centers, formed per span: the floats of slicing c - e and c + e."""
    if (centers.ndim != 2 or centers.shape[1] < 2 or eps.ndim > 1
            or eps.size not in (1, len(centers))):
        raise ConfigurationError("need (centers, nodes) centers with >= 2 nodes and "
                                 "one radius or one per center")
    e = eps[:, None] if eps.ndim else eps

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
    holds O(B * L) and one span, whatever N is.

    A step is five numpy calls: the GEMM-input gather, the GEMM, the weight
    multiply, the row max and the divide, so a pool's sweep threads spend
    most of a step outside the interpreter lock. The rest is done once per
    block of about FORMULA_CELLS (rows x nodes x cells): the GEMM offsets,
    the full formula on the block's edge cells, and the log scale, whose
    row maxima one accumulate adds in node order, the floats of adding them
    one node at a time. Returns (x0, dx, first cell of the node-0 window,
    log-profile on that window); cells off the window are -inf, and a row
    whose band cannot be followed is -inf throughout.
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
    del lag

    # the own width fraction of every grid cell a window visits, read per
    # node by window; a few rows at a time, so no whole-grid edge array
    own = np.empty((n_bands, top_cell + L - base))
    offsets = dx * np.arange(base, base + own.shape[1])
    per_block = max(1, WEIGHT_CELLS // own.shape[1])
    for r in range(0, n_bands, per_block):
        c = x0[r : r + per_block, None] + offsets
        own[r : r + per_block] = _cell_weights(c - 0.5 * dx, c + 0.5 * dx, dx, -np.inf, np.inf)
    del c
    view = np.lib.stride_tricks.sliding_window_view
    windows = view(own, L, axis=1)

    # the live window sits at [pad, pad + L) of a zero-bordered buffer, with
    # pad = k + the largest shift between nodes' windows; a shift is clipped
    # only past L + k cells, where no input cell reaches the output either way
    reach = min(max(shift_hi, -shift_lo), L + k)
    pad = k + reach
    buf = np.zeros((n_bands, L + 2 * pad))
    live = buf[:, pad : pad + L]

    per_chunk = max(1, WEIGHT_CELLS // (n_bands * L))
    # spans of whole weight chunks, so every chunk is the one it would be
    # with the offsets of the whole band at hand
    span = per_chunk * max(1, SPAN_CELLS // (n_bands * per_chunk))
    head = 2 + EDGE_GUARD  # cell 0, the cell 1 a lower edge cuts, and its guard
    head_cells = np.arange(head)
    band_rows = np.arange(n_bands)
    # every band's GEMM rows come from one flat view of the buffer, so a
    # step gathers its input with one index row, (B * n_tiles,) per node
    gemm_rows = view(buf.reshape(-1), halo)
    tile_rows = buf.shape[1] * band_rows[:, None] + tile * np.arange(n_tiles)
    out = np.empty((n_bands * n_tiles, tile))
    v = out.reshape(n_bands, L)
    log_scale = np.zeros((n_bands, 1))
    after = None
    for s in _spans(n_nodes, span):
        lo, hi = edges(s)
        first, tail = _offsets(lo, hi, x0, dx)
        starts = _shifts(first, after)
        starts -= k
        np.clip(starts, -pad, reach - k, out=starts)
        starts += pad
        after = first[:, 0]
        n_span = s.stop - s.start
        # node-major from here, so the weights and formula cells of a node
        # are one contiguous (B, cells) array
        first, starts, lo, hi = first.T, starts.T[:, :, None], lo.T[:, :, None], hi.T[:, :, None]
        # where the full formula's tail starts: the guard below the cell an
        # upper edge cuts, at its leftmost over the rows
        tail = tail.min(axis=0)
        tail -= 1 + EDGE_GUARD
        # blocks of whole chunks, sized by their formula cells (head and
        # tail, at the span's longest tail) and GEMM offsets
        n_cells = head + L - int(tail.min()) + n_tiles
        block = per_chunk * max(1, FORMULA_CELLS // (n_bands * per_chunk * n_cells))
        last = n_nodes - 1 - s.start  # takes no step
        for b_top in range(n_span - 1, -1, -block):
            b = slice(max(b_top - block + 1, 0), b_top + 1)
            # the GEMM rows of every node, its window in the own fractions,
            # and the full formula on the head and from the block's leftmost
            # tail to the window's end
            at = (starts[b] + tile_rows).reshape(b.stop - b.start, -1)
            own_at = first[b] - base
            upper = int(tail[b].min())
            cells = np.arange(L) if upper <= head else np.concatenate((head_cells, np.arange(upper, L)))
            formula = np.add(first[b, :, None], cells, dtype=float)
            formula *= dx
            formula += x0[:, None]
            left = formula - 0.5 * dx
            formula += 0.5 * dx
            _cell_weights(left, formula, dx, lo[b], hi[b])
            del left
            # the running log scale, then the row maxima of the block's
            # steps, which one accumulate adds to it in node order
            scale = np.empty((b.stop - b.start + 1, n_bands, 1))
            scale[0] = log_scale
            n = 0
            for top in range(b_top - b.start, -1, -per_chunk):
                nodes = slice(max(top - per_chunk + 1, 0), top + 1)
                if upper <= head:
                    weights = formula[nodes]
                else:
                    weights = windows[band_rows, own_at[nodes]]
                    weights[..., :head] = formula[nodes, :, :head]
                    weights[..., upper:] = formula[nodes, :, head:]
                # one step per node: gather, GEMM, weigh, row max, rescale.
                # The max starts from the least positive float, below every
                # positive max, so a row that lost its band divides 0 by it
                # and stays 0, hence -inf
                for i in range(top, nodes.start - 1, -1):
                    w = weights[i - nodes.start]
                    if b.start + i == last:
                        live[...] = w
                        continue
                    np.matmul(gemm_rows[at[i]], op, out=out)
                    v *= w
                    n += 1
                    mx = scale[n]
                    np.maximum.reduce(v, axis=1, keepdims=True, out=mx, initial=LEAST)
                    np.divide(v, mx, out=live)
                # each array goes before the next of its kind is made, so
                # no two chunks' or blocks' arrays are held at once
                del weights, w
            del formula, at, own_at
            np.log(scale[1 : n + 1], out=scale[1 : n + 1])
            np.add.accumulate(scale[: n + 1], axis=0, out=scale[: n + 1])
            log_scale = scale[n]
    with np.errstate(divide="ignore"):
        logv = np.log(live, out=out.reshape(n_bands, L))
    logv += log_scale
    return x0, dx, first[0], logv


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
    return _log_probs(_sweep_edges(_tube_edges(c, np.asarray(eps, dtype=float)), c.shape, dt),
                      start)


def _extrapolated(edges, shape: tuple[int, int], dt: float, start: float | None) -> np.ndarray:
    """The bias-corrected log-probabilities of B bands on N nodes, whose
    edges ``edges(nodes)`` gives per slice of nodes: one sweep at dt, and one
    at dt / REFINE on the edges refined per span."""
    n_bands, n_nodes = shape
    coarse = _log_probs(_sweep_edges(edges, shape, dt), start)
    fine_edges = _refined_edges(edges, n_nodes, REFINE)
    fine = _log_probs(_sweep_edges(fine_edges, (n_bands, (n_nodes - 1) * REFINE + 1), dt / REFINE),
                      start)
    r = math.sqrt(REFINE)
    return (r * fine - coarse) / (r - 1.0)


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
    out = _extrapolated(_band_edges(lo, hi), lo.shape, dt, start)
    return float(out[0]) if np.ndim(band_lo) == 1 else out


def tube_log_prob_extrapolated(centers, eps, dt: float, start: float | None = 0.0) -> np.ndarray:
    """``band_log_prob_extrapolated`` of the tubes [c - eps, c + eps] around
    a batch of (B, N) centers, eps one radius or one per center, with each
    tube's edges formed a span of nodes at a time in both sweeps; the same
    floats as ``band_log_prob_extrapolated(c - eps, c + eps)``."""
    c = np.asarray(centers, dtype=float)
    return _extrapolated(_tube_edges(c, np.asarray(eps, dtype=float)), c.shape, dt, start)
