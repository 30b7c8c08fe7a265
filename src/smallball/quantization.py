"""Random-codebook quantization against gauge inverses.

A codebook is n independent draws of the model; the distortion at rate r is
the s-th moment of the distance from a fresh draw to its nearest codeword,
with n = floor(e^r). The headline comparison is D(r, s) against the inverse
of a gauge curve at depth r, plus the coverage event that the nearest-
codeword distance lands within (1 +- kappa) of that inverse.

The expectation defining D runs over the test draw *and* the codebook, so
the estimator resamples the codebook every 64 test draws instead of
conditioning on a single draw of it.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DomainError, RangeError
from .estimators import MEMORY_BUDGET, SBFCurve
from .models import GaussianModel, WienerPath
from .norms import DistanceScreen, NormSpec, eval_norm_batch
from .rsbf import K_SIGMA, SLACK, CheckRow, GaugeCurve, Report
from .streams import RandomStream, keyed_map

REFRESH_EVERY = 64  # test draws served by one codebook draw
DRAW_BLOCK_BYTES = 2**20  # float64 draw buffer while codewords are drawn
# codewords per scanned block: the block, its screen scratch and its bounds
# stay cache-sized, and the best distance found tightens between blocks
SCREEN_BLOCK = 512
# float32 differences evaluated at once by the exact scan; with the norm's
# temporaries a slice stays in a core's L2 cache
SCAN_BLOCK_BYTES = 2**19
Z_QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class Codebook:
    """The floor(e^r) codewords of rate r and the stream that draws them.

    With ``entries`` the codewords are stored (float32 when
    ``build_codebook`` stored them). With ``entries=None`` they are drawn
    from ``stream`` by ``model`` each time ``blocks`` is read, so a scan
    holds one block of them, never the codebook; the values are those that
    ``build_codebook`` stores from the same stream.
    """

    entries: np.ndarray | None
    r: float
    stream: RandomStream
    model: GaussianModel | None = None

    def __post_init__(self):
        n = target_size(self.r)
        if self.entries is None:
            if self.model is None:
                raise ConfigurationError("a codebook without entries needs a model to draw them")
        elif len(self.entries) != n:
            raise ConfigurationError("entry count must equal floor(e^r)")

    @property
    def n(self) -> int:
        return target_size(self.r)

    def blocks(self) -> Iterator[np.ndarray]:
        """The codewords in order, as float32 blocks of at most SCREEN_BLOCK
        words. A drawn block is the float32 rounding of whole draws of at
        most SCREEN_BLOCK rows and about DRAW_BLOCK_BYTES of float64 each,
        in row order, so each word equals the rounding of one draw of all n
        whatever the block and draw sizes; the next block overwrites it."""
        if self.entries is not None:
            e32 = np.asarray(self.entries, dtype=np.float32)
            for a in range(0, self.n, SCREEN_BLOCK):
                yield e32[a : a + SCREEN_BLOCK]
            return
        model, n = self.model, self.n
        shape = model.value_shape
        rows = min(n, SCREEN_BLOCK, max(1, DRAW_BLOCK_BYTES // (8 * math.prod(shape))))
        stage = np.empty((min(n, SCREEN_BLOCK // rows * rows),) + shape, dtype=np.float32)
        rng = self.stream.generator()
        for a in range(0, n, len(stage)):
            block = stage[: n - a]
            _draw_into(block, model, rng, rows)
            yield block


def _draw_into(block: np.ndarray, model: GaussianModel, rng: np.random.Generator,
               rows: int) -> None:
    """Fill ``block`` in row order with the float32 rounding of model draws
    of at most ``rows`` rows each. The float64 draw buffers live only for
    this call, so they are freed while the block is scanned."""
    buffers = {}
    if isinstance(model, WienerPath):
        buffers = {"out": np.empty((rows,) + block.shape[1:]),
                   "scratch": np.empty((rows, model.n_steps) + block.shape[2:])}
    for b in range(0, len(block), rows):
        k = min(rows, len(block) - b)
        kw = {key: buf[:k] for key, buf in buffers.items()}
        block[b : b + k] = model.sample_values(rng, k, **kw)


@dataclass(frozen=True)
class QuantizationResult:
    r: float
    s: float
    d_hat: float
    stderr: float
    n_test: int
    z_quantiles: tuple[float, ...]


@dataclass(frozen=True)
class CoverageRate:
    r: float
    kappa: float
    rate: float
    stderr: float
    n_test: int


def target_size(r: float) -> int:
    n = int(math.floor(math.exp(r)))
    if n < 1:
        raise ConfigurationError(f"rate r={r:g} yields an empty codebook")
    return n


def build_codebook(
    model: GaussianModel,
    r: float,
    stream: RandomStream,
) -> Codebook:
    """The floor(e^r) codewords for rate r, drawn as ``Codebook.blocks``
    draws them and stored whole in float32, the precision
    ``nearest_distance`` reads.

    Refuses codebooks whose float32 entries would exceed MEMORY_BUDGET
    bytes; coarsen the model grid or lower r rather than raising the budget
    blindly. A scan needs no stored codebook: ``sample_nearest`` draws its
    codebooks block by block.
    """
    n = target_size(r)
    bytes_needed = n * math.prod(model.value_shape) * np.dtype(np.float32).itemsize
    if bytes_needed > MEMORY_BUDGET:
        raise ConfigurationError(
            f"codebook at r={r:g} needs {bytes_needed / 2**20:.0f} MiB of float32 entries, "
            f"over the {MEMORY_BUDGET / 2**20:.0f} MiB budget"
        )
    entries = np.empty((n,) + model.value_shape, dtype=np.float32)
    a = 0
    for block in Codebook(None, r, stream, model).blocks():
        entries[a : a + len(block)] = block
        a += len(block)
    return Codebook(entries, r, stream)


def nearest_distance(
    test: np.ndarray,
    codebook: Codebook,
    dt: float,
    norm_spec: NormSpec,
) -> np.ndarray:
    """Exact nearest-codeword distance per test draw, by screened search.

    Distances are evaluated in single precision (the distance extrema are
    far above float32 granularity), one block of ``codebook.blocks()`` at a
    time, so neither the codebook nor a bound matrix is ever held whole. A
    screen (``DistanceScreen``) gives every (test, codeword) pair of a block
    a cheap lower bound on that float32 distance: a sup over every 16th node
    for sup norms, a Gram expansion for lp:p=2, and 0 for norms without a
    screen. The exact distance at each draw's smallest bound in the first
    block starts the search; then, block by block, only pairs whose bound
    does not exceed the best distance so far are evaluated. A pair left out
    has a bound, hence an exact distance, above a distance already found,
    so the minimum is the one a full scan returns, bit for bit, for every
    block size. The kept pairs of a block are evaluated in slices of at most
    SCAN_BLOCK_BYTES of differences, which bounds the scratch memory where
    no screen prunes; a minimum does not depend on the order. Per call, the
    scratch is one block of SCREEN_BLOCK words with its screen and bounds,
    and one slice: a few MiB at any rate.
    """
    t32 = np.asarray(test, dtype=np.float32)
    per_slice = max(1, SCAN_BLOCK_BYTES // (4 * math.prod(t32.shape[1:])))
    screen = DistanceScreen(t32, dt, norm_spec)
    best = None
    for words in codebook.blocks():
        lb = screen(words)
        if best is None:
            guess = words[lb.argmin(axis=1)]
            best = eval_norm_batch(t32 - guess, dt, norm_spec).astype(np.float64)
        i, j = np.nonzero(lb <= best[:, None])
        for b in range(0, len(i), per_slice):
            ib, jb = i[b : b + per_slice], j[b : b + per_slice]
            diff = t32[ib]
            diff -= words[jb]
            np.minimum.at(best, ib, eval_norm_batch(diff, dt, norm_spec))
    return best


def sample_nearest(
    model: GaussianModel,
    norm_spec: NormSpec,
    r: float,
    n_test: int,
    stream: RandomStream,
    codebook: Codebook | None = None,
) -> np.ndarray:
    """Nearest-codeword distances for n_test fresh draws at rate r.

    Every REFRESH_EVERY draws get a fresh codebook (the first batch uses
    ``codebook`` when given), so the sample averages over codebook
    randomness as the definition demands. The test draws come in order from
    one stream, and batch j's codebook from its own keyed stream, so the
    batches run on the pool (``keyed_map``) without changing a value. Fresh
    codebooks are drawn block by block as they are scanned, so the memory
    held is one codeword block per pool worker at any rate.
    """
    if n_test < 1:
        raise ConfigurationError("n_test must be >= 1")
    test_rng = stream.spawn(0).generator()
    tests = [model.sample_values(test_rng, min(REFRESH_EVERY, n_test - a))
             for a in range(0, n_test, REFRESH_EVERY)]
    book_stream = codebook.stream if codebook is not None else stream.spawn(1)

    def batch(j: int) -> np.ndarray:
        if j == 0 and codebook is not None:
            book = codebook
        else:
            book = Codebook(None, r, book_stream.spawn(j), model)
        return nearest_distance(tests[j], book, model.dt, norm_spec)

    return np.concatenate(keyed_map(batch, range(len(tests))))


def distortion(
    model: GaussianModel,
    norm_spec: NormSpec,
    codebook: Codebook,
    s: float,
    n_test: int,
    stream: RandomStream,
) -> QuantizationResult:
    """s-th-moment distortion at the codebook's rate.

    D = (E Z^s)^(1/s) over fresh test draws and refreshed codebooks; stderr
    by the delta method through the 1/s power.
    """
    zs = sample_nearest(model, norm_spec, codebook.r, n_test, stream, codebook=codebook)
    return distortion_from_distances(zs, codebook.r, s)


def distortion_from_distances(zs: np.ndarray, r: float, s: float) -> QuantizationResult:
    """``distortion`` summarized from the distances ``sample_nearest`` drew,
    REFRESH_EVERY draws per codebook."""
    if s <= 0:
        raise DomainError(f"moment order s must be positive, got {s}")
    n_test = len(zs)
    if n_test < 100:
        raise ConfigurationError("n_test must be >= 100")
    zp = zs**s
    m = float(zp.mean())
    # draws within one refresh batch share a codebook, so the honest error
    # clusters over batches instead of treating the draws as independent
    edges = np.unique(np.append(np.arange(0, n_test, REFRESH_EVERY), n_test))
    sizes = np.diff(edges)
    batch_means = np.add.reduceat(zp, edges[:-1]) / sizes
    n_batches = len(sizes)
    if n_batches >= 2:
        se_m = float(np.sqrt(np.sum((sizes * (batch_means - m)) ** 2))
                     / n_test * math.sqrt(n_batches / (n_batches - 1)))
    else:
        se_m = float(zp.std(ddof=1) / math.sqrt(n_test))
    d = m ** (1.0 / s)
    se_d = (1.0 / s) * m ** (1.0 / s - 1.0) * se_m
    qs = tuple(float(q) for q in np.quantile(zs, Z_QUANTILE_PROBS))
    return QuantizationResult(r, s, d, se_d, n_test, qs)


def coverage_event_rate(
    model: GaussianModel,
    norm_spec: NormSpec,
    gauge_inverse,
    r: float,
    kappa: float,
    n_test: int,
    stream: RandomStream,
) -> CoverageRate:
    """Probability that the nearest-codeword distance lands in
    [(1-kappa) g(r), (1+kappa) g(r)] with g the gauge inverse."""
    if not (0.0 < kappa < 1.0):
        raise ConfigurationError(f"kappa must be in (0, 1), got {kappa}")
    g = float(gauge_inverse(r))
    zs = sample_nearest(model, norm_spec, r, n_test, stream)
    return coverage_from_distances(zs, g, r, kappa)


def coverage_from_distances(zs: np.ndarray, g: float, r: float, kappa: float) -> CoverageRate:
    """``coverage_event_rate`` summarized from drawn distances, with g the
    gauge inverse at r."""
    n_test = len(zs)
    hit = (zs >= (1.0 - kappa) * g) & (zs <= (1.0 + kappa) * g)
    p = float(hit.mean())
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_test) / n_test)
    return CoverageRate(r, kappa, p, se, n_test)


# -- gauge inversion -----------------------------------------------------------


@dataclass(frozen=True)
class InverseGauge:
    """Piecewise-linear inverse of a depth curve, linear in log-log.

    knots_r are the (isotonic-projected) curve depths in increasing order,
    knots_eps the matching radii; calls outside [knots_r[0], knots_r[-1]]
    raise rather than extrapolate.
    """

    knots_r: tuple[float, ...]
    knots_eps: tuple[float, ...]

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr < self.knots_r[0] - 1e-12) or np.any(arr > self.knots_r[-1] + 1e-12):
            raise RangeError(
                f"depth {arr} outside the invertible range "
                f"[{self.knots_r[0]:.4g}, {self.knots_r[-1]:.4g}]"
            )
        out = np.exp(np.interp(np.log(arr), np.log(self.knots_r), np.log(self.knots_eps)))
        return float(out) if np.isscalar(r) else out


def _pava_blocks(x: np.ndarray, w: np.ndarray) -> list[tuple[float, int, int]]:
    """Weighted increasing isotonic regression of x as (value, start, stop)
    blocks, values strictly increasing. The pool adjacent violators
    algorithm of Busing (J. Stat. Softw. 102, 2022, algorithm 1), with
    pooling on ties, step for step as scipy's isotonic_regression, so each
    value is the float that routine gives."""
    x, w = [float(v) for v in x], [float(v) for v in w]
    n = len(x)
    if n == 0:
        return []
    stop = [0] * (n + 1)
    stop[1] = 1
    b = 0
    xb_prev, wb_prev = x[0], w[0]
    i = 1
    while i < n:
        b += 1
        xb, wb = x[i], w[i]
        if xb_prev >= xb:  # a down violation: pool with the previous block
            b -= 1
            sb = wb_prev * xb_prev + wb * xb
            wb += wb_prev
            xb = sb / wb
            while i < n - 1 and xb >= x[i + 1]:  # absorb up violations ahead
                i += 1
                sb += w[i] * x[i]
                wb += w[i]
                xb = sb / wb
            while b > 0 and x[b - 1] >= xb:  # and down violations behind
                b -= 1
                sb += w[b] * x[b]
                wb += w[b]
                xb = sb / wb
        x[b] = xb_prev = xb
        w[b] = wb_prev = wb
        stop[b + 1] = i + 1
        i += 1
    return [(x[k], stop[k], stop[k + 1]) for k in range(b + 1)]


def invert_gauge(curve: GaugeCurve | SBFCurve, which: str = "mean") -> InverseGauge:
    """Monotone inverse of a gauge or centered curve.

    Noisy local inversions are pooled away by isotonic projection and each
    pooled block becomes a single knot at its weight-averaged log radius; a
    curve that pools down to fewer than two knots is flat in depth and
    raises DataError. Radii whose gauge value is NaN (censored) are left
    out. Knots the projection left alone round-trip exactly.
    """
    eps = np.array(curve.eps_grid)
    if isinstance(curve, SBFCurve):
        vals = curve.phi
        w = 1.0 / np.maximum(curve.stderr, 1e-9) ** 2
    elif which == "mean":
        vals = np.array(curve.mean)
        w = 1.0 / np.maximum(np.array(curve.mean_se), 1e-9) ** 2
    elif which == "median":
        vals = np.array(curve.median)
        w = np.ones_like(vals)
    else:
        raise ConfigurationError("which must be 'mean' or 'median'")
    if len(eps) < 2:
        raise ConfigurationError("need at least two knots to invert")
    kept = ~np.isnan(vals)  # a censored gauge radius has no mean or median
    eps, vals, w = eps[kept], vals[kept], w[kept]
    if np.any(vals <= 0):
        raise DataError("depth values must be positive for log-log inversion")
    # grid is stored radius-decreasing = depth-increasing
    knots_r: list[float] = []
    knots_e: list[float] = []
    for value, j, k in _pava_blocks(vals, w):
        knots_r.append(value)
        knots_e.append(float(np.exp(np.average(np.log(eps[j:k]), weights=w[j:k]))))
    if len(knots_r) < 2:
        raise DataError("depth curve is flat; nothing to invert")
    return InverseGauge(tuple(knots_r), tuple(knots_e))


# -- verifiers -----------------------------------------------------------------


def verify_distortion_gauge_match(results, gauge_inverse, hypothesis_ok: bool = True) -> Report:
    """Distortion over gauge inverse per rate: inside the slack band, or
    drifting monotonically toward 1 across the rate ladder.

    ``hypothesis_ok=False`` (the curve failed its two-scale growth check)
    demotes every row to informational, since the matching claim is only
    made under that growth hypothesis.
    """
    results = sorted(results, key=lambda q: q.r)
    if not results:
        raise ConfigurationError("no quantization results given")
    ratios = []
    for q in results:
        g = float(gauge_inverse(q.r))
        ratios.append((q.r, q.d_hat / g, q.stderr / g))
    rows = [
        CheckRow("distortion-gauge-ratio", None, ratio, 1.0, f"r={r:g}, se={se:.3g}")
        for r, ratio, se in ratios
    ]
    in_band = abs(ratios[-1][1] - 1.0) <= SLACK + K_SIGMA * ratios[-1][2]
    gaps = [abs(x - 1.0) for _, x, _ in ratios]
    drifting = all(
        gaps[j + 1] <= gaps[j] + K_SIGMA * math.hypot(ratios[j][2], ratios[j + 1][2])
        for j in range(len(gaps) - 1)
    )
    verdict = (in_band or drifting) if hypothesis_ok else None
    note = "" if hypothesis_ok else "growth hypothesis unmet; informational only"
    rows.append(CheckRow("distortion-gauge-match", verdict, ratios[-1][1], 1.0 + SLACK, note))
    return Report("distortion-gauge-match", tuple(rows))
