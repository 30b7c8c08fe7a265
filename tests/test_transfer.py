import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm as gauss

from smallball import transfer
from smallball.errors import ConfigurationError, DomainError
from smallball.estimators import sbf_analytic
from smallball.models import WienerPath
from smallball.norms import NormSpec
from smallball.streams import RandomStream
from smallball.transfer import (
    band_log_prob,
    band_log_prob_extrapolated,
    band_log_probs,
    band_log_profile,
    transfer_applies,
    tube_log_prob_extrapolated,
    tube_log_probs,
)

SUP = NormSpec("sup")
PHI_DISC_256_05 = 4.052499530615389
PHI_DISC_256_04 = 6.243980144567865


def centered_band(eps, n):
    return np.full(n + 1, -eps), np.full(n + 1, eps)


def test_single_step_band_matches_gaussian_cdf(monkeypatch):
    # two nodes: the sweep reduces to one Gaussian increment integral
    monkeypatch.setattr(transfer, "CELLS_PER_STEP_SD", 500)  # dx = 0.002
    lo, hi = centered_band(0.05, 1)
    got = band_log_prob(lo, hi, dt=1.0, start=0.0)
    exact = math.log(2.0 * gauss.cdf(0.05) - 1.0)
    assert got == pytest.approx(exact, abs=1e-4)


def test_narrow_band_survives_wide_step_kernel(monkeypatch):
    # the step kernel is far longer than the spatial grid here; the sweep
    # must keep the grid's length through the convolutions
    monkeypatch.setattr(transfer, "CELLS_PER_STEP_SD", 500)  # dx = 0.002
    lo, hi = centered_band(0.05, 3)
    got = band_log_prob(lo, hi, dt=1.0, start=0.0)
    assert math.isfinite(got)
    step = 2.0 * gauss.cdf(0.05) - 1.0
    # three steps, band much narrower than the step scale: the position
    # forgets itself, so consecutive stays are nearly independent
    assert got == pytest.approx(3.0 * math.log(step), abs=0.01)


def test_discrete_sup_ball_frozen_values():
    lo, hi = centered_band(0.5, 256)
    assert -band_log_prob(lo, hi, 1.0 / 256, start=0.0) == pytest.approx(
        PHI_DISC_256_05, rel=1e-9
    )
    lo, hi = centered_band(0.4, 256)
    assert -band_log_prob(lo, hi, 1.0 / 256, start=0.0) == pytest.approx(
        PHI_DISC_256_04, rel=1e-9
    )


def test_discrete_ball_agrees_with_mc():
    # dual route: hit counting against the deterministic sweep
    from smallball.estimators import ball_prob_mc

    model = WienerPath(n_steps=32)
    est = ball_prob_mc(model, SUP, 0.6, 150_000, RandomStream(40))
    lo, hi = centered_band(0.6, 32)
    exact = band_log_prob(lo, hi, model.dt, start=0.0)
    assert abs(est.log_prob - exact) < 3.0 * est.stderr_log


def test_profile_symmetry():
    lo, hi = centered_band(0.5, 64)
    x, logv = band_log_profile(lo, hi, 1.0 / 64)
    finite = np.isfinite(logv)
    assert np.allclose(logv[finite], logv[finite][::-1], atol=1e-9)
    k = int(np.argmax(logv))
    assert abs(x[k]) < 0.02  # the best start of a centered band is the center


def test_profile_translation_invariance():
    # shifting band and start by whole cells relabels the grid, nothing else
    rng = RandomStream(41).generator()
    w = np.cumsum(rng.standard_normal(65)) * math.sqrt(1.0 / 64)
    w[0] = 0.0
    dt = 1.0 / 64
    dx = math.sqrt(dt) / 8.0
    c = 3.0 * dx
    base = band_log_prob(w - 0.5, w + 0.5, dt, start=0.0)
    moved = band_log_prob(w - 0.5 + c, w + 0.5 + c, dt, start=c)
    assert moved == pytest.approx(base, abs=1e-9)


def test_start_handling():
    lo, hi = centered_band(0.5, 64)
    inside = band_log_prob(lo, hi, 1.0 / 64, start=0.3)
    assert math.isfinite(inside)
    assert band_log_prob(lo, hi, 1.0 / 64, start=2.0) == -math.inf
    free = band_log_prob(lo, hi, 1.0 / 64, start=None)
    assert free >= inside


def test_impossible_band_returns_neg_inf():
    lo = np.array([-1.0, 5.0, -1.0])
    hi = lo + 0.01
    assert band_log_prob(lo, hi, 1e-4, start=None) == -math.inf


def test_extrapolation_cancels_monitoring_bias():
    model = WienerPath(n_steps=256)
    theta = sbf_analytic(model, SUP, 0.5).phi
    lo, hi = centered_band(0.5, 256)
    coarse = -band_log_prob(lo, hi, model.dt, start=0.0)
    extrap = -band_log_prob_extrapolated(lo, hi, model.dt, start=0.0)
    assert abs(extrap - theta) < 0.06
    assert abs(extrap - theta) < 0.2 * abs(coarse - theta)


def test_band_validation():
    with pytest.raises(ConfigurationError):
        band_log_profile(np.zeros(3), np.ones(4), 0.1)
    with pytest.raises(ConfigurationError):
        band_log_profile(np.zeros(1), np.ones(1), 0.1)
    with pytest.raises(DomainError):
        band_log_profile(np.ones(3), np.zeros(3), 0.1)
    with pytest.raises(DomainError):
        band_log_profile(np.zeros(3), np.ones(3), 0.0)
    with pytest.raises(DomainError, match=r"2\*\*31 grid cells"):
        band_log_profile(np.zeros(2), np.array([1.0, 3e6]), 1e-4)


def mixed_bands(n=64, rows=6):
    # random-walk centers plus a drift of its own per row, so every row's
    # window shifts differently at every step; widths run from a fraction
    # of a cell (dx = 1/64 at n=64) to 128 cells
    rng = RandomStream(42).generator()
    dt = 1.0 / n
    w = np.cumsum(rng.standard_normal((rows, n + 1)), axis=1) * math.sqrt(dt)
    w[:, 0] = 0.0
    eps = np.array([0.3, 0.05, 0.2, 0.004, 0.5, 1.0])[:rows, None]
    drift = np.array([0.0, 0.3, -0.7, 1.0 / 16, 2.0, -1.5])[:rows, None]
    centers = w + drift * np.linspace(0.0, 1.0, n + 1)
    return centers - eps, centers + eps, dt


def reference_log_profile(lo, hi, dt):
    """The sweep on the full grid, one band, by np.convolve at every step."""
    dx = math.sqrt(dt) / 8
    x0 = lo.min() - 2 * dx
    m = int(math.ceil((hi.max() + 2 * dx - x0) / dx)) + 1
    x = x0 + dx * np.arange(m)
    k = int(math.ceil(8.0 * math.sqrt(dt) / dx))
    g = np.exp(-0.5 * ((np.arange(-k, k + 1) * dx) / math.sqrt(dt)) ** 2)
    g /= g.sum()

    def weights(a, b):
        return np.clip((np.minimum(x + 0.5 * dx, b) - np.maximum(x - 0.5 * dx, a)) / dx, 0, 1)

    v = weights(lo[-1], hi[-1])
    log_scale = 0.0
    for i in range(len(lo) - 2, -1, -1):
        v = np.convolve(v, g, mode="full")[k : k + m] * weights(lo[i], hi[i])
        if v.max() <= 0:
            return x, np.full(m, -np.inf)
        log_scale += math.log(v.max())
        v /= v.max()
    with np.errstate(divide="ignore"):
        return x, np.log(v) + log_scale


def test_sweep_matches_full_grid_reference():
    lo, hi, dt = mixed_bands()
    # and bands whose width jumps from node to node, so the cell an upper
    # edge cuts moves by many cells within one block of nodes
    rng = RandomStream(43).generator()
    half = rng.uniform(0.05, 0.6, size=(2, lo.shape[1]))
    c = 0.5 * (lo[:2] + hi[:2])
    lo, hi = np.vstack([lo, c - half]), np.vstack([hi, c + half])
    for a, b in zip(lo, hi):
        x, logv = band_log_profile(a, b, dt)
        x_ref, ref = reference_log_profile(a, b, dt)
        assert np.array_equal(x, x_ref)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(logv), finite)
        assert logv[finite] == pytest.approx(ref[finite], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("start", [0.0, 0.05, None])
def test_batched_sweep_matches_per_band_loop(start):
    lo, hi, dt = mixed_bands()
    batch = band_log_probs(lo, hi, dt, start=start)
    single = np.array([band_log_prob(a, b, dt, start=start) for a, b in zip(lo, hi)])
    assert np.array_equal(np.isfinite(batch), np.isfinite(single))
    ok = np.isfinite(single)
    assert ok.sum() >= 3
    assert batch[ok] == pytest.approx(single[ok], rel=1e-12)


def digest(values) -> str:
    raw = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def panel_bands(eps, rows=160):
    model = WienerPath(n_steps=256)
    c = model.sample_values(RandomStream(160).generator(), rows)
    return c - eps, c + eps, model.dt


# recorded while every window cell took the full weight formula: (sha256
# prefix, first, last) of the batched values per start, and the sha256
# prefix of the batch's whole log-profile
MIXED_BAND_PINS = {
    0.0: ("a06212c601596c4b", -20.747798956254133, -2.8404694179583876),
    0.05: ("8e289bd80589834b", -21.062505169546192, -2.945555606527625),
    None: ("2dedc62aecd16378", -19.987739009264253, -2.2289895361336005),
}
MIXED_PROFILE_PIN = "80ebc8b9b3f2887f"
PANEL_PINS = {  # 160 wiener:n=256 centers, start 0, and the batch's log-profile
    0.5: ("752a2a98ae6e1148", -9.241101344317268, -7.333986955725655, "a341783204a52c59"),
    0.3: ("1994bd010695c932", -22.352994642770735, -20.118321520033017, "20812ffbf97dd561"),
}


@pytest.mark.parametrize("start", list(MIXED_BAND_PINS))
def test_mixed_band_sweep_is_pinned(start):
    lo, hi, dt = mixed_bands()
    got = band_log_probs(lo, hi, dt, start=start)
    assert (digest(got), got[0], got[-1]) == MIXED_BAND_PINS[start]
    assert digest(transfer._sweep(lo, hi, dt)[3]) == MIXED_PROFILE_PIN


@pytest.mark.parametrize("eps", list(PANEL_PINS))
def test_panel_sweep_is_pinned(eps):
    lo, hi, dt = panel_bands(eps)
    got = band_log_probs(lo, hi, dt)
    profile = transfer._sweep(lo, hi, dt)[3]
    assert (digest(got), got[0], got[-1], digest(profile)) == PANEL_PINS[eps]


def test_panel_sweep_memory():
    # a sweep holds its bands' windows, not two edge arrays over the grid
    lo, hi, dt = panel_bands(1.3)
    tracemalloc.start()
    try:
        got = band_log_probs(lo, hi, dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(got))
    assert peak < 6 * 2**20


@pytest.mark.parametrize("span_cells", [1, 7, 100, 4096])
def test_pins_hold_at_any_span_of_nodes(monkeypatch, span_cells):
    # the sweep reads its edges a span at a time; spans of one node, of a few
    # nodes that split weight chunks unevenly, and of the whole band give
    # the profiles recorded before spans existed
    monkeypatch.setattr(transfer, "SPAN_CELLS", span_cells)
    lo, hi, dt = mixed_bands()
    assert digest(transfer._sweep(lo, hi, dt)[3]) == MIXED_PROFILE_PIN
    lo, hi, dt = panel_bands(0.3)
    assert digest(transfer._sweep(lo, hi, dt)[3]) == PANEL_PINS[0.3][3]


# one node per chunk or block; chunks of 3 panel and 48 mixed-band nodes,
# which split both bands unevenly; the defaults; and whole bands at once
CHUNK_CELLS = [1, 38_400, None, 2**20]


@pytest.mark.parametrize("formula_cells", CHUNK_CELLS)
@pytest.mark.parametrize("weight_cells", CHUNK_CELLS)
def test_pins_hold_at_any_chunk_of_nodes(monkeypatch, weight_cells, formula_cells):
    # weights are gathered a chunk at a time, and the cut-cell formula, GEMM
    # offsets and log scale done a block of chunks at a time; no grouping
    # moves a float
    for name, cells in (("WEIGHT_CELLS", weight_cells), ("FORMULA_CELLS", formula_cells)):
        if cells is not None:
            monkeypatch.setattr(transfer, name, cells)
    lo, hi, dt = mixed_bands()
    assert digest(transfer._sweep(lo, hi, dt)[3]) == MIXED_PROFILE_PIN
    lo, hi, dt = panel_bands(0.3)
    assert digest(transfer._sweep(lo, hi, dt)[3]) == PANEL_PINS[0.3][3]


def free_start_centers(rows=24, n=4096):
    # the hard series' longest horizon: a = 16 at dt = 1/256
    dt = 16.0 / n
    w = np.cumsum(RandomStream(44).generator().standard_normal((rows, n + 1)), axis=1)
    w *= math.sqrt(dt)
    w -= w[:, :1]
    return w, dt


@pytest.mark.parametrize("start", [0.0, None])
def test_tube_sweep_is_the_band_sweep(start):
    n, dt = 64, 1.0 / 64
    dx = math.sqrt(dt) / 8
    rng = RandomStream(45).generator()
    w = np.cumsum(rng.standard_normal((5, n + 1)), axis=1) * math.sqrt(dt)
    w[:, 0] = 0.0
    long, long_dt = free_start_centers(rows=6, n=2048)
    cases = [(w, 0.5, dt), (w, np.array([0.3, 0.05, 1.0, 0.2, 0.004]), dt), (w[:1], 0.4, dt),
             (w[:3], np.array([0.5, 1.0, 1.5]) * dx, dt),  # 1, 2 and 3 cells wide
             (long, 1.0, long_dt)]  # four spans of nodes
    for c, e, step in cases:
        half = e[:, None] if np.ndim(e) else e
        tube = tube_log_probs(c, e, step, start)
        assert np.array_equal(tube, band_log_probs(c - half, c + half, step, start))
        assert np.all(np.isfinite(tube))


def test_tube_sweep_rejects_mismatched_radii():
    c = np.zeros((3, 9))
    for e in (np.ones(2), np.ones((3, 1))):
        with pytest.raises(ConfigurationError):
            tube_log_probs(c, e, 1.0 / 8)
    with pytest.raises(ConfigurationError):
        tube_log_probs(np.zeros(9), 0.5, 1.0 / 8)
    with pytest.raises(DomainError):
        tube_log_probs(c, 0.0, 1.0 / 8)


def test_long_tube_sweep_memory():
    # a sweep holds one span of per-node offsets and no tube edges, so its
    # memory beyond the centers does not grow with the number of nodes
    w, dt = free_start_centers()
    tracemalloc.start()
    try:
        got = tube_log_probs(w, 1.0, dt, start=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(got))
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_refined_spans_are_the_whole_band_refinement(factor):
    # each span interpolates only the coarse nodes it covers, into the
    # floats of one np.interp per band over all of its nodes
    rng = RandomStream(46).generator()
    lo = rng.standard_normal((3, 17))
    hi = lo + rng.uniform(0.1, 1.0, (3, 17))
    fine_t = np.linspace(0.0, 16.0, 16 * factor + 1)
    whole = [np.array([np.interp(fine_t, np.arange(17.0), v) for v in a]) for a in (lo, hi)]
    assert np.array_equal(whole[0][:, ::factor], lo)
    fine = transfer._refined_edges(transfer._band_edges(lo, hi), 17, factor)
    n = 16 * factor + 1
    for a, b in ((0, n), (0, 1), (3, 9), (factor, factor + 1), (n // 2, n - 2), (n - 5, n),
                 (n - 1, n)):
        got = fine(slice(a, b))
        assert all(np.array_equal(g, v[:, a:b]) for g, v in zip(got, whole))


def test_bands_a_few_cells_wide():
    # windows no longer than the cells at a band edge: every cell takes the
    # full weight formula, alone and next to a wide band in one batch
    n, dt = 64, 1.0 / 64
    dx = math.sqrt(dt) / 8
    rng = RandomStream(43).generator()
    w = np.cumsum(rng.standard_normal((4, n + 1)), axis=1) * 0.2 * dx
    w[:, 0] = 0.0
    half = np.array([0.5, 1.0, 1.5, 40.0])[:, None] * dx  # 1, 2, 3 and 80 cells
    lo, hi = w - half, w + half
    for a, b in zip(lo[:3], hi[:3]):
        x, logv = band_log_profile(a, b, dt)
        x_ref, ref = reference_log_profile(a, b, dt)
        assert np.array_equal(x, x_ref)
        finite = np.isfinite(ref)
        assert 1 <= finite.sum() <= 4
        assert np.array_equal(np.isfinite(logv), finite)
        assert logv[finite] == pytest.approx(ref[finite], rel=1e-12, abs=1e-12)
    for start in (0.0, None):
        batch = band_log_probs(lo, hi, dt, start=start)
        single = [band_log_prob(a, b, dt, start=start) for a, b in zip(lo, hi)]
        assert np.all(np.isfinite(batch))
        assert batch == pytest.approx(single, rel=1e-12)


def test_batched_sweep_single_band():
    lo, hi = centered_band(0.5, 256)
    got = band_log_probs(lo[None], hi[None], 1.0 / 256)
    assert got.shape == (1,)
    assert -got[0] == pytest.approx(PHI_DISC_256_05, rel=1e-9)
    assert got[0] == pytest.approx(band_log_prob(lo, hi, 1.0 / 256), rel=1e-12)


@pytest.mark.parametrize("chunk_nodes, formula_cells", [(None, None), (5, None), (5, 1)])
def test_impossible_row_leaves_the_batch_finite(monkeypatch, chunk_nodes, formula_cells):
    lo, hi, dt = mixed_bands(n=32, rows=3)
    lo[1, 16] += 50.0  # row 1 must jump 50 in one step of sd 0.18
    hi[1, 16] += 50.0
    if chunk_nodes is not None:
        # chunks of 5 nodes, 28-32 down to 13-17, so row 1 dies at node 16,
        # inside a chunk and inside its block of row maxima
        width = transfer._sweep(lo, hi, dt)[3].shape[1]
        monkeypatch.setattr(transfer, "WEIGHT_CELLS", chunk_nodes * 3 * width)
    if formula_cells is not None:
        monkeypatch.setattr(transfer, "FORMULA_CELLS", formula_cells)
    for start in (0.0, None):
        with warnings.catch_warnings():
            # a dead row must not divide 0 by 0, nor take log(0) outside an errstate
            warnings.simplefilter("error")
            got = band_log_probs(lo, hi, dt, start=start)
        assert got[1] == -math.inf
        alive = [0, 2]
        assert np.all(np.isfinite(got[alive]))
        single = [band_log_prob(lo[i], hi[i], dt, start=start) for i in alive]
        assert got[alive] == pytest.approx(single, rel=1e-12)


def test_batched_extrapolation_matches_per_band():
    lo, hi, dt = mixed_bands(n=32, rows=3)
    batch = band_log_prob_extrapolated(lo, hi, dt, start=0.0)
    single = [band_log_prob_extrapolated(a, b, dt, start=0.0) for a, b in zip(lo, hi)]
    assert batch == pytest.approx(single, rel=1e-12)


def test_tube_extrapolation_is_the_band_extrapolation():
    # both sweeps form the tube's edges per span, the fine one by refining
    # the coarse ones; the floats of stored edges c - eps and c + eps
    w, dt = free_start_centers(rows=5, n=256)
    radii = np.array([0.3, 0.05, 1.0, 0.2, 0.5])
    for e, start in ((0.4, 0.0), (radii, 0.0), (1.0, None), (radii, None)):
        half = e[:, None] if np.ndim(e) else e
        tube = tube_log_prob_extrapolated(w, e, dt, start)
        assert np.all(np.isfinite(tube))
        assert np.array_equal(tube, band_log_prob_extrapolated(w - half, w + half, dt, start))
    with pytest.raises(ConfigurationError):
        tube_log_prob_extrapolated(w, radii[:2], dt)


def test_wide_band_sweep_memory():
    # eps=50 spans 12,800 cells; the sweep must stay banded, never L x L
    lo, hi = centered_band(50.0, 256)
    tracemalloc.start()
    try:
        x, logv = band_log_profile(lo, hi, 1.0 / 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(x) > 12_800
    assert -band_log_prob(lo, hi, 1.0 / 256) == pytest.approx(0.0, abs=1e-9)


def test_transfer_applies():
    assert transfer_applies(WienerPath(n_steps=8), SUP)
    assert not transfer_applies(WienerPath(n_steps=8, d=2), SUP)
    assert not transfer_applies(WienerPath(n_steps=8), NormSpec("sup", interval=(0.0, 0.5)))
    assert not transfer_applies(WienerPath(n_steps=8), NormSpec("lp", p=2.0))
