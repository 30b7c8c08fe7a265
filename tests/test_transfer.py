import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm as gauss

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
    refine_nodes,
    transfer_applies,
)

SUP = NormSpec("sup")
PHI_DISC_256_05 = 4.052499530615389
PHI_DISC_256_04 = 6.243980144567865


def centered_band(eps, n):
    return np.full(n + 1, -eps), np.full(n + 1, eps)


def test_single_step_band_matches_gaussian_cdf():
    # two nodes: the sweep reduces to one Gaussian increment integral
    lo, hi = centered_band(0.05, 1)
    got = band_log_prob(lo, hi, dt=1.0, start=0.0, dx=0.002)
    exact = math.log(2.0 * gauss.cdf(0.05) - 1.0)
    assert got == pytest.approx(exact, abs=1e-4)


def test_narrow_band_survives_wide_step_kernel():
    # the step kernel is far longer than the spatial grid here; the sweep
    # must keep the grid's length through the convolutions
    lo, hi = centered_band(0.05, 3)
    got = band_log_prob(lo, hi, dt=1.0, start=0.0, dx=0.002)
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
    base = band_log_prob(w - 0.5, w + 0.5, dt, start=0.0, dx=dx)
    moved = band_log_prob(w - 0.5 + c, w + 0.5 + c, dt, start=c, dx=dx)
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


def test_refine_nodes():
    vals = np.array([0.0, 1.0, 3.0])
    assert np.allclose(refine_nodes(vals, 1), vals)
    fine = refine_nodes(vals, 2)
    assert np.allclose(fine, [0.0, 0.5, 1.0, 2.0, 3.0])
    assert len(refine_nodes(vals, 4)) == 9
    with pytest.raises(ConfigurationError):
        refine_nodes(vals, 0)


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
    with pytest.raises(ConfigurationError):
        band_log_profile(np.zeros(3), np.ones(3), 0.1, dx=-1.0)


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


def test_batched_sweep_single_band():
    lo, hi = centered_band(0.5, 256)
    got = band_log_probs(lo[None], hi[None], 1.0 / 256)
    assert got.shape == (1,)
    assert -got[0] == pytest.approx(PHI_DISC_256_05, rel=1e-9)
    assert got[0] == pytest.approx(band_log_prob(lo, hi, 1.0 / 256), rel=1e-12)


def test_impossible_row_leaves_the_batch_finite():
    lo, hi, dt = mixed_bands(n=32, rows=3)
    lo[1, 16] += 50.0  # row 1 must jump 50 in one step of sd 0.18
    hi[1, 16] += 50.0
    for start in (0.0, None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a dead row must not divide 0 by 0
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
