import hashlib
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm as gauss

from smallball import quantization
from smallball.errors import ConfigurationError, DataError, DomainError, RangeError
from smallball.estimators import ProbEstimate, SBFCurve
from smallball.models import BrownianBridge, FiniteSpectrum, Scalar, WienerPath
from smallball.norms import NormSpec, distance_lower_bound, eval_norm_batch, parse_norm
from smallball.quantization import (
    REFRESH_EVERY,
    Codebook,
    QuantizationResult,
    build_codebook,
    coverage_event_rate,
    distortion,
    invert_gauge,
    nearest_distance,
    sample_nearest,
    target_size,
    verify_distortion_gauge_match,
)
from smallball.rsbf import GaugeCurve
from smallball.streams import RandomStream

SUP = NormSpec("sup")
R_TWO_WORDS = 0.8  # floor(e^0.8) = 2


def test_target_size_values():
    assert target_size(0.0) == 1
    assert target_size(1.0) == 2
    assert target_size(2.0) == 7
    assert target_size(4.0) == 54
    with pytest.raises(ConfigurationError):
        target_size(-1.0)


def test_build_codebook_count_and_budget():
    book = build_codebook(Scalar(), 2.0, RandomStream(80))
    assert book.n == 7
    assert book.entries.shape == (7,)
    # 162754 paths x 4097 nodes x 4 bytes ~ 2.5 GiB: must refuse, not allocate
    with pytest.raises(ConfigurationError, match="needs 2544 MiB of float32 entries"):
        build_codebook(WienerPath(n_steps=4096), 12.0, RandomStream(80))


def test_build_codebook_budget_counts_float32_bytes():
    model = WienerPath(n_steps=32)
    need = 20 * 33 * 4  # floor(e^3) = 20 words of 33 float32 nodes
    assert build_codebook(model, 3.0, RandomStream(80), memory_budget=need).n == 20
    with pytest.raises(ConfigurationError, match="budget"):
        build_codebook(model, 3.0, RandomStream(80), memory_budget=need - 1)


@pytest.mark.parametrize("model", [
    WienerPath(n_steps=32), WienerPath(n_steps=32, d=2), BrownianBridge(n_steps=32),
    FiniteSpectrum((1.0, 0.5, 0.25)), Scalar(),
], ids=["wiener-d1", "wiener-d2", "bridge", "finite", "scalar"])
@pytest.mark.parametrize("block_bytes", [None, 1000])
def test_codebook_entries_are_float32_of_one_draw(model, block_bytes, monkeypatch):
    # 1000 bytes hold 3 wiener-d1 rows, so 20 words come in 7 blocks, the
    # last one partial; the default block holds all 20
    if block_bytes is not None:
        monkeypatch.setattr(quantization, "DRAW_BLOCK_BYTES", block_bytes)
    stream = RandomStream(89)
    book = build_codebook(model, 3.0, stream)
    want = model.sample_values(stream.generator(), 20).astype(np.float32)
    assert book.entries.dtype == np.float32
    assert np.array_equal(book.entries, want)


def test_codebook_rejects_wrong_count():
    with pytest.raises(ConfigurationError):
        Codebook(np.zeros(3), 2.0, RandomStream(0))


def test_nearest_distance_tiny_exact():
    book = Codebook(np.array([-1.0, 3.0]), R_TWO_WORDS, RandomStream(0))
    got = nearest_distance(np.array([0.0, 2.9]), book, 0.0, SUP)
    assert got == pytest.approx([1.0, 0.1], abs=1e-6)


def test_nearest_distance_chunking_is_exact():
    model = WienerPath(n_steps=32)
    book = build_codebook(model, 3.0, RandomStream(81))
    test = model.sample_values(RandomStream(82).generator(), 40)
    base = nearest_distance(test, book, model.dt, SUP)
    assert np.array_equal(nearest_distance(test, book, model.dt, SUP, chunk=1), base)
    assert np.array_equal(nearest_distance(test, book, model.dt, SUP, chunk=7), base)


def full_scan(test, codebook, dt, norm_spec, chunk=1024):
    """Every (test, codeword) pair at full resolution: the unscreened float32
    scan the screened search must reproduce bit for bit."""
    t32 = np.asarray(test, dtype=np.float32)
    e32 = np.asarray(codebook.entries, dtype=np.float32)
    best = np.full(len(t32), np.inf)
    for a in range(0, codebook.n, chunk):
        diff = t32[:, None, ...] - e32[None, a : a + chunk, ...]
        flat = diff.reshape((-1,) + diff.shape[2:])
        d = eval_norm_batch(flat, dt, norm_spec).reshape(len(t32), -1)
        np.minimum(best, d.min(axis=1), out=best)
    return best


def book_of(entries):
    # floor(e^r) = len(entries) for r = log(n + 1/2)
    return Codebook(entries, math.log(len(entries) + 0.5), RandomStream(0))


SCAN_MODELS = {
    "wiener-d1": WienerPath(n_steps=32),
    "wiener-d2": WienerPath(n_steps=32, d=2),
    "bridge": BrownianBridge(n_steps=32),
    "finite": FiniteSpectrum((1.0, 0.5, 0.25, 0.125)),
    "scalar": Scalar(),
}
SCAN_NORMS = ("sup", "sup:a=0,b=0.5", "lp:p=2", "lp:p=2,a=0.25,b=0.75", "lp:p=1.5",
              "hoelder:beta=0.25")


@pytest.mark.parametrize("model_name, norm", [
    (m, n) for m in sorted(SCAN_MODELS) for n in SCAN_NORMS
    # hoelder is undefined for degenerate (dt = 0) draws
    if not (SCAN_MODELS[m].dt == 0.0 and n.startswith("hoelder"))
])
def test_screened_search_equals_full_scan(model_name, norm):
    model = SCAN_MODELS[model_name]
    spec = parse_norm(norm)
    words = model.sample_values(RandomStream(89).generator(), 60)
    # five duplicated codewords, and a test draw equal to a codeword
    book = book_of(np.concatenate([words, words[:5]]))
    test = model.sample_values(RandomStream(90).generator(), 40)
    test[3] = words[7]
    want = full_scan(test, book, model.dt, spec)
    assert want[3] == 0.0
    for chunk in (1, 7, 1024):
        assert np.array_equal(nearest_distance(test, book, model.dt, spec, chunk=chunk), want)


@pytest.mark.parametrize("norm", ("lp:p=4", "hoelder:beta=0.25"))
@pytest.mark.parametrize("scan_bytes", (1, 1000, 2**24))
def test_unscreened_scan_in_capped_slices_equals_full_scan(norm, scan_bytes, monkeypatch):
    # no screen prunes these norms, so every pair is evaluated; 1 byte makes
    # one pair per slice, 1000 bytes seven pairs of 33 float32 nodes, with
    # the last slice of each block partial
    model = WienerPath(n_steps=32)
    spec = parse_norm(norm)
    book = book_of(model.sample_values(RandomStream(92).generator(), 60))
    test = model.sample_values(RandomStream(93).generator(), 40)
    sizes = []

    def recording(values, dt, norm_spec):
        sizes.append(values.nbytes)
        return eval_norm_batch(values, dt, norm_spec)

    monkeypatch.setattr(quantization, "SCAN_BLOCK_BYTES", scan_bytes)
    monkeypatch.setattr(quantization, "eval_norm_batch", recording)
    for chunk in (7, 1024):
        sizes.clear()
        got = nearest_distance(test, book, model.dt, spec, chunk=chunk)
        assert np.array_equal(got, full_scan(test, book, model.dt, spec))
        # the first evaluation is the starting guess, one codeword per draw
        assert max(sizes[1:]) <= max(scan_bytes, 4 * 33)


@pytest.mark.parametrize("norm", ("sup", "sup:a=0,b=0.5", "lp:p=2", "lp:p=2,a=0.25,b=0.75"))
@pytest.mark.parametrize("d", (1, 2))
def test_screen_bound_holds_under_cancellation(d, norm):
    # codewords within 1e-4 of the test draws, all far from the origin: the
    # Gram expansion cancels almost all of |t|^2 + |c|^2
    model = WienerPath(n_steps=64, d=d)
    spec = parse_norm(norm)
    rng = RandomStream(91).generator()
    test = model.sample_values(rng, 8)
    noise = 1e-4 * rng.standard_normal((300,) + test.shape[1:])
    book = book_of(50.0 + test[np.arange(300) % 8] + noise)
    test = 50.0 + test
    t32, e32 = test.astype(np.float32), book.entries.astype(np.float32)
    lb = distance_lower_bound(t32, e32, model.dt, spec)
    diff = t32[:, None, ...] - e32[None, ...]
    exact = eval_norm_batch(diff.reshape((-1,) + diff.shape[2:]), model.dt, spec)
    exact = exact.reshape(len(test), book.n)
    assert np.all(lb <= exact)
    # the screen is informative, not the trivial bound 0
    assert np.all(lb > (0.9 if spec.kind == "lp" else 0.0) * exact)
    assert np.array_equal(nearest_distance(test, book, model.dt, spec),
                          full_scan(test, book, model.dt, spec))


def test_sample_nearest_first_batch_reproducible():
    model = Scalar()
    zs = sample_nearest(model, SUP, R_TWO_WORDS, 100, RandomStream(83))
    again = sample_nearest(model, SUP, R_TWO_WORDS, 100, RandomStream(83))
    assert np.array_equal(zs, again)
    # first refresh batch, rebuilt by hand from the documented stream layout
    stream = RandomStream(83)
    book = build_codebook(model, R_TWO_WORDS, stream.spawn(1).spawn(0))
    test = model.sample_values(stream.spawn(0).generator(), REFRESH_EVERY)
    manual = nearest_distance(test, book, model.dt, SUP)
    assert np.array_equal(zs[:REFRESH_EVERY], manual)
    # later batches use fresh codebooks, so the law cannot be batch-periodic
    assert not np.array_equal(zs[:36], zs[64:100])


def digest(values) -> str:
    raw = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# recorded one batch after another: (sha256 prefix, first, last) of 200
# distances at r=7 (1096 words) in 4 batches, the last one partial
SAMPLE_NEAREST_PINS = {
    ("sup", False): ("1412dc80d83ffb21", 0.6239690184593201, 0.5591850280761719),
    ("sup", True): ("a315943623416a68", 0.5160760283470154, 0.44885683059692383),
    ("lp:p=2", False): ("47f2ffafe10cd622", 0.2524123191833496, 0.22970828413963318),
    ("lp:p=2", True): ("258da1683fc48fc8", 0.22921490669250488, 0.20773737132549286),
}


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("norm, given", list(SAMPLE_NEAREST_PINS))
def test_sample_nearest_is_pinned(norm, given, workers, monkeypatch):
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    model, spec = WienerPath(n_steps=64), parse_norm(norm)
    if given:
        book = build_codebook(model, 7.0, RandomStream(62))
        zs = sample_nearest(model, spec, 7.0, 200, RandomStream(63), codebook=book)
    else:
        zs = sample_nearest(model, spec, 7.0, 200, RandomStream(61))
    assert zs.shape == (200,)
    assert (digest(zs), zs[0], zs[-1]) == SAMPLE_NEAREST_PINS[norm, given]


def test_distortion_anchor_two_moment():
    # one codeword: Z = |X - C| with X, C iid, so E Z^2 = 2 exactly
    model = Scalar()
    book = build_codebook(model, 0.0, RandomStream(84))
    res = distortion(model, SUP, book, 2.0, 4000, RandomStream(84))
    assert abs(res.d_hat - math.sqrt(2.0)) < 3.0 * res.stderr
    assert res.stderr < 0.12
    assert len(res.z_quantiles) == 5
    assert all(a <= b for a, b in zip(res.z_quantiles, res.z_quantiles[1:]))


def test_distortion_anchor_one_moment():
    model = Scalar()
    book = build_codebook(model, 0.0, RandomStream(85))
    res = distortion(model, SUP, book, 1.0, 4000, RandomStream(85))
    assert abs(res.d_hat - 2.0 / math.sqrt(math.pi)) < 3.0 * res.stderr


def test_distortion_validation():
    model = Scalar()
    book = build_codebook(model, 0.0, RandomStream(86))
    with pytest.raises(DomainError):
        distortion(model, SUP, book, 0.0, 500, RandomStream(86))
    with pytest.raises(ConfigurationError):
        distortion(model, SUP, book, 2.0, 99, RandomStream(86))


def min_moment_oracle(n_words: int, s: float) -> float:
    """(E min_i |X - C_i|^s)^(1/s) by survival-function quadrature.

    Inner integral in t, outer Gauss-Hermite in the test point; the i.i.d.
    codewords make the survival factor a plain power.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)

    def survival(t, x):
        return 2.0 - gauss.cdf(t - x) - gauss.cdf(t + x)

    total = 0.0
    for x, w in zip(nodes, weights):
        val, err = integrate.quad(
            lambda t: s * t ** (s - 1.0) * survival(t, x) ** n_words,
            0.0, abs(x) + 14.0, limit=200,
        )
        assert err < 1e-5  # the reported estimate is conservative
        total += w * val
    return (total / math.sqrt(2.0 * math.pi)) ** (1.0 / s)


def test_min_moment_oracle_self_check():
    # with a single codeword the second moment is E|X - C|^2 = 2, exactly
    assert min_moment_oracle(1, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_distortion_two_words_matches_oracle():
    model = Scalar()
    book = build_codebook(model, R_TWO_WORDS, RandomStream(87))
    res = distortion(model, SUP, book, 2.0, 2000, RandomStream(87))
    assert abs(res.d_hat - min_moment_oracle(2, 2.0)) < 3.0 * res.stderr


def test_coverage_rate_matches_manual_count():
    model = Scalar()
    g = 1.1
    cov = coverage_event_rate(model, SUP, lambda r: g, 0.0, 0.5, 600, RandomStream(88))
    zs = sample_nearest(model, SUP, 0.0, 600, RandomStream(88))
    want = float(np.mean((zs >= 0.5 * g) & (zs <= 1.5 * g)))
    assert cov.rate == want
    assert 0.0 < cov.rate < 1.0
    assert cov.stderr > 0.0


def test_coverage_rate_kappa_validation():
    for kappa in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ConfigurationError):
            coverage_event_rate(Scalar(), SUP, lambda r: 1.0, 0.0, kappa, 200,
                                RandomStream(0))


# -- gauge inversion ----------------------------------------------------------


def power_curve(c=1.0, grid=(1.0, 0.5, 0.25)):
    # depth c / eps^2 is a straight line in log-log, so interpolation is exact
    ests = tuple(ProbEstimate(-c / e**2, 0.01, 1000, "mc") for e in grid)
    return SBFCurve(tuple(grid), ests, "synthetic", "sup")


def test_invert_gauge_knot_round_trip():
    curve = power_curve()
    inv = invert_gauge(curve)
    for e in curve.eps_grid:
        assert inv(1.0 / e**2) == pytest.approx(e, rel=1e-12)
    assert (inv.knots_r[0], inv.knots_r[-1]) == (1.0, 16.0)


def test_invert_gauge_interior_exact_for_power_law():
    inv = invert_gauge(power_curve(c=2.0))
    for e in (0.8, 0.62, 0.3):
        assert inv(2.0 / e**2) == pytest.approx(e, rel=1e-12)
    arr = inv(np.array([2.0, 8.0]))
    assert arr == pytest.approx([1.0, 0.5], rel=1e-12)


def test_invert_gauge_range_and_flat_errors():
    inv = invert_gauge(power_curve())
    with pytest.raises(RangeError):
        inv(0.5)
    with pytest.raises(RangeError):
        inv(17.0)
    flat = SBFCurve((1.0, 0.5), (ProbEstimate(-2.0, 0.0, 0, "analytic"),) * 2, "x", "sup")
    with pytest.raises(DataError):
        invert_gauge(flat)
    with pytest.raises(ConfigurationError):
        invert_gauge(SBFCurve((1.0,), (ProbEstimate(-2.0, 0.0, 0, "analytic"),), "x", "sup"))


def gauge_curve_fixture():
    grid = (1.0, 0.5, 0.25)
    med = tuple(1.0 / e**2 for e in grid)
    mean = tuple(1.1 / e**2 for e in grid)
    return GaugeCurve(
        eps_grid=grid, n_centers=200, median=med, mean=mean,
        mean_se=(0.05, 0.1, 0.3), median_ci=tuple((m * 0.9, m * 1.1) for m in med),
        iqr=(0.5, 1.5, 5.0), stddev=(0.6, 1.8, 6.0),
        rel_iqr=(0.5, 0.375, 0.3125),
    )


def test_invert_gauge_mean_and_median_routes():
    g = gauge_curve_fixture()
    inv_mean = invert_gauge(g, which="mean")
    inv_med = invert_gauge(g, which="median")
    assert inv_mean(1.1) == pytest.approx(1.0, rel=1e-12)
    assert inv_med(4.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ConfigurationError):
        invert_gauge(g, which="mode")


def test_invert_gauge_isotonic_projection_smooths_noise():
    # a tiny local inversion pools into one knot instead of failing the run
    grid = (1.0, 0.9, 0.5)
    ests = (
        ProbEstimate(-1.0, 0.05, 1000, "mc"),
        ProbEstimate(-0.98, 0.05, 1000, "mc"),
        ProbEstimate(-4.0, 0.05, 1000, "mc"),
    )
    inv = invert_gauge(SBFCurve(grid, ests, "x", "sup"))
    lo, hi = inv.knots_r[0], inv.knots_r[-1]
    assert lo == pytest.approx(0.99)  # equal weights pool to the plain mean
    assert inv(lo) == pytest.approx(math.sqrt(0.9), rel=1e-12)
    assert inv(hi) == pytest.approx(0.5, rel=1e-12)


# -- verifier reports ---------------------------------------------------------


def qres(r, d_hat, stderr=0.01):
    return QuantizationResult(r, 2.0, d_hat, stderr, 1000, (0.0,) * 5)


def test_gauge_match_accepts_drift_toward_one():
    results = [qres(4.0, 1.5), qres(8.0, 1.2), qres(12.0, 1.05)]
    report = verify_distortion_gauge_match(results, lambda r: 1.0)
    assert report.passed
    ratios = [row.observed for row in report.rows_for("distortion-gauge-ratio")]
    assert ratios == pytest.approx([1.5, 1.2, 1.05])


def test_gauge_match_rejects_divergence():
    results = [qres(4.0, 1.5), qres(8.0, 1.9), qres(12.0, 2.5)]
    report = verify_distortion_gauge_match(results, lambda r: 1.0)
    assert not report.passed


def test_gauge_match_without_hypothesis_is_informational():
    results = [qres(4.0, 1.5), qres(8.0, 1.9), qres(12.0, 2.5)]
    report = verify_distortion_gauge_match(results, lambda r: 1.0, hypothesis_ok=False)
    assert report.passed  # None verdicts do not fail the report
    assert report.rows_for("distortion-gauge-match")[0].passed is None
    with pytest.raises(ConfigurationError):
        verify_distortion_gauge_match([], lambda r: 1.0)
