import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest, norm as gauss

from smallball import rsbf
from smallball.errors import ConfigurationError, DataError, DomainError, PowerWarning
from smallball.estimators import (
    ProbEstimate,
    SBFCurve,
    _scalar_ell_exact,
    ball_prob_mc,
    sbf_analytic,
)
from smallball.models import BrownianBridge, FiniteSpectrum, Scalar, WienerPath
from smallball.norms import NormSpec
from smallball.rsbf import (
    GATE_LOG_LEVEL,
    NU,
    SLACK,
    RSBFSample,
    abs_moment_norm,
    certify_membership,
    check_doubling,
    dispersion_trend,
    gauge_stats,
    growth_hypothesis,
    lipschitz_probe,
    mean_median_trend,
    moment_upper_bound,
    sample_rsbf,
    shift_inequality_check,
    verify_enclosure,
    verify_enlarged_ball,
    verify_gauge_sandwich,
)
from smallball.streams import RandomStream
from smallball.transfer import band_log_prob

SUP = NormSpec("sup")

ELL_SCALAR_1_05 = 1.4199324821566266  # -log(Phi(1.5) - Phi(0.5))


def scalar_phi(eps):
    return sbf_analytic(Scalar(), SUP, eps).phi


def exact_scalar_panel(eps_grid, n_centers, seed=50):
    """RSBF panel with every ball mass evaluated in closed form."""
    xs = Scalar().sample_values(RandomStream(seed).spawn(0).generator(), n_centers)
    out = []
    for eps in eps_grid:
        ells = _scalar_ell_exact(xs, eps)
        out.extend(
            RSBFSample(i, eps, ProbEstimate(-float(ells[i]), 0.0, 0, "analytic"))
            for i in range(n_centers)
        )
    return xs, out


def scalar_curve(eps_grid):
    return SBFCurve(
        tuple(eps_grid),
        tuple(sbf_analytic(Scalar(), SUP, e) for e in eps_grid),
        "scalar", "sup",
    )


# -- the exact scalar law and moment helpers ------------------------------------


def test_scalar_ell_frozen_value():
    got = float(_scalar_ell_exact(np.asarray(1.0), 0.5))
    assert got == pytest.approx(ELL_SCALAR_1_05, rel=1e-12)
    assert got == pytest.approx(-math.log(gauss.cdf(1.5) - gauss.cdf(0.5)), rel=1e-12)


def test_scalar_ell_shape_properties():
    xs = np.linspace(0.0, 6.0, 25)
    ells = _scalar_ell_exact(xs, 0.5)
    assert np.all(np.diff(ells) > 0)  # increasing in |x|
    assert np.allclose(_scalar_ell_exact(-xs, 0.5), ells, rtol=1e-12)
    # deep tail stays finite through the log-cdf route
    far = float(_scalar_ell_exact(np.asarray(40.0), 1.0))
    assert 700.0 < far < 800.0  # ~ (|x| - eps)^2 / 2


def test_abs_moment_norm_exact_cases():
    assert abs_moment_norm(2.0) == pytest.approx(1.0, rel=1e-12)
    assert abs_moment_norm(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert abs_moment_norm(4.0) == pytest.approx(3.0 ** 0.25, rel=1e-12)
    with pytest.raises(DomainError):
        abs_moment_norm(0.0)


def test_moment_upper_bound_formula():
    z = abs_moment_norm(4.0)
    assert moment_upper_bound(2.0, 2) == pytest.approx(2.0 + 0.5 * (2.0 + z) ** 2)


def test_gate_level_value():
    assert GATE_LOG_LEVEL == pytest.approx(-math.log(gauss.cdf(-3.0)), rel=1e-12)


def test_closed_forms_equal_the_scipy_special_expressions_they_replace():
    from scipy.special import gammaln, ndtr

    assert GATE_LOG_LEVEL == -math.log(ndtr(-3.0))
    for q in range(1, 8):
        log_m = (q / 2) * math.log(2.0) + gammaln((q + 1) / 2) - 0.5 * math.log(math.pi)
        assert abs_moment_norm(q) == math.exp(log_m / q)
        assert abs_moment_norm(float(q)) == abs_moment_norm(q)
    for q in (2.5, -2, math.nan, math.inf):
        with pytest.raises(DomainError):
            abs_moment_norm(q)


def test_growth_hypothesis_is_made_for_path_models_only():
    # depths growing like a power of 1/eps; the scalar and a k-coordinate
    # spectrum grow like log(1/eps) and k log(1/eps)
    assert growth_hypothesis(WienerPath(16)) and growth_hypothesis(BrownianBridge(16))
    assert not growth_hypothesis(Scalar())
    assert not growth_hypothesis(FiniteSpectrum((1.0, 0.5, 0.25)))


def test_rsbf_sample_validation():
    good = ProbEstimate(-1.0, 0.0, 0, "analytic")
    with pytest.raises(DomainError):
        RSBFSample(0, -0.5, good)
    # a positive log mass beyond noise is corrupt data, not a config mistake
    with pytest.raises(DataError):
        RSBFSample(0, 0.5, ProbEstimate(1e-12, 1e-13, 10, "mc"))


# -- sampling routes --------------------------------------------------------------


def test_sample_rsbf_mc_tracks_exact_values():
    stream = RandomStream(51)
    panel = sample_rsbf(Scalar(), SUP, (1.0, 0.5), 20, stream,
                        estimator="mc", n_samples=40_000)
    centers = Scalar().sample_values(stream.spawn(0).generator(), 20)
    for s in panel:
        exact = float(_scalar_ell_exact(np.asarray(centers[s.center_id]), s.eps))
        assert abs(s.ell_hat.phi - exact) < 3.5 * s.ell_hat.stderr_log


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_scalar_panel_is_the_exact_law(sigma):
    model = Scalar(sigma=sigma)
    stream = RandomStream(51)
    grid = (1.0, 0.5, 0.25)
    panel = sample_rsbf(model, SUP, grid, 20, stream, estimator="analytic")
    centers = model.sample_values(stream.spawn(0).generator(), 20)
    assert [(s.center_id, s.eps) for s in panel] == [(i, e) for i in range(20) for e in grid]
    for s in panel:
        exact = float(_scalar_ell_exact(centers[s.center_id] / sigma, s.eps / sigma))
        assert s.ell_hat.phi == exact
        assert s.ell_hat.stderr_log == 0.0 and s.ell_hat.method == "analytic"
        assert not s.ell_hat.bound


def test_sample_rsbf_transfer_is_deterministic_and_enclosed():
    model = WienerPath(n_steps=64)
    stream = RandomStream(52)
    panel = sample_rsbf(model, SUP, (0.5, 0.4), 30, stream, estimator="transfer")
    again = sample_rsbf(model, SUP, (0.5, 0.4), 30, stream, estimator="transfer")
    assert all(a.ell_hat.log_prob == b.ell_hat.log_prob for a, b in zip(panel, again))
    for eps in (0.5, 0.4):
        lo = np.full(65, -eps)
        phi = -band_log_prob(lo, -lo, model.dt, start=0.0)
        # a centered ball is the most massive one (exact, not asymptotic)
        assert all(s.ell_hat.phi >= phi - 1e-9 for s in panel if s.eps == eps)


def test_sample_rsbf_splitting_agrees_with_transfer(monkeypatch):
    # same centers by construction (both draw them from stream.spawn(0))
    monkeypatch.setattr(rsbf, "PANEL_PATHS", 256)
    model = WienerPath(n_steps=64)
    stream = RandomStream(53)
    exact = sample_rsbf(model, SUP, (0.5,), 12, stream, estimator="transfer")
    noisy = sample_rsbf(model, SUP, (0.5,), 12, stream, estimator="splitting")
    for a, b in zip(exact, noisy):
        assert a.center_id == b.center_id
        assert not b.ell_hat.bound
        assert abs(a.ell_hat.phi - b.ell_hat.phi) < 3.5 * b.ell_hat.stderr_log


# values recorded with one fresh array per splitting move and the replicas
# run one after another, (log_prob, stderr_log) per (center, radius)
RSBF_SPLIT_PINS = [
    (-5.499925135743209, 0.33338443705793364), (-9.884895961620998, 0.3876105092872123),
    (-4.605792498208105, 0.532943752190237), (-10.557370436620232, 0.8554795466692058),
    (-6.958398616118231, 0.5076153398645293), (-12.853769519023125, 0.5738005028261411),
    (-5.709214099928246, 0.36696805166120916), (-10.16203144252183, 0.42198274322013685),
]


@pytest.mark.parametrize("workers", ["1", "3"])
def test_sample_rsbf_splitting_is_pinned(workers, monkeypatch):
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    monkeypatch.setattr(rsbf, "PANEL_PATHS", 128)
    panel = sample_rsbf(WienerPath(n_steps=64), NormSpec("lp", p=2.0), (0.3, 0.2), 4,
                        RandomStream(45), estimator="splitting")
    assert [(s.center_id, s.eps) for s in panel] == [(i, e) for i in range(4) for e in (0.3, 0.2)]
    assert [(s.ell_hat.log_prob, s.ell_hat.stderr_log) for s in panel] == RSBF_SPLIT_PINS
    assert not any(s.ell_hat.bound for s in panel)


# recorded before the replica fold: a center whose ensemble died in any
# replica is a bound at its smallest replica value, (log_prob, stderr, bound)
RSBF_DEAD_PINS = [
    (-4.041100047703289, math.inf, True), (-13.61472642233258, math.inf, True),
    (-5.139712336371398, math.inf, True), (-5.139712336371398, math.inf, True),
    (-2.249340578475233, math.inf, True), (-2.249340578475233, math.inf, True),
    (-3.517115769778611, 0.5063183041410069, False), (-8.675260157092708, 1.3784201826358213, False),
    (-3.6733752675779705, math.inf, True), (-13.79864926049351, math.inf, True),
    (-2.1439800628174073, math.inf, True), (-2.1439800628174073, math.inf, True),
]


def test_sample_rsbf_dead_centers_are_pinned(monkeypatch):
    monkeypatch.setattr(rsbf, "PANEL_PATHS", 16)
    monkeypatch.setattr(rsbf, "PANEL_MOVES", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        panel = sample_rsbf(WienerPath(n_steps=16), NormSpec("lp", p=2.0), (0.3, 0.15), 6,
                            RandomStream(2))
    assert [(s.ell_hat.log_prob, s.ell_hat.stderr_log, s.ell_hat.bound)
            for s in panel] == RSBF_DEAD_PINS


# recorded one radius after another: log_prob per (center, radius)
RSBF_TRANSFER_PINS = [
    -5.785975319626565, -8.701125157930928, -14.223806244323336,
    -5.614795033416418, -8.707380643058167, -14.691350148090105,
    -6.153322992981129, -9.221883864946683, -14.558041850622976,
    -9.5586208075415, -13.490977998883686, -20.40221215359041,
]


@pytest.mark.parametrize("workers", ["1", "3"])
def test_sample_rsbf_transfer_is_pinned(workers, monkeypatch):
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    panel = sample_rsbf(WienerPath(n_steps=64), SUP, (0.5, 0.4, 0.3), 4, RandomStream(64),
                        estimator="transfer")
    assert [(s.center_id, s.eps) for s in panel] == [(i, e) for i in range(4)
                                                     for e in (0.5, 0.4, 0.3)]
    assert [s.ell_hat.log_prob for s in panel] == RSBF_TRANSFER_PINS


def test_sample_rsbf_validation():
    with pytest.raises(ConfigurationError):
        sample_rsbf(Scalar(), SUP, (0.5,), 1, RandomStream(0))
    with pytest.raises(DomainError):
        sample_rsbf(Scalar(), SUP, (0.0,), 4, RandomStream(0))
    with pytest.raises(ConfigurationError):
        sample_rsbf(Scalar(), SUP, (0.5,), 4, RandomStream(0), estimator="transfer")
    with pytest.raises(ConfigurationError):
        sample_rsbf(WienerPath(n_steps=8, d=2), SUP, (0.5,), 4, RandomStream(0),
                    estimator="transfer")
    with pytest.raises(ConfigurationError):
        sample_rsbf(Scalar(), SUP, (0.5,), 4, RandomStream(0), estimator="magic")


# -- gauge summaries against quadrature oracles -----------------------------------


def quad_mean_ell(eps):
    val, err = integrate.quad(
        lambda x: float(_scalar_ell_exact(np.asarray(x), eps)) * gauss.pdf(x),
        -12.0, 12.0, limit=200,
    )
    assert err < 1e-8
    return val


def test_gauge_mean_matches_quadrature(monkeypatch):
    monkeypatch.setattr(rsbf, "N_BOOT", 100)
    eps = 0.5
    _, panel = exact_scalar_panel((eps,), 4000)
    gauge = gauge_stats(panel, stream=RandomStream(54))
    oracle = quad_mean_ell(eps)
    assert abs(gauge.mean[0] - oracle) < 3.0 * gauge.mean_se[0]


def test_gauge_median_matches_quantile_oracle():
    # ell is increasing in |x|, so its median is ell at the |X| median
    eps = 0.5
    _, panel = exact_scalar_panel((eps,), 4001)
    gauge = gauge_stats(panel, stream=RandomStream(55))
    oracle = float(_scalar_ell_exact(np.asarray(gauss.ppf(0.75)), eps))
    lo, hi = gauge.median_ci[0]
    assert lo <= oracle <= hi
    assert gauge.median[0] == pytest.approx(oracle, rel=0.05)


def test_gauge_iqr_matches_quantile_oracle(monkeypatch):
    monkeypatch.setattr(rsbf, "N_BOOT", 100)
    eps = 0.5
    _, panel = exact_scalar_panel((eps,), 4001)
    gauge = gauge_stats(panel, stream=RandomStream(56))
    q75 = float(_scalar_ell_exact(np.asarray(gauss.ppf(0.875)), eps))
    q25 = float(_scalar_ell_exact(np.asarray(gauss.ppf(0.625)), eps))
    assert gauge.iqr[0] == pytest.approx(q75 - q25, rel=0.08)
    assert gauge.rel_iqr[0] == pytest.approx(gauge.iqr[0] / gauge.median[0], rel=1e-12)


def test_gauge_moments_respect_deterministic_bound(monkeypatch):
    monkeypatch.setattr(rsbf, "N_BOOT", 50)
    _, panel = exact_scalar_panel((0.2, 0.1), 800)
    priced = []

    def centered(e):
        priced.append(e)
        return scalar_phi(e)

    gauge = gauge_stats(panel, centered=centered, stream=RandomStream(57))
    assert priced == [0.1, 0.05]  # each half radius priced once, for every order
    for p in (1, 2):
        for got, cap in zip(gauge.moments[p], gauge.moment_bounds[p]):
            assert got <= cap
    assert gauge.mean[1] > gauge.mean[0] and gauge.median[1] > gauge.median[0]


def test_gauge_stats_small_panel_warns(monkeypatch):
    monkeypatch.setattr(rsbf, "N_BOOT", 20)
    _, panel = exact_scalar_panel((0.5,), 10)
    with pytest.warns(PowerWarning):
        gauge_stats(panel, stream=RandomStream(58))
    with pytest.raises(ConfigurationError):
        gauge_stats([])


def censored_panel(costs, bound_ids, eps=0.5):
    """One radius of a panel; the listed centers are zero-hit bounds."""
    return [RSBFSample(i, eps, ProbEstimate(-c, math.inf, 1000, "mc", bound=True)
                       if i in bound_ids else ProbEstimate(-c, 0.1, 1000, "mc"))
            for i, c in enumerate(costs)]


def test_gauge_censored_radius_has_no_average(monkeypatch):
    # the deepest of 8 centers is censored: every average is undefined, and
    # every order statistic below it is exact
    monkeypatch.setattr(rsbf, "N_BOOT", 50)
    costs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        gauge = gauge_stats(censored_panel(costs, {7}), stream=RandomStream(3))
        clean = gauge_stats(censored_panel(costs, set()), stream=RandomStream(3))
    for value in (gauge.mean[0], gauge.mean_se[0], gauge.stddev[0],
                  gauge.moments[1][0], gauge.moments[2][0]):
        assert math.isnan(value)
    assert gauge.median == clean.median == (4.0,)
    assert gauge.iqr == clean.iqr
    assert gauge.rel_iqr == clean.rel_iqr
    assert math.isfinite(clean.mean[0]) and math.isfinite(clean.stddev[0])


def test_gauge_drops_quantiles_a_censored_cost_could_move(monkeypatch):
    # a censored cost of 2 may truly lie anywhere above 2, so the median and
    # quartiles (ranks 2 to 6 of 8) are unknown, while rank 0 stays exact
    monkeypatch.setattr(rsbf, "N_BOOT", 50)
    costs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        gauge = gauge_stats(censored_panel(costs, {1}), stream=RandomStream(3))
        top = gauge_stats(censored_panel(costs, {5, 6, 7}), stream=RandomStream(3))
    for value in (gauge.median[0], *gauge.median_ci[0], gauge.iqr[0], gauge.rel_iqr[0]):
        assert math.isnan(value)
    # three of eight censored at the top: the median (rank 3) stays, the
    # upper quartile (rank 6) does not
    assert top.median == (4.0,)
    assert math.isnan(top.iqr[0])


def test_scalar_law_against_inverted_cdf_oracle():
    # oracle CDF by inverting the exact monotone map |x| -> ell
    eps = 0.5
    xs = Scalar().sample_values(RandomStream(59).generator(), 2000)
    ells = _scalar_ell_exact(xs, eps)
    floor = float(_scalar_ell_exact(np.asarray(0.0), eps))

    def cdf(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        for i, ti in enumerate(t):
            if ti <= floor:
                continue
            lo, hi = 0.0, 60.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(_scalar_ell_exact(np.asarray(mid), eps)) < ti:
                    lo = mid
                else:
                    hi = mid
            out[i] = 2.0 * gauss.cdf(0.5 * (lo + hi)) - 1.0
        return out

    assert kstest(ells, cdf).pvalue > 0.01


# -- inequality verifiers ----------------------------------------------------------


def test_enclosure_on_exact_scalar_panel():
    eps_grid = (1.0, 0.5, 0.25)
    curve = scalar_curve((1.0, 0.5, 0.25, 0.125))
    _, panel = exact_scalar_panel(eps_grid, 150)
    report = verify_enclosure(curve, panel)
    assert report.passed
    for row in report.rows_for("lower-envelope"):
        assert row.observed == 0.0
    fracs = [r.observed for r in report.rows_for("two-scale-upper")]
    assert all(0.0 <= f <= 1.0 for f in fracs)


def test_enclosure_does_not_count_bound_rows_as_undercuts():
    curve = scalar_curve((0.5, 0.25))
    depth = curve.estimates[0].phi
    # a bound only says the cost is at least its value
    panel = censored_panel([depth + 1.0, 0.01, depth + 2.0], {1})
    assert verify_enclosure(curve, panel).rows_for("lower-envelope")[0].passed
    panel = censored_panel([depth + 1.0, 0.01, depth + 2.0], set())
    assert not verify_enclosure(curve, panel).rows_for("lower-envelope")[0].passed


def test_enclosure_leaves_bound_rows_under_the_cap_undecided():
    # a bound row under the two-scale cap may cost more than the cap, so
    # its radius has no fraction and the trend row touching it decides
    # nothing; a bound row above the cap is above it for sure
    curve = scalar_curve((1.0, 0.5, 0.25))
    cap = (1.0 + SLACK) * 2.0 * scalar_phi(0.25)
    wide = censored_panel([0.5, 0.6, 0.7], set(), eps=1.0)
    report = verify_enclosure(curve, wide + censored_panel([1.0, 1.9, 1.4], {1}))
    fracs = [r.observed for r in report.rows_for("two-scale-upper")]
    assert fracs[0] == 1.0 and math.isnan(fracs[1])
    assert [r.passed for r in report.rows_for("two-scale-upper-trend")] == [None]
    report = verify_enclosure(curve, wide + censored_panel([1.0, cap + 1.0, 1.4], {1}))
    assert [r.observed for r in report.rows_for("two-scale-upper")] == [1.0, 2.0 / 3.0]
    assert report.rows_for("two-scale-upper-trend")[0].passed is True


def test_gauge_sandwich_is_informational_without_a_mean(monkeypatch):
    monkeypatch.setattr(rsbf, "N_BOOT", 20)
    eps = 0.5
    curve = scalar_curve((eps, eps / math.sqrt(2.0), eps / 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        gauge = gauge_stats(censored_panel([1.0, 2.0, 9.0], {2}), stream=RandomStream(3))
    report = verify_gauge_sandwich(curve, gauge)
    assert [r.passed for r in report.rows] == [None, None]


def test_gauge_sandwich_on_exact_scalar_panel(monkeypatch):
    monkeypatch.setattr(rsbf, "N_BOOT", 50)
    eps = 0.5
    grid = (eps, eps / math.sqrt(2.0), eps / 2.0)
    curve = scalar_curve(grid)
    _, panel = exact_scalar_panel((eps,), 500)
    gauge = gauge_stats(panel, stream=RandomStream(60))
    report = verify_gauge_sandwich(curve, gauge)
    assert report.passed
    assert {r.claim for r in report.rows} == {"gauge-lower", "gauge-upper"}


def test_doubling_lower_scalar_passes_with_shallow_pairs_set_aside():
    curve = scalar_curve((2.0, 1.0, 0.5, 0.25, 0.125, 0.0625))
    report = check_doubling(curve, "lower")
    assert report.passed
    shallow = [r for r in report.rows if "shallow" in r.note]
    assert shallow  # the (1.0, 2.0) pair is over a nearly full ball
    verdict = report.rows_for("doubling-lower")[0]
    assert verdict.observed <= NU


def test_doubling_upper_fails_for_log_type_curves():
    # scalar depths grow like log(1/eps): the polynomial growth floor must fail
    curve = scalar_curve((0.5, 0.25, 0.125, 0.0625))
    report = check_doubling(curve, "upper")
    assert not report.passed


def test_doubling_wiener_discrete_ratios_near_four():
    model = WienerPath(n_steps=512)
    grid = (0.8, 0.4, 0.2)
    ests = []
    for e in grid:
        lo = np.full(513, -e)
        lp = band_log_prob(lo, -lo, model.dt, start=0.0)
        ests.append(ProbEstimate(min(lp, 0.0), 0.0, 0, "analytic"))
    curve = SBFCurve(grid, tuple(ests))
    assert check_doubling(curve, "lower").passed
    assert check_doubling(curve, "upper").passed
    ratios = [r.observed for r in check_doubling(curve, "lower").rows_for("doubling-ratio")]
    assert all(2.5 < r < 4.5 for r in ratios)


def test_doubling_needs_usable_pairs():
    ests = (ProbEstimate(-0.05, 0.0, 0, "analytic"), ProbEstimate(-0.09, 0.0, 0, "analytic"))
    curve = SBFCurve((4.0, 2.0), ests)
    with pytest.raises(ConfigurationError):
        check_doubling(curve, "lower")
    with pytest.raises(ConfigurationError):
        check_doubling(curve, "sideways")


# -- membership certificates and shifted sets ---------------------------------------


def test_certify_membership_scalar_exact():
    dec = certify_membership(Scalar(), SUP, 2.0, 1.0, 1.5)
    assert dec.ok and dec.ball_norm <= 1.0 and dec.shift_norm <= 1.5
    assert not certify_membership(Scalar(), SUP, 5.0, 1.0, 1.5).ok


def test_certify_membership_path_cases():
    model = WienerPath(n_steps=128)
    draw = 0.4 * model.sample_values(RandomStream(61).generator(), 1)[0]
    dec = certify_membership(model, SUP, draw, 0.5, 3.0)
    assert dec.ok
    steep = 50.0 * model.grid()
    assert not certify_membership(model, SUP, steep, 0.1, 1.0).ok
    one_step = WienerPath(n_steps=1)
    short = one_step.sample_values(RandomStream(61).generator(), 1)[0]
    with pytest.raises(ConfigurationError):  # a 1-step grid holds fewer than 2 knots
        certify_membership(one_step, SUP, short, 0.5, 3.0)


def test_lipschitz_probe_gate():
    report = lipschitz_probe(Scalar(), SUP, 0.5, 8, (0.5,), RandomStream(62))
    gate = report.rows_for("log-lipschitz-gate")[0]
    assert gate.passed is None and "not met" in gate.note
    assert report.rows_for("log-lipschitz")[0].passed is None


def test_lipschitz_probe_deep_scalar_ball():
    eps = 8e-4  # centered(2 eps) ~ 6.66, just past the gate
    report = lipschitz_probe(Scalar(), SUP, eps, 32, (0.25, 0.5, 1.0), RandomStream(63))
    row = report.rows_for("log-lipschitz")[0]
    assert row.passed is True
    assert row.observed == 0.0


def test_shift_inequality_halfspace_exact():
    for h in (0.8, -0.6):
        report = shift_inequality_check(Scalar(), "halfspace", 0.5, h, RandomStream(64))
        assert report.passed
        upper = report.rows_for("shift-upper")[0]
        lower = report.rows_for("shift-lower")[0]
        # translation of a half-space meets the matching side with equality
        if h > 0:
            assert upper.observed == pytest.approx(upper.threshold, rel=1e-12)
        else:
            assert lower.observed == pytest.approx(lower.threshold, rel=1e-12)


def test_shift_inequality_scalar_ball_exact():
    report = shift_inequality_check(Scalar(), "ball", 0.7, 0.9, RandomStream(65),
                                    norm_spec=SUP, n_samples=50_000)
    assert report.passed


def test_shift_inequality_wiener_ball_mc():
    model = WienerPath(n_steps=64)
    h = 0.5 * model.grid()
    report = shift_inequality_check(model, "ball", 0.6, h, RandomStream(66),
                                    norm_spec=SUP, n_samples=150_000)
    assert report.passed


def test_shift_inequality_validation():
    with pytest.raises(ConfigurationError):
        shift_inequality_check(WienerPath(n_steps=8), "halfspace", 0.5,
                               np.zeros(9), RandomStream(0))
    with pytest.raises(ConfigurationError):
        shift_inequality_check(Scalar(), "ball", 0.5, 0.5, RandomStream(0))
    with pytest.raises(ConfigurationError):
        shift_inequality_check(Scalar(), "simplex", 0.5, 0.5, RandomStream(0))
    with pytest.raises(DomainError):
        shift_inequality_check(
            WienerPath(n_steps=8), "ball",
            0.5, np.array([0.0] + [math.nan] * 8), RandomStream(0), norm_spec=SUP
        )


def test_enlarged_ball_scalar_exact():
    report = verify_enlarged_ball(Scalar(), SUP, 0.5, 0, RandomStream(67))
    assert report.passed
    assert "exact" in report.rows[0].note


def test_enlarged_ball_path_certificates():
    model = WienerPath(n_steps=64)
    report = verify_enlarged_ball(model, SUP, 0.4, 200, RandomStream(68))
    assert report.passed


# -- panel trend checks ---------------------------------------------------------------


def test_dispersion_and_mean_median_trends_on_exact_panel():
    _, panel = exact_scalar_panel((1.0, 0.5, 0.25), 400)
    assert dispersion_trend(panel, stream=RandomStream(69)).passed
    assert mean_median_trend(panel, stream=RandomStream(70)).passed


def test_trends_need_two_radii():
    _, panel = exact_scalar_panel((0.5,), 50)
    with pytest.raises(ConfigurationError):
        dispersion_trend(panel)
    with pytest.raises(ConfigurationError):
        mean_median_trend(panel)
