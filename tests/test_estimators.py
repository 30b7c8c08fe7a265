import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm as gauss

from smallball import estimators, rsbf
from smallball.errors import ConfigurationError, DomainError, LadderError, PowerWarning
from smallball.estimators import (
    ROUTE_TABLE,
    ProbEstimate,
    SBFCurve,
    _default_start,
    _scalar_ell_exact,
    ball_prob_mc,
    ball_prob_splitting,
    centered_curve,
    centered_depth,
    log_mass,
    make_ladder,
    pick_routes,
    pilot_curve,
    richardson_extrapolate,
    route_table,
    sbf_analytic,
    sbf_curve,
)
from smallball.models import BrownianBridge, FiniteSpectrum, Scalar, WienerPath
from smallball.norms import NormSpec, eval_norm_batch, parse_norm
from smallball.streams import RandomStream, keyed_map
from smallball.transfer import band_log_prob, band_log_probs, transfer_applies

SUP = NormSpec("sup")

# closed-form anchors, frozen after independent evaluation of the formulas
PHI_SCALAR_1 = 0.38171514630212616        # -log(2 Phi(1) - 1)
PHI_SCALAR_005 = 3.2219402234264516       # -log(2 Phi(0.05) - 1)
PHI_WIENER_05 = 4.693237725274188         # theta series at eps = 0.5
PHI_WIENER_03 = 13.466219415131397        # theta series at eps = 0.3
PHI_DISC_256_05 = 4.052499530615389       # 256-step walk, eps = 0.5, band sweep


# -- analytic oracles -----------------------------------------------------------


def test_scalar_analytic_matches_gaussian_cdf():
    est = sbf_analytic(Scalar(), SUP, 1.0)
    assert est.method == "analytic" and est.stderr_log == 0.0
    assert est.phi == pytest.approx(PHI_SCALAR_1, rel=1e-12)
    assert est.phi == pytest.approx(-math.log(2.0 * gauss.cdf(1.0) - 1.0), rel=1e-12)
    assert sbf_analytic(Scalar(), SUP, 0.05).phi == pytest.approx(PHI_SCALAR_005, rel=1e-12)


def test_scalar_analytic_large_radius_stays_accurate():
    # the log1p form keeps precision where 2 Phi(eps) - 1 rounds to 1
    est = sbf_analytic(Scalar(), SUP, 8.0)
    assert 0.0 < est.phi < 1e-14
    assert est.phi == pytest.approx(2.0 * gauss.sf(8.0), rel=1e-6)


def test_scalar_analytic_respects_sigma():
    assert sbf_analytic(Scalar(sigma=2.0), SUP, 2.0).phi == pytest.approx(
        PHI_SCALAR_1, rel=1e-12
    )


def test_wiener_sup_theta_series_frozen_values():
    model = WienerPath(n_steps=256)
    assert sbf_analytic(model, SUP, 0.5).phi == pytest.approx(PHI_WIENER_05, rel=1e-12)
    assert sbf_analytic(model, SUP, 0.3).phi == pytest.approx(PHI_WIENER_03, rel=1e-12)


def test_wiener_theta_series_continuous_across_regime_switch():
    # small-radius and reflection branches meet at eps = 0.7
    model = WienerPath(n_steps=16)
    lo = sbf_analytic(model, SUP, 0.7 - 1e-9).phi
    hi = sbf_analytic(model, SUP, 0.7 + 1e-9).phi
    assert lo == pytest.approx(hi, abs=1e-7)


def test_wiener_theta_series_brownian_scaling():
    # sup over [0, T] at radius eps has the law of sqrt(T) sup over [0, 1]
    long = sbf_analytic(WienerPath(n_steps=64, horizon=4.0), NormSpec("sup", interval=(0.0, 4.0)), 1.0)
    unit = sbf_analytic(WienerPath(n_steps=64), SUP, 0.5)
    assert long.phi == pytest.approx(unit.phi, rel=1e-12)


def test_bridge_series_continuous_across_regime_switch():
    model = BrownianBridge(n_steps=16)
    lo = sbf_analytic(model, SUP, 0.5 - 1e-9).phi
    hi = sbf_analytic(model, SUP, 0.5 + 1e-9).phi
    assert lo == pytest.approx(hi, abs=1e-7)


def test_analytic_returns_none_off_catalog():
    assert sbf_analytic(WienerPath(n_steps=16, d=2), SUP, 0.5) is None
    assert sbf_analytic(WienerPath(n_steps=16), NormSpec("lp", p=2.0), 0.5) is None
    assert sbf_analytic(WienerPath(n_steps=16), NormSpec("sup", interval=(0.0, 0.5)), 0.5) is None
    with pytest.raises(DomainError):
        sbf_analytic(Scalar(), SUP, 0.0)


# -- the route table ----------------------------------------------------------------

ROUTE_PAIRS = [
    (Scalar(), SUP), (Scalar(sigma=2.0), NormSpec("lp", p=2.0)),
    (WienerPath(n_steps=64), SUP), (WienerPath(n_steps=64, horizon=2.0), parse_norm("sup:b=2")),
    (WienerPath(n_steps=64), parse_norm("sup:a=0,b=0.5")), (WienerPath(n_steps=64, d=2), SUP),
    (WienerPath(n_steps=64), parse_norm("lp:p=2")), (BrownianBridge(n_steps=64), SUP),
    (BrownianBridge(n_steps=64), parse_norm("hoelder")), (FiniteSpectrum((1.0, 0.5)), SUP),
]


@pytest.mark.parametrize("model, spec", ROUTE_PAIRS)
def test_route_table_agrees_with_the_routes_themselves(model, spec):
    routes = route_table(model, spec)
    assert ("analytic" in routes.centered) == (sbf_analytic(model, spec, 0.5) is not None)
    assert ("transfer" in routes.centered) == transfer_applies(model, spec)
    assert ("transfer" in routes.shifted) == transfer_applies(model, spec)
    assert set(routes.exact) <= set(routes.centered) & set(routes.shifted)
    assert {"mc", "splitting"} <= set(routes.shifted)
    # a closed form around any center is the pair's exact law
    assert ("analytic" in routes.shifted) == (routes.exact == ("analytic",))
    for command in ("sbf", "rsbf", "verify-all", "quantize"):
        curve, panel = pick_routes(model, spec, command)
        assert curve is None or curve in routes.centered
        assert panel is None or panel in routes.shifted
        if routes.exact:
            # every ball a command prices takes the exact route
            assert {curve, panel} - {None} == set(routes.exact)
        elif command == "quantize":
            assert (curve, panel) == (None, None)
    assert (centered_depth(model, spec) is None) == (not routes.exact)


def test_route_table_rows():
    assert sorted(ROUTE_TABLE) == ["bridge-sup", "other", "scalar", "wiener-sup"]
    # the scalar law prices every ball, the panel's included
    assert pick_routes(Scalar(), SUP, "sbf") == ("analytic", None)
    assert pick_routes(Scalar(), SUP, "rsbf") == (None, "analytic")
    assert pick_routes(Scalar(), SUP, "verify-all") == ("analytic", "analytic")
    assert pick_routes(Scalar(), SUP, "quantize") == (None, "analytic")
    wiener = WienerPath(n_steps=64)
    assert pick_routes(wiener, SUP, "sbf") == ("transfer", None)
    assert pick_routes(wiener, SUP, "rsbf") == (None, "transfer")
    assert pick_routes(wiener, SUP, "verify-all") == ("transfer", "transfer")
    assert pick_routes(wiener, SUP, "quantize") == (None, "transfer")
    # the bridge's closed form is the continuum, not the panel's grid measure
    bridge = BrownianBridge(n_steps=64)
    assert pick_routes(bridge, SUP, "sbf") == ("analytic", None)
    assert pick_routes(bridge, SUP, "rsbf") == (None, "splitting")
    assert pick_routes(bridge, SUP, "verify-all") == ("splitting", "splitting")
    assert pick_routes(bridge, SUP, "quantize") == (None, None)
    lp = parse_norm("lp:p=2")
    assert pick_routes(wiener, lp, "sbf") == ("splitting", None)
    assert pick_routes(wiener, lp, "verify-all") == ("splitting", "splitting")
    assert pick_routes(wiener, lp, "quantize") == (None, None)
    # a requested route prices every ball the command prices, unswapped
    assert pick_routes(wiener, SUP, "rsbf", "mc") == (None, "mc")
    assert pick_routes(Scalar(), SUP, "verify-all", "mc") == ("mc", "mc")
    assert pick_routes(bridge, SUP, "verify-all", "mc") == ("mc", "mc")
    assert pick_routes(wiener, SUP, "sbf", "analytic") == ("analytic", None)


def test_unsupported_route_names_the_pair_and_the_routes():
    with pytest.raises(ConfigurationError,
                       match=r"no transfer route for centered balls of bridge under sup; "
                             r"supported: analytic, mc, splitting"):
        pick_routes(BrownianBridge(n_steps=64), SUP, "sbf", "transfer")
    with pytest.raises(ConfigurationError, match=r"wiener under lp:p=2; supported: none"):
        log_mass(WienerPath(n_steps=64), parse_norm("lp:p=2"), np.zeros(65), 0.5)
    with pytest.raises(ConfigurationError, match="supported: analytic, mc, splitting"):
        pick_routes(Scalar(), SUP, "rsbf", "transfer")
    # a panel asked for a closed form it has not is refused, not swapped
    with pytest.raises(ConfigurationError,
                       match=r"no analytic route for shifted balls of wiener under sup; "
                             r"supported: transfer, mc, splitting"):
        pick_routes(WienerPath(n_steps=64), SUP, "rsbf", "analytic")
    with pytest.raises(ConfigurationError,
                       match=r"no analytic route for shifted balls of bridge under sup; "
                             r"supported: mc, splitting"):
        pick_routes(BrownianBridge(n_steps=64), SUP, "verify-all", "analytic")


def test_log_mass_is_the_exact_route():
    model = WienerPath(n_steps=64)
    centers = model.sample_values(RandomStream(40).generator(), 3)
    one = [log_mass(model, SUP, c, 0.5) for c in centers]
    assert one == [band_log_prob(c - 0.5, c + 0.5, model.dt, start=0.0) for c in centers]
    # one row swept alone gives the same floats as the one-band sweep
    assert [float(log_mass(model, SUP, c[None], 0.5)[0]) for c in centers] == one
    assert np.array_equal(log_mass(model, SUP, centers, 0.5),
                          band_log_probs(centers - 0.5, centers + 0.5, model.dt))
    xs = np.array([-1.5, 0.0, 0.3])
    assert np.array_equal(log_mass(Scalar(), SUP, xs, 0.5), -_scalar_ell_exact(xs, 0.5))
    assert log_mass(Scalar(), SUP, 0.3, 0.5) == -float(_scalar_ell_exact(0.3, 0.5))
    # one scalar closed form: the centered ball is the exact law at 0
    assert centered_depth(Scalar(), SUP)(0.5) == sbf_analytic(Scalar(), SUP, 0.5).phi
    assert sbf_analytic(Scalar(), SUP, 0.5).phi == float(_scalar_ell_exact(0.0, 0.5))
    ones = np.ones(65)
    assert centered_depth(model, SUP)(0.5) == -band_log_prob(-0.5 * ones, 0.5 * ones, model.dt)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("center", [0.0, 1.3])
def test_scalar_log_mass_scales_by_sigma(sigma, center):
    model = Scalar(sigma=sigma)
    eps = 0.5
    want = math.log(gauss.cdf((center + eps) / sigma) - gauss.cdf((center - eps) / sigma))
    assert log_mass(model, SUP, center, eps) == pytest.approx(want, rel=1e-12, abs=0.0)
    if center == 0.0:
        # sbf_analytic's scalar branch is the same law at 0
        assert log_mass(model, SUP, center, eps) == sbf_analytic(model, SUP, eps).log_prob


def test_centered_curve_routes():
    model = WienerPath(n_steps=64)
    grid = (0.5, 0.4)
    transfer = centered_curve(model, SUP, grid, "transfer", RandomStream(41), 0)
    band = np.outer(grid, np.ones(65))
    assert [e.log_prob for e in transfer.estimates] == list(
        band_log_probs(-band, band, model.dt))
    analytic = centered_curve(model, SUP, grid, "analytic", RandomStream(41), 0)
    assert analytic.estimates == tuple(sbf_analytic(model, SUP, e) for e in grid)
    mc = centered_curve(model, SUP, (1.0, 0.8), "mc", RandomStream(41), 5000)
    assert mc.estimates[1] == ball_prob_mc(model, SUP, 0.8, 5000, RandomStream(41).spawn(1))
    with pytest.raises(ConfigurationError):
        centered_curve(BrownianBridge(n_steps=64), SUP, grid, "transfer", RandomStream(41), 0)


# -- estimate containers ---------------------------------------------------------


def test_prob_estimate_contract():
    with pytest.raises(ConfigurationError):
        ProbEstimate(0.1, 0.0, 0, "analytic")          # positive log prob
    with pytest.raises(ConfigurationError):
        ProbEstimate(-1.0, 0.1, 10, "analytic")        # analytic must have stderr 0
    with pytest.raises(ConfigurationError):
        ProbEstimate(-1.0, 0.0, 10, "mc")              # mc must not have stderr 0
    with pytest.raises(ConfigurationError):
        ProbEstimate(-1.0, 0.1, 10, "bayes")           # unknown method tag
    est = ProbEstimate(-2.0, 0.1, 100, "mc")
    assert est.phi == 2.0


def test_sbf_curve_contract():
    ests = (ProbEstimate(-1.0, 0.0, 0, "analytic"), ProbEstimate(-2.0, 0.0, 0, "analytic"))
    curve = SBFCurve((1.0, 0.5), ests)
    assert np.allclose(curve.phi, [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        SBFCurve((0.5, 1.0), ests)
    with pytest.raises(ConfigurationError):
        SBFCurve((1.0, 0.5, 0.25), ests)


# -- plain Monte Carlo ------------------------------------------------------------


def test_mc_matches_scalar_oracle():
    est = ball_prob_mc(Scalar(), SUP, 1.0, 200_000, RandomStream(21))
    assert abs(est.phi - PHI_SCALAR_1) < 3.0 * est.stderr_log


def test_mc_matches_discrete_band_sweep():
    # the walk's own ball mass, measured two independent ways
    model = WienerPath(n_steps=64)
    est = ball_prob_mc(model, SUP, 0.8, 100_000, RandomStream(22))
    exact = -band_log_prob(np.full(65, -0.8), np.full(65, 0.8), model.dt, start=0.0)
    assert abs(est.phi - exact) < 3.0 * est.stderr_log


def test_mc_low_hit_count_warns():
    with pytest.warns(PowerWarning):
        est = ball_prob_mc(Scalar(), SUP, 6.5e-4, 20_000, RandomStream(23))
    assert math.isfinite(est.phi)


def test_mc_zero_hits_yields_rule_of_three_bound():
    est = ball_prob_mc(Scalar(), SUP, 1e-9, 1_000, RandomStream(24))
    assert est.bound
    assert est.log_prob == pytest.approx(math.log(3.0 / 1_000))
    assert est.stderr_log == math.inf


def test_mc_all_hits_reports_one_miss_error():
    # every draw lands in the ball: the plug-in error would be 0, which only
    # analytic estimates may carry
    est = ball_prob_mc(Scalar(), SUP, 10.0, 1_000, RandomStream(25))
    assert est.log_prob == 0.0 and not est.bound
    assert est.stderr_log == pytest.approx(1.0 / math.sqrt(1_000 * 999))


def test_mc_validation():
    with pytest.raises(DomainError):
        ball_prob_mc(Scalar(), SUP, -1.0, 100, RandomStream(0))
    with pytest.raises(ConfigurationError):
        ball_prob_mc(Scalar(), SUP, 1.0, 0, RandomStream(0))


@pytest.mark.parametrize("model", [Scalar(), WienerPath(n_steps=32)], ids=["scalar", "path"])
def test_mc_around_a_center_matches_the_exact_route(model):
    # a shifted ball priced exactly: Phi(h+eps) - Phi(h-eps) for the scalar,
    # the band sweep around a straight-line center for the walk
    h = 1.0 if isinstance(model, Scalar) else 0.6 * model.grid()
    eps = 0.5 if isinstance(model, Scalar) else 0.7
    est = ball_prob_mc(model, SUP, eps, 100_000, RandomStream(26), center=h)
    assert abs(est.log_prob - log_mass(model, SUP, h, eps)) < 3.0 * est.stderr_log


@pytest.mark.parametrize("model", [Scalar(), FiniteSpectrum((1.0, 0.5)), WienerPath(n_steps=64),
                                   WienerPath(n_steps=16, d=2), BrownianBridge(n_steps=32)])
def test_mc_blocks_do_not_change_the_estimate(model, monkeypatch):
    # the stream is read in row order, so a block of one row and the
    # default block draw the same values
    spec = parse_norm("sup" if model.dim == 1 else "lp:p=2")
    center = 0.3 * model.sample_values(RandomStream(7).generator(), 1)[0]
    default = ball_prob_mc(model, spec, 0.6, 3_000, RandomStream(27), center=center)
    monkeypatch.setattr(estimators, "MC_BLOCK_BYTES", 1)
    assert ball_prob_mc(model, spec, 0.6, 3_000, RandomStream(27), center=center) == default


@pytest.mark.parametrize("model, norm", [(WienerPath(n_steps=64), "lp:p=2"),
                                         (WienerPath(n_steps=16, d=2), "sup"),
                                         (BrownianBridge(n_steps=32), "lp:p=4")],
                         ids=["wiener-l2", "wiener2d-sup", "bridge-l4"])
def test_pilot_blocks_do_not_change_the_curve(model, norm, monkeypatch):
    # the pilot draws through the same blocked loop as plain Monte Carlo
    spec = parse_norm(norm)
    radii = (0.05, 0.2, 0.5, 1.0)
    default = pilot_curve(model, spec, RandomStream(37))
    monkeypatch.setattr(estimators, "MC_BLOCK_BYTES", 1)
    one_row = pilot_curve(model, spec, RandomStream(37))
    assert [one_row(e) for e in radii] == [default(e) for e in radii]


# -- ladders and splitting ---------------------------------------------------------


def exact_scalar_pilot(eps):
    return -sbf_analytic(Scalar(), SUP, eps).log_prob


def test_make_ladder_spacing_and_anchors():
    levels = make_ladder(exact_scalar_pilot, 2.0, (0.5, 0.05), delta_phi=1.1)
    assert levels[0] == 2.0
    assert 0.5 in levels and levels[-1] == 0.05
    assert all(b < a for a, b in zip(levels, levels[1:]))
    costs = [exact_scalar_pilot(e) for e in levels]
    assert all(c2 - c1 <= 1.1 + 0.05 for c1, c2 in zip(costs, costs[1:]))


def test_make_ladder_validation():
    with pytest.raises(ConfigurationError):
        make_ladder(exact_scalar_pilot, 0.4, (0.5,))
    with pytest.raises(ConfigurationError):
        make_ladder(exact_scalar_pilot, 1.0, ())
    with pytest.raises(ConfigurationError):
        make_ladder(lambda e: e, 1.0, (0.5,))  # pilot decreasing in cost


def test_splitting_matches_scalar_oracle():
    levels = make_ladder(exact_scalar_pilot, 1.5, (0.05,))
    est, diag = ball_prob_splitting(
        Scalar(), SUP, 0.05, levels, 512, RandomStream(30), n_replicas=3
    )
    assert abs(est.phi - PHI_SCALAR_005) < 3.0 * est.stderr_log
    assert est.method == "splitting"
    assert diag.levels == tuple(levels)
    assert all(0.0 < f <= 1.0 for f in diag.cond_fractions)


def test_splitting_matches_discrete_band_sweep():
    # splitting prices the walk's measure; the deterministic sweep is its oracle
    model = WienerPath(n_steps=256)
    pilot = pilot_curve(model, SUP, RandomStream(31).spawn(10_001))
    levels = make_ladder(pilot, 1.8, (0.5,))
    est, _ = ball_prob_splitting(model, SUP, 0.5, levels, 512, RandomStream(31), n_replicas=3)
    assert abs(est.phi - PHI_DISC_256_05) < 3.0 * est.stderr_log


def test_splitting_validation():
    with pytest.raises(ConfigurationError):
        ball_prob_splitting(Scalar(), SUP, 0.5, [1.0, 0.4], 64, RandomStream(0))
    with pytest.raises(ConfigurationError):
        ball_prob_splitting(Scalar(), SUP, 0.5, [0.4, 0.5], 64, RandomStream(0))
    with pytest.raises(ConfigurationError):
        ball_prob_splitting(Scalar(), SUP, 0.5, [1.0, 0.5], 64, RandomStream(0), n_replicas=0)


def test_splitting_checks_its_buffers_against_the_memory_budget(monkeypatch):
    # 10^5 paths of wiener:n=4096 would take 6.1 GiB of buffers per replica;
    # the refusal comes before the first draw, whatever the pool width
    model = WienerPath(n_steps=4096)
    with monkeypatch.context() as m:
        m.setattr(WienerPath, "sample_values", lambda *a, **k: pytest.fail("drew"))
        for workers in ("1", "2", "8"):
            m.setenv("SMALLBALL_WORKERS", workers)
            with pytest.raises(ConfigurationError, match="a splitting replica needs 6253 MiB"):
                ball_prob_splitting(model, SUP, 0.5, [1.0, 0.5], 100_000, RandomStream(0))
    # a budget that holds one replica's two 64 x 65 float64 ensembles and
    # BLOCK_SCRATCH blocks of scratch (one block is the whole ensemble here)
    # runs the replicas one at a time, to the same values as the full pool
    monkeypatch.setenv("SMALLBALL_WORKERS", "3")
    small = WienerPath(n_steps=64)
    want = ball_prob_splitting(small, SUP, 0.5, [1.0, 0.5], 64, RandomStream(5), n_replicas=3)
    widths = []

    def spy(fn, tasks, workers):
        widths.append(workers)
        return keyed_map(fn, tasks, workers)

    monkeypatch.setattr(estimators, "keyed_map", spy)
    monkeypatch.setattr(estimators, "MEMORY_BUDGET",
                        8 * 65 * (2 * 64 + estimators.BLOCK_SCRATCH * 64))
    got = ball_prob_splitting(small, SUP, 0.5, [1.0, 0.5], 64, RandomStream(5), n_replicas=3)
    assert widths == [1]
    assert got == want


BLOCK_CASES = {
    "wiener-lp2": (WienerPath(n_steps=16), parse_norm("lp:p=2")),
    "wiener-d2-sup": (WienerPath(n_steps=8, d=2), SUP),
    "bridge-hoelder": (BrownianBridge(n_steps=16), parse_norm("hoelder:beta=0.25")),
    "finite-lp2": (FiniteSpectrum((1.0, 0.5, 0.25)), parse_norm("lp:p=2")),
    "scalar-sup": (Scalar(), SUP),
}


def _paths_bytes(model, paths: int) -> int:
    return 8 * math.prod(model.value_shape) * paths


def _quantile_ladder(model, spec, centers, seed: int) -> list[float]:
    # radii where 90% down to 1% of draws fall inside, pooled over the centers
    draws = model.sample_values(RandomStream(seed).generator(), 2000)
    d = np.concatenate([eval_norm_batch(draws - c, model.dt, spec)
                        for c in np.reshape(centers + np.zeros(model.value_shape),
                                            (-1,) + model.value_shape)])
    return [float(q) for q in np.quantile(d, [0.9, 0.5, 0.2, 0.05, 0.01])]


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@pytest.mark.parametrize("n_centers", [0, 3])
def test_splitting_pass_does_not_depend_on_the_block_size(case, n_centers, monkeypatch):
    # blocks of one path and of seven cut each center's 10 paths into slices,
    # and seven-path blocks take two whole centers of 3 paths at a time; the
    # deep levels kill some centers, whose rows are then never gathered
    model, spec = BLOCK_CASES[case]
    centers = 0.0 if n_centers == 0 else \
        model.sample_values(RandomStream(40).generator(), n_centers)
    levels = _quantile_ladder(model, spec, centers, 41)
    record = {levels[2]: 0, levels[-1]: 1}

    def run(n_per_level):
        return estimators._splitting_pass(
            model, spec, centers, levels, n_per_level, RandomStream(42).generator(), 4,
            (max(n_centers, 1), n_per_level), record, strict=False)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        for n_per_level in (10, 3):
            want = run(n_per_level)
            for paths in (1, 7):
                monkeypatch.setattr(estimators, "SPLIT_BLOCK_BYTES", _paths_bytes(model, paths))
                got = run(n_per_level)
                monkeypatch.undo()
                for g, w in zip(got[:3], want[:3]):
                    np.testing.assert_array_equal(g, w)
                assert got[3] == want[3]


@pytest.mark.parametrize("case", ["wiener-lp2", "finite-lp2"])
def test_splitting_estimates_do_not_depend_on_the_block_size(case, monkeypatch):
    model, spec = BLOCK_CASES[case]
    center = model.sample_values(RandomStream(43).generator(), 1)[0]
    monkeypatch.setattr(rsbf, "PANEL_PATHS", 12)

    def run():
        ests = [ball_prob_splitting(model, spec, levels[-1], levels, 10, RandomStream(44), c)
                for c, levels in ((None, centered_levels), (center, shifted_levels))]
        return ests, rsbf.sample_rsbf(model, spec, (0.8, 0.6), 3, RandomStream(45))

    centered_levels = _quantile_ladder(model, spec, 0.0, 46)[:3]
    shifted_levels = _quantile_ladder(model, spec, center, 46)[:3]
    want = run()
    for paths in (1, 7):
        monkeypatch.setattr(estimators, "SPLIT_BLOCK_BYTES", _paths_bytes(model, paths))
        assert run() == want


@pytest.mark.parametrize("n_centers", [0, 2])
def test_splitting_replica_grows_by_two_ensembles(n_centers):
    # doubling the paths adds the paths and the resampling target and
    # nothing else: fresh draws, proposals, offsets and norm temporaries stay
    # within BLOCK_SCRATCH blocks. 124 and 248 paths cut into the same
    # 31-path blocks of wiener:n=1024.
    model, spec = WienerPath(n_steps=1024), parse_norm("lp:p=2")
    centers = 0.0 if n_centers == 0 else \
        model.sample_values(RandomStream(47).generator(), n_centers)
    levels = _quantile_ladder(model, spec, centers, 48)[:3]
    batch = max(n_centers, 1)

    def peak(n_per_level):
        rng = RandomStream(49).generator()
        tracemalloc.start()
        try:
            estimators._splitting_pass(model, spec, centers, levels, n_per_level, rng, 2,
                                       (batch, n_per_level), {levels[-1]: 0}, strict=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(124), peak(248)
    ensemble = _paths_bytes(model, batch * 124)
    assert 2 * ensemble <= large - small < 2.05 * ensemble
    assert small - 2 * ensemble < estimators.BLOCK_SCRATCH * _paths_bytes(model, 31)


@pytest.mark.parametrize("workers, n_replicas, threads", [
    ("1", 1, 1), ("1", 3, 1), ("1", 4, 1),
    ("2", 3, 3), ("2", 4, 2), ("2", 6, 2),
    ("3", 5, 5), ("3", 6, 3),
])
def test_splitting_gives_fewer_than_twice_the_width_a_thread_each(workers, n_replicas, threads,
                                                                   monkeypatch):
    # 3 replicas on a 2-wide pool run at once rather than leaving the third
    # alone beside an idle core; from twice the width on, the pool width holds
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    widths = []

    def spy(fn, tasks, workers):
        widths.append(workers)
        return keyed_map(fn, tasks, workers)

    monkeypatch.setattr(estimators, "keyed_map", spy)
    ball_prob_splitting(WienerPath(n_steps=64), SUP, 0.5, [1.0, 0.5], 64, RandomStream(5),
                        n_replicas=n_replicas)
    assert widths == [threads]


def test_splitting_dies_loudly_on_hopeless_levels():
    with pytest.raises(LadderError):
        ball_prob_splitting(Scalar(), SUP, 1e-9, [1.0, 1e-9], 64, RandomStream(32))


# Splitting values recorded with one fresh array per move and the replicas
# run one after another; the reused buffers and the replica pool must give
# them back bit for bit under every pool width.
SBF_SPLIT_PINS = {
    "lp:p=2": ((-2.124195564517804, -4.118648464089145),
               (0.09605212798060345, 0.1289992877585466),
               (0.5375, 0.41640625, 0.3359375)),
    "sup": ((-8.504982883233838, -17.789269182210976),
            (0.17914527801908667, 0.6811675268731289),
            (0.003125, 0.00078125, 0.0)),
}


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize("norm", sorted(SBF_SPLIT_PINS))
def test_sbf_curve_splitting_is_pinned(norm, workers, monkeypatch):
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    curve, diag = sbf_curve(WienerPath(n_steps=64), parse_norm(norm), (0.3, 0.2),
                            RandomStream(41), n_per_level=128)
    log_probs, stderrs, last_accs = SBF_SPLIT_PINS[norm]
    assert tuple(e.log_prob for e in curve.estimates) == log_probs
    assert tuple(e.stderr_log for e in curve.estimates) == stderrs
    assert diag.acceptance_rates[-3:] == last_accs  # the last replica's diagnostics


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_ball_prob_splitting_is_pinned(workers, monkeypatch):
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    model = WienerPath(n_steps=64)
    center = 0.5 * model.sample_values(RandomStream(5).generator(), 1)[0]
    est, diag = ball_prob_splitting(model, SUP, 0.5, [1.2, 0.9, 0.7, 0.5], 128,
                                    RandomStream(43), center=center)
    assert (est.log_prob, est.stderr_log) == (-4.074261601577517, 0.20194738027669598)
    assert diag.acceptance_rates == (1.0, 0.89453125, 0.71015625, 0.546875)
    # a scalar model with a scalar center takes the fallback draw path
    est, diag = ball_prob_splitting(Scalar(), SUP, 0.05, [1.0, 0.3, 0.1, 0.05], 128,
                                    RandomStream(44), center=0.4)
    assert (est.log_prob, est.stderr_log) == (-3.2488949370438895, 0.1437515472830776)
    assert diag.acceptance_rates == (1.0, 0.9171875, 0.6234375, 0.246875)


@pytest.mark.parametrize("workers", ["1", "2", "3", "4"])
def test_splitting_raises_the_first_replicas_ladder_error(workers, monkeypatch):
    # replicas 0, 2 and 3 die at levels 7, 3 and 1: the later replicas fail
    # sooner, but the error reported is replica 0's under every pool width
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    levels = [1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 3e-4]
    with pytest.raises(LadderError) as info:
        ball_prob_splitting(Scalar(), SUP, levels[-1], levels, 8, RandomStream(0), n_replicas=4)
    assert info.value.level_index == 7


def test_sbf_curve_records_all_anchors():
    curve, diag = sbf_curve(Scalar(), SUP, (1.0, 0.5), RandomStream(33), n_per_level=512)
    for eps, expected in ((1.0, PHI_SCALAR_1), (0.5, exact_scalar_pilot(0.5))):
        j = curve.eps_grid.index(eps)
        est = curve.estimates[j]
        assert abs(est.phi - expected) < 3.0 * est.stderr_log
    assert set(curve.eps_grid) <= set(diag.levels)
    assert np.all(np.diff(curve.phi) > 0)


def test_pilot_curve_uses_exact_form_when_available():
    pilot = pilot_curve(Scalar(), SUP, RandomStream(34))
    assert pilot(0.5) == pytest.approx(exact_scalar_pilot(0.5), rel=1e-12)


def test_pilot_curve_mc_fallback_is_monotone():
    pilot = pilot_curve(WienerPath(n_steps=64), NormSpec("lp", p=2.0), RandomStream(35))
    assert pilot(0.1) > pilot(0.2) > pilot(0.4) > 0.0


def test_default_start_is_shallow():
    pilot = pilot_curve(Scalar(), SUP, RandomStream(36))
    start = _default_start(pilot, 0.5)
    assert start > 0.5
    assert pilot(start) <= 0.7


# -- grid-bias extrapolation --------------------------------------------------------


def test_richardson_recovers_synthetic_limit_exactly():
    ns = np.array([256.0, 1024.0, 4096.0])
    values = 7.0 - 3.0 * ns ** -0.5
    fit = richardson_extrapolate(values, np.ones(3), ns)
    assert fit.value == pytest.approx(7.0, abs=1e-9)
    assert fit.coef == pytest.approx(3.0, abs=1e-9)
    assert fit.residual < 1e-9


def test_richardson_needs_two_resolutions():
    with pytest.raises(ConfigurationError):
        richardson_extrapolate(np.array([1.0]), np.array([0.1]), np.array([64.0]))
