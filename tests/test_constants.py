import math

import numpy as np
import pytest
from scipy.special import jn_zeros

from smallball.constants import (
    FlowShift,
    SubadditiveSeries,
    _coarse_unimodal_scan,
    _golden_max,
    constant_from_soft_rate,
    dirichlet_eigenvalue,
    estimate_constant,
    exit_time_eigenvalue,
    lambda_hard,
    lambda_soft,
    soft_cost_profile,
    soft_functional,
    subadditive_constant,
    tilde_rsbf,
    unit_tube_cost,
)
from smallball.errors import ConfigurationError, DiagnosticError, DomainError
from smallball.estimators import ball_prob_mc
from smallball.models import Scalar, WienerPath
from smallball.norms import NormSpec
from smallball.streams import RandomStream
from smallball.transfer import band_log_prob

SUP = NormSpec("sup")
L4 = NormSpec("lp", p=4.0)

DIRICHLET_1D = 1.2337005501361697  # pi^2 / 8
DIRICHLET_2D = 2.8915929814733916  # j_{0,1}^2 / 2
DIRICHLET_3D = 4.934802200544679  # pi^2 / 2


# -- increment shift ---------------------------------------------------------


def test_flow_shift_exact():
    values = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
    out = FlowShift(1.0).apply(values, dt=0.5)
    assert np.array_equal(out, [0.0, 3.0, 7.0])
    assert np.array_equal(FlowShift(0.0).apply(values, dt=0.5), values)


def test_flow_shift_validation():
    values = np.arange(5.0)
    with pytest.raises(ConfigurationError):
        FlowShift(-1.0)
    with pytest.raises(ConfigurationError):
        FlowShift(0.3).apply(values, dt=0.5)
    with pytest.raises(ConfigurationError):
        FlowShift(3.0).apply(values, dt=0.5)  # k=6 past the last node


# -- free-start ball costs -----------------------------------------------------


def test_tilde_transfer_matches_unit_tube_scaling():
    # Brownian scaling sends (w, dt, eps) to (w/eps, dt/eps^2, 1); with
    # eps = 0.5 the rescaling is exact in floating point, so the two routes
    # must agree to roundoff
    model = WienerPath(n_steps=128)
    eps = 0.5
    w = 0.6 * model.sample_values(RandomStream(90).generator(), 1)[0]
    est = tilde_rsbf(model, SUP, w, eps, RandomStream(91), estimator="transfer")
    scaled = unit_tube_cost(w / eps, model.dt / eps**2)
    assert est.estimate.phi == pytest.approx(scaled, abs=1e-10)


def test_tilde_never_beats_free_start_and_fixed_never_beats_tilde():
    model = WienerPath(n_steps=128)
    eps = 0.4
    w = 0.5 * model.sample_values(RandomStream(92).generator(), 1)[0]
    est = tilde_rsbf(model, SUP, w, eps, RandomStream(93), estimator="transfer")
    fixed = -band_log_prob(w - eps, w + eps, model.dt, start=0.0)
    assert est.estimate.phi <= fixed + 1e-12


def test_tilde_centered_band_optimum_at_origin():
    model = WienerPath(n_steps=64)
    w = np.zeros(65)
    est = tilde_rsbf(model, SUP, w, 0.5, RandomStream(94), estimator="transfer")
    fixed = -band_log_prob(w - 0.5, w + 0.5, model.dt, start=0.0)
    assert abs(est.x_star) < 0.05
    assert est.estimate.phi == pytest.approx(fixed, abs=1e-3)
    assert est.estimate.phi <= fixed + 1e-12


def test_tilde_translation_invariant_norm_short_circuits():
    # Hoelder seminorms ignore the start, so tilde must be the fixed-start
    # estimate bit for bit (same stream, same floats)
    model = WienerPath(n_steps=64)
    spec = NormSpec("hoelder", beta=0.25)
    w = 0.3 * model.sample_values(RandomStream(95).generator(), 1)[0]
    est = tilde_rsbf(model, spec, w, 2.5, RandomStream(96), estimator="mc", n_inner=4000)
    direct = ball_prob_mc(model, spec, 2.5, 4000, RandomStream(96), center=w)
    assert est.x_star == 0.0
    assert est.estimate.log_prob == direct.log_prob
    assert est.estimate.stderr_log == direct.stderr_log


def test_tilde_mc_scalar_finds_the_obvious_optimum():
    # ball around w recentred by x: best x puts the interval at the origin
    est = tilde_rsbf(Scalar(), SUP, np.asarray(1.2), 0.6, RandomStream(97),
                     estimator="mc", n_inner=8192)
    exact = -math.log(2.0 * 0.7257468822499265 - 1.0)  # 2 Phi(0.6) - 1
    assert abs(est.x_star - 1.2) < 0.1
    assert abs(est.estimate.phi - exact) < 3.0 * est.estimate.stderr_log


def test_tilde_validation():
    with pytest.raises(DomainError):
        tilde_rsbf(Scalar(), SUP, np.asarray(0.0), 0.0, RandomStream(0))
    with pytest.raises(ConfigurationError):
        tilde_rsbf(Scalar(), SUP, np.asarray(0.0), 0.5, RandomStream(0), estimator="transfer")
    with pytest.raises(ConfigurationError):
        tilde_rsbf(Scalar(), SUP, np.asarray(0.0), 0.5, RandomStream(0), estimator="best")
    with pytest.raises(ConfigurationError):
        tilde_rsbf(WienerPath(n_steps=8, d=2), SUP, np.zeros((9, 2)), 0.5,
                   RandomStream(0), estimator="mc")


# -- scan and search helpers ----------------------------------------------------


def test_unimodal_scan_accepts_and_rejects():
    xs, vals, k = _coarse_unimodal_scan(lambda x: -((x - 0.3) ** 2), -2.0, 2.0, 9, 1e-9)
    assert xs[k] == pytest.approx(0.5)  # nearest scan node to the peak
    with pytest.raises(DiagnosticError):
        _coarse_unimodal_scan(lambda x: -((x**2 - 1.0) ** 2), -2.0, 2.0, 9, 1e-9)


def test_golden_max_quadratic():
    x, v = _golden_max(lambda x: -((x - 1.234) ** 2), 0.0, 2.0)
    assert x == pytest.approx(1.234, abs=1e-6)
    assert v == pytest.approx(0.0, abs=1e-12)


# -- soft tube functional ---------------------------------------------------------


def test_soft_cost_profile_binomial_matches_direct():
    rng = np.random.default_rng(7)
    resid = rng.standard_normal((20, 33))
    dt = 0.03
    costs = soft_cost_profile(resid, 4.0, dt)
    for x in (-0.7, 0.2, 1.3):
        direct = np.trapezoid(np.abs(resid + x) ** 4, dx=dt, axis=1)
        assert np.allclose(costs(x), direct, rtol=1e-10)
    # non-even exponents reintegrate directly
    odd = soft_cost_profile(resid, 3.0, dt)
    want = np.trapezoid(np.abs(resid + 0.4) ** 3, dx=dt, axis=1)
    assert np.allclose(odd(0.4), want, rtol=1e-12)


def test_soft_cost_profile_validation():
    with pytest.raises(ConfigurationError):
        soft_cost_profile(np.zeros(5), 4.0, 0.1)
    with pytest.raises(DomainError):
        soft_cost_profile(np.zeros((2, 5)), 0.0, 0.1)


def test_soft_functional_constant_residual_oracle():
    # every path identically c: the optimum start is x = -c with zero cost
    c = 0.8
    resid = np.full((50, 21), c)
    val, se, x_star = soft_functional(resid, 2.0, dt=0.05)
    assert abs(val) < 1e-6
    assert x_star == pytest.approx(-c, abs=1e-4)
    assert se == 0.0


def test_soft_functional_centered_quadratic_oracle():
    # log E exp(-int_0^1 W^2) = -log(cosh(sqrt(2)))/2, and the start
    # optimum sits at the origin by symmetry
    model = WienerPath(n_steps=256)
    inner = model.sample_values(RandomStream(98).generator(), 20_000)
    val, se, x_star = soft_functional(inner, 2.0, model.dt)
    oracle = -0.5 * math.log(math.cosh(math.sqrt(2.0)))
    assert abs(val - oracle) < 3.0 * se + 0.01
    assert abs(x_star) < 0.1


# -- horizon series ----------------------------------------------------------------


def test_lambda_hard_validation():
    model = WienerPath(n_steps=32)
    with pytest.raises(ConfigurationError):
        lambda_hard(model, (0.5, 2.0), 4, RandomStream(0))
    with pytest.raises(ConfigurationError):
        lambda_hard(model, (2.0, 20.0), 4, RandomStream(0))
    with pytest.raises(ConfigurationError):
        lambda_hard(model, (4.0, 2.0), 4, RandomStream(0))
    with pytest.raises(ConfigurationError):
        lambda_hard(Scalar(), (1.0, 2.0), 4, RandomStream(0))
    with pytest.raises(ConfigurationError):
        lambda_hard(WienerPath(n_steps=32, d=2), (1.0, 2.0), 4, RandomStream(0))


@pytest.mark.parametrize("workers", ["1", "3"])
def test_lambda_hard_is_pinned(workers, monkeypatch):
    # recorded one horizon after another
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    series = lambda_hard(WienerPath(n_steps=32), (1.0, 2.0, 4.0), 6, RandomStream(99))
    assert series.values == (2.169641401774765, 4.060926912071683, 7.725651310560277)
    assert series.stderrs == (0.34181105832494274, 0.44979911066638567, 0.7079172971171201)
    assert series.slope == 1.8323621992442998
    assert [len(series.per_center[a]) for a in series.a_grid] == [6, 6, 6]


def test_lambda_hard_small_run_is_superadditive_per_path():
    model = WienerPath(n_steps=32)
    series = lambda_hard(model, (1.0, 2.0, 4.0), 6, RandomStream(99))
    assert series.kind == "hard"
    assert series.n_centers == 6
    assert series.ratio_trend_violations() == 0
    assert 1.0 < series.slope < 5.0

    # per-path: cost over [0,4] >= cost over [0,2] + cost of the shifted tail,
    # rebuilt from the documented draw layout
    dt = model.dt
    long_model = WienerPath(n_steps=round(4.0 / dt), horizon=4.0)
    paths = long_model.sample_values(RandomStream(99).spawn(0).generator(), 6)
    for i in range(6):
        whole = series.per_center[4.0][i]
        head = series.per_center[2.0][i]
        tail = unit_tube_cost(FlowShift(2.0).apply(paths[i], dt), dt)
        assert head == pytest.approx(unit_tube_cost(paths[i, : round(2.0 / dt) + 1], dt))
        assert whole >= head + tail - 1e-3


def test_lambda_soft_gate_and_small_run():
    model = WienerPath(n_steps=64)
    with pytest.raises(ConfigurationError):
        lambda_soft(model, NormSpec("lp", p=2.0), (1.0, 2.0), 4, RandomStream(0))
    with pytest.raises(ConfigurationError):
        lambda_soft(model, SUP, (1.0, 2.0), 4, RandomStream(0))
    with pytest.raises(ConfigurationError):
        lambda_soft(Scalar(), L4, (1.0, 2.0), 4, RandomStream(0))

    series = lambda_soft(model, L4, (1.0, 2.0), 4, RandomStream(100), n_inner=800)
    assert series.kind == "soft"
    assert all(v < 0.0 for v in series.values)
    assert series.values[1] < series.values[0]
    assert series.rate_constant() == -series.slope
    assert series.rate_constant() > 0.0


def test_subadditive_series_contract():
    with pytest.raises(ConfigurationError):
        SubadditiveSeries("weird", (1.0,), (1.0,), (0.1,), 1.0, 0.1, 0.0, 0.0, 4)
    with pytest.raises(ConfigurationError):
        SubadditiveSeries("hard", (2.0, 1.0), (1.0, 2.0), (0.1, 0.1), 1.0, 0.1, 0.0, 0.0, 4)
    soft = SubadditiveSeries("soft", (1.0, 2.0), (-1.0, -2.5), (0.01, 0.01),
                             -1.5, 0.1, 0.5, 0.0, 5)
    assert soft.rate_constant() == 1.5
    assert soft.ratio_trend_violations() == 0
    hard_bad = SubadditiveSeries("hard", (1.0, 2.0), (3.0, 4.0), (0.01, 0.01),
                                 1.0, 0.1, 0.0, 0.0, 5)
    assert hard_bad.ratio_trend_violations() == 1  # ratio fell 3.0 -> 2.0


def test_constant_from_soft_rate():
    assert constant_from_soft_rate(math.sqrt(2.0) / 2.0, 2.0) == pytest.approx(0.125, rel=1e-12)
    assert constant_from_soft_rate(3.0, 2.0) == pytest.approx(9.0 / 4.0, rel=1e-12)
    with pytest.raises(ConfigurationError):
        constant_from_soft_rate(1.0, 1.0)
    with pytest.raises(DomainError):
        constant_from_soft_rate(0.0, 2.0)


# -- centered-ball constants --------------------------------------------------------


def test_dirichlet_eigenvalues_frozen():
    assert dirichlet_eigenvalue(1) == pytest.approx(DIRICHLET_1D, rel=1e-15)
    assert dirichlet_eigenvalue(2) == pytest.approx(DIRICHLET_2D, rel=1e-12)
    assert dirichlet_eigenvalue(3) == pytest.approx(DIRICHLET_3D, rel=1e-15)
    assert dirichlet_eigenvalue(1) == pytest.approx(math.pi**2 / 8.0)
    assert dirichlet_eigenvalue(2) == pytest.approx(float(jn_zeros(0, 1)[0]) ** 2 / 2.0)
    with pytest.raises(DomainError):
        dirichlet_eigenvalue(4)


def test_exit_time_cross_check_2d():
    lam = exit_time_eigenvalue(2, RandomStream(101), n_paths=150_000)
    assert abs(lam - DIRICHLET_2D) / DIRICHLET_2D < 0.03


def test_exit_time_validation():
    with pytest.raises(DomainError):
        exit_time_eigenvalue(4, RandomStream(0), n_paths=100)
    with pytest.raises(DomainError):
        # 10 steps cannot reach the default survival window
        exit_time_eigenvalue(1, RandomStream(0), n_paths=2000, horizon=0.02)


# -- headline estimates ---------------------------------------------------------------


def test_estimate_constant_validation():
    with pytest.raises(ConfigurationError):
        estimate_constant(WienerPath(n_steps=64), L4, RandomStream(0))


def test_estimate_constant_eps_fit_small():
    model = WienerPath(n_steps=96)
    est = estimate_constant(model, SUP, RandomStream(102), (0.55, 0.45), 6)
    assert est.gamma == 2.0
    assert 0.5 < est.value < 15.0
    assert est.details["eps_grid"] == (0.55, 0.45)
    assert math.isfinite(est.details["intercept"])


@pytest.mark.parametrize("workers", ["1", "3"])
def test_estimate_constant_eps_fit_is_pinned(workers, monkeypatch):
    # recorded one radius after another, on the default four-radius grid
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    est = estimate_constant(WienerPath(n_steps=64), SUP, RandomStream(105), n_centers=6)
    assert (est.value, est.stderr) == (1.6947565541806129, 0.10973236097696788)
    assert est.details["means"] == (8.94337229286473, 13.446865952182792,
                                    19.96973272385573, 29.307416855345938)


def test_subadditive_constant_hard_small():
    model = WienerPath(n_steps=32)
    value, _, series = subadditive_constant(model, SUP, (1.0, 2.0, 4.0), 6, RandomStream(103))
    assert series.kind == "hard" and value == series.rate_constant()
    assert 1.0 < value < 5.0
    assert series.ratios()[-1] > 0.0


def test_subadditive_constant_soft_small():
    model = WienerPath(n_steps=64)
    value, _, series = subadditive_constant(model, L4, (1.0, 2.0), 3, RandomStream(104),
                                            n_inner=500)
    assert L4.soft_q == 3.0
    assert series.rate_constant() > 0.0
    assert value == pytest.approx(constant_from_soft_rate(series.rate_constant(), 3.0),
                                  rel=1e-12)
    with pytest.raises(ConfigurationError):
        subadditive_constant(model, NormSpec("hoelder", beta=0.25), (1.0,), 2, RandomStream(0))
