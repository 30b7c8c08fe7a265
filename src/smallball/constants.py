"""Long-horizon tube costs and the limiting small-ball constants.

The decay order of the centered curve pins the rate, not the constant; the
constant comes out of long-horizon tube functionals through scaling. Two
routes are implemented:

* hard route: the unit-radius tube cost with a free starting point,
  lbar_a(w) = -sup_x log P^x(|W - w| <= 1 on [0, a]); its expectation
  series Lambda(a) is superadditive and Lambda(a)/a climbs to the constant.
* soft route: Lambda_a(w) = sup_x log E^x exp(-int_0^a |W - w|^p), which is
  subadditive along increments of w; minus its linear rate K converts to
  the constant through the dual exponent q.

Both are exercised at modest horizons, so slope fits are reported next to
the raw ratio sequence rather than as bare point limits. The Dirichlet
eigenvalue of the unit ball (the centered-ball constant) is kept analytic
with a simulation cross-check.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DiagnosticError, DomainError, PowerWarning
from .estimators import ProbEstimate, ball_prob_mc, require_route
from .models import GaussianModel, WienerPath
from .norms import NormSpec, eval_norm_batch
from .rsbf import K_SIGMA
from .streams import RandomStream, keyed_map
from .transfer import (
    band_log_prob,
    band_log_profile,
    tube_log_prob_extrapolated,
    tube_log_probs,
)

# discrete monitoring pads the exit boundary by ~0.5826 sqrt(dt) per side
BOUNDARY_SHIFT = 0.5825971579390107
J0_FIRST_ZERO = 2.4048255576957724  # first positive zero of the Bessel function J0
GOLDEN_ITERS = 40  # golden-section steps of a start-point search
ESS_FLOOR = 30  # effective paths below which the soft functional warns
EXIT_DT = 2e-3  # step of the exit-time walk
EXIT_CHUNK = 50_000  # exit-time walks advanced at once


@dataclass(frozen=True)
class FlowShift:
    """Increment shift by t: (theta_t w)(s) = w(t + s) - w(t)."""

    t: float

    def __post_init__(self):
        if self.t < 0:
            raise ConfigurationError(f"shift time must be nonnegative, got {self.t}")

    def apply(self, values: np.ndarray, dt: float) -> np.ndarray:
        k = round(self.t / dt)
        if abs(k * dt - self.t) > 1e-9 * max(1.0, self.t):
            raise ConfigurationError(
                f"shift time {self.t:g} does not sit on the dt={dt:g} grid"
            )
        v = np.asarray(values, dtype=float)
        if k >= v.shape[0]:
            raise ConfigurationError("shift time reaches past the end of the path")
        return v[k:] - v[k]


@dataclass(frozen=True)
class SubadditiveSeries:
    """A tube-cost series over horizons with its fitted linear rate.

    kind="hard" values grow superadditively (value/a nondecreasing);
    kind="soft" values are nonpositive and subadditive (value/a
    nonincreasing). slope is the weighted straight-line rate over the upper
    half of the grid; the per-horizon ratio sequence ships alongside because
    the limit is approached from one side and a bare point estimate would
    overstate what desk horizons know.
    """

    kind: str
    a_grid: tuple[float, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    slope: float
    slope_se: float
    intercept: float
    residual: float
    n_centers: int
    per_center: dict[float, tuple[float, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("hard", "soft"):
            raise ConfigurationError(f"kind must be hard or soft, got {self.kind!r}")
        if list(self.a_grid) != sorted(self.a_grid) or len(set(self.a_grid)) != len(self.a_grid):
            raise ConfigurationError("a_grid must be strictly increasing")

    def ratios(self) -> np.ndarray:
        return np.array(self.values) / np.array(self.a_grid)

    def ratio_stderrs(self) -> np.ndarray:
        return np.array(self.stderrs) / np.array(self.a_grid)

    def ratio_trend_violations(self) -> int:
        """Count adjacent ratio pairs moving the wrong way beyond noise."""
        r = self.ratios()
        se = self.ratio_stderrs()
        sign = 1.0 if self.kind == "hard" else -1.0
        bad = 0
        for j in range(len(r) - 1):
            slack = K_SIGMA * math.hypot(se[j], se[j + 1])
            if sign * (r[j + 1] - r[j]) < -slack:
                bad += 1
        return bad

    def rate_constant(self) -> float:
        """The estimated linear growth rate: the constant itself for the hard
        series, K (sign-flipped slope) for the soft one."""
        return self.slope if self.kind == "hard" else -self.slope


def _wls_line(x: np.ndarray, y: np.ndarray, se: np.ndarray):
    w = 1.0 / np.maximum(se, 1e-12) ** 2
    A = np.stack([x, np.ones_like(x)], axis=1)
    cov = np.linalg.inv(A.T @ (A * w[:, None]))
    coef = cov @ ((A * w[:, None]).T @ y)
    resid = float(np.sqrt(np.mean((y - A @ coef) ** 2)))
    return float(coef[0]), float(coef[1]), float(math.sqrt(cov[0, 0])), resid


def _upper_half(a_grid: np.ndarray) -> np.ndarray:
    return np.arange(len(a_grid)) >= (len(a_grid) - 1) // 2


def _horizon_panel(model: GaussianModel, a_grid, n_centers: int, stream: RandomStream,
                   kind: str) -> tuple[tuple[float, ...], np.ndarray]:
    """The increasing horizon grid, and n_centers paths on [0, max(a_grid)]
    at the template's step, drawn from stream.spawn(0)."""
    a_grid = tuple(float(a) for a in a_grid)
    if not a_grid or list(a_grid) != sorted(a_grid):
        raise ConfigurationError("a_grid must be increasing and nonempty")
    if not isinstance(model, WienerPath) or model.d != 1:
        raise ConfigurationError(f"the {kind} series needs a 1-d Brownian path template")
    long_model = WienerPath(n_steps=round(a_grid[-1] / model.dt), horizon=a_grid[-1])
    return a_grid, long_model.sample_values(stream.spawn(0).generator(), n_centers)


def _fitted_series(kind: str, a_grid: tuple[float, ...], means: list[float], ses: list[float],
                   n_centers: int, per_center: dict) -> SubadditiveSeries:
    """The series with its weighted straight-line rate over the upper half
    of the horizon grid."""
    x = np.array(a_grid)
    mask = _upper_half(x)
    slope, intercept, slope_se, resid = _wls_line(
        x[mask], np.array(means)[mask], np.array(ses)[mask]
    )
    return SubadditiveSeries(
        kind, a_grid, tuple(means), tuple(ses), slope, slope_se, intercept, resid,
        n_centers, per_center,
    )


# -- free-start small balls -----------------------------------------------------


@dataclass(frozen=True)
class FreeStartEstimate:
    estimate: ProbEstimate
    x_star: float


def _coarse_unimodal_scan(objective, lo: float, hi: float, n_scan: int, tol: float):
    xs = np.linspace(lo, hi, n_scan)
    vals = np.array([objective(x) for x in xs])
    k = int(vals.argmax())
    rising = vals[: k + 1]
    falling = vals[k:]
    if np.any(np.diff(rising) < -tol) or np.any(np.diff(falling) > tol):
        raise DiagnosticError(
            "start-point profile is not unimodal beyond noise; "
            "the log-concavity assumption looks violated here"
        )
    return xs, vals, k


def _golden_max(objective, lo: float, hi: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    x = 0.5 * (a + b)
    return x, objective(x)


def tilde_rsbf(
    model: GaussianModel,
    norm_spec: NormSpec,
    w: np.ndarray,
    eps: float,
    stream: RandomStream,
    estimator: str = "transfer",
    n_inner: int = 8192,
) -> FreeStartEstimate:
    """Ball cost around w minimized over the walk's starting point.

    For norms that ignore constant offsets the start cannot matter, so the
    fixed-start estimate is returned untouched (same stream, same floats)
    with x*=0. Otherwise the start profile is maximized: exactly via the
    deterministic band sweep (estimator="transfer", 1-d sup norm), or by a
    golden-section search over a common set of inner samples
    (estimator="mc"; shared randomness keeps the profile smooth enough to
    optimize, and a coarse scan guards the unimodality assumption).
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    w = np.asarray(w, dtype=float)
    if norm_spec.translation_invariant():
        est = ball_prob_mc(model, norm_spec, eps, n_inner, stream, center=w)
        return FreeStartEstimate(est, 0.0)
    if estimator == "transfer":
        require_route(model, norm_spec, "transfer", "shifted")
        x, logv = band_log_profile(w - eps, w + eps, model.dt)
        k = int(np.argmax(logv))
        lp = float(logv[k])
        return FreeStartEstimate(
            ProbEstimate(min(lp, 0.0), 0.0, 0, "analytic"), float(x[k])
        )
    if estimator != "mc":
        raise ConfigurationError(f"unknown free-start estimator {estimator!r}")
    if getattr(model, "d", 1) != 1:
        raise ConfigurationError("the mc free-start search is 1-d only")
    rng = stream.generator()
    resid = model.sample_values(rng, n_inner) - w
    span = float(np.max(np.abs(w))) + 2.0 * eps

    def hit_fraction(x: float) -> float:
        return float((eval_norm_batch(resid + x, model.dt, norm_spec) <= eps).mean())

    tol = 3.0 / math.sqrt(n_inner)
    xs, vals, k = _coarse_unimodal_scan(hit_fraction, -span, span, 9, tol)
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    x_star, p = _golden_max(hit_fraction, lo, hi)
    if p <= 0.0:
        return FreeStartEstimate(
            ProbEstimate(math.log(3.0 / n_inner), math.inf, n_inner, "mc", bound=True), x_star
        )
    se = math.sqrt((1.0 - p) / (n_inner * p))
    return FreeStartEstimate(ProbEstimate(math.log(p), se, n_inner, "mc"), x_star)


def unit_tube_cost(w: np.ndarray, dt: float) -> float:
    """-log of the best-start probability of tracking w within radius 1."""
    w = np.asarray(w, dtype=float)
    return -band_log_prob(w - 1.0, w + 1.0, dt, start=None)


def lambda_hard(
    model: GaussianModel,
    a_grid,
    n_centers: int,
    stream: RandomStream,
) -> SubadditiveSeries:
    """Expectation series of the free-start unit-tube cost over horizons.

    One panel of paths is drawn on [0, max(a_grid)] and every horizon reads
    its prefix, so the series shares center noise across horizons (the
    superadditivity and ratio-trend checks then compare like with like).
    The per-horizon costs are deterministic band sweeps, one horizon per
    pool task, longest first so the longest sweep never runs alone at the
    end; all the quoted error is center-sampling error.
    """
    if any(not 1.0 <= float(a) <= 16.0 for a in a_grid):
        raise ConfigurationError("horizons outside [1, 16] are not calibrated here")
    a_grid, paths = _horizon_panel(model, a_grid, n_centers, stream, "hard")
    dt = model.dt

    def horizon_costs(a: float) -> np.ndarray:
        w = paths[:, : round(a / dt) + 1]
        return -tube_log_probs(w, 1.0, dt, start=None)

    per_center: dict[float, tuple[float, ...]] = {}
    means, ses = [], []
    for a, costs in zip(a_grid, keyed_map(horizon_costs, a_grid[::-1])[::-1]):
        per_center[a] = tuple(costs)
        means.append(float(costs.mean()))
        ses.append(float(costs.std(ddof=1) / math.sqrt(n_centers)))
    return _fitted_series("hard", a_grid, means, ses, n_centers, per_center)


# -- the soft functional ---------------------------------------------------------


def soft_cost_profile(resid: np.ndarray, p: float, dt: float):
    """Per-inner-path cost of the soft tube functional as a function of the
    start offset x: S_j(x) = int |resid_j(t) + x|^p dt.

    Even integer p admits the exact binomial form S_j(x) = sum_k C(p,k)
    M_{p-k,j} x^k with path moments M_k = int resid^k dt, making the whole
    x-profile a polynomial per path; other exponents fall back to direct
    reintegration per x.
    """
    resid = np.asarray(resid, dtype=float)
    if resid.ndim != 2:
        raise ConfigurationError("resid must be (paths, nodes)")
    if p <= 0:
        raise DomainError(f"exponent p must be positive, got {p}")
    even = abs(p - round(p)) < 1e-12 and round(p) % 2 == 0
    if even:
        ip = round(p)
        # resid^k as a running product: a multiply per power, not a pow
        power = np.ones_like(resid)
        moments = [np.trapezoid(power, dx=dt, axis=1)]
        for _ in range(ip):
            power *= resid
            moments.append(np.trapezoid(power, dx=dt, axis=1))
        coef = [math.comb(ip, k) for k in range(ip + 1)]

        def costs(x: float) -> np.ndarray:
            acc = np.zeros(resid.shape[0])
            for k in range(ip + 1):
                acc += coef[k] * moments[ip - k] * x**k
            return acc

        return costs

    def costs(x: float) -> np.ndarray:
        return np.trapezoid(np.abs(resid + x) ** p, dx=dt, axis=1)

    return costs


def soft_functional(
    resid: np.ndarray, p: float, dt: float
) -> tuple[float, float, float]:
    """sup_x log mean_j exp(-S_j(x)) with its stderr and the maximizing x.

    The x profile is scanned coarsely, refined by golden section, and the
    weights at the optimum are checked for effective sample size (a handful
    of dominating paths would make the log-mean untrustworthy).
    """
    costs = soft_cost_profile(resid, p, dt)
    span = float(np.quantile(np.abs(resid), 0.99)) + 1.0

    def logmean(x: float) -> float:
        s = costs(x)
        m = s.min()
        return float(-m + np.log(np.mean(np.exp(-(s - m)))))

    xs, vals, k = _coarse_unimodal_scan(logmean, -span, span, 11, tol=0.05)
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    x_star, val = _golden_max(logmean, lo, hi)
    u = np.exp(-(costs(x_star) - costs(x_star).min()))
    ess = float(u.sum() ** 2 / np.sum(u**2))
    if ess < ESS_FLOOR:
        warnings.warn(
            f"soft functional rests on ~{ess:.0f} effective paths", PowerWarning, stacklevel=2
        )
    se = float(np.std(u, ddof=1) / (np.mean(u) * math.sqrt(len(u))))
    return val, se, x_star


def lambda_soft(
    model: GaussianModel,
    norm_spec: NormSpec,
    a_grid,
    n_centers: int,
    stream: RandomStream,
    n_inner: int = 8192,
) -> SubadditiveSeries:
    """Soft tube-functional series for integral-type norms.

    Requires the norm family with index p above 2 (the regime where the
    rate-to-constant conversion below is available); the template model
    fixes d=1 and the step size. Per center the inner expectation is plain
    Monte Carlo (the integrand lives in (0, 1]); per-horizon values are the
    center means of the per-path functional.
    """
    if norm_spec.kind != "lp":
        raise ConfigurationError("the soft series is defined for integral-type norms")
    if norm_spec.p <= 2:
        raise ConfigurationError(
            "norm index p must exceed 2 for the soft-rate route (dual exponent "
            "stays above 1 and the scaling hypothesis holds)"
        )
    a_grid, centers = _horizon_panel(model, a_grid, n_centers, stream, "soft")
    dt = model.dt
    p = norm_spec.p
    means, ses = [], []
    per_center: dict[float, tuple[float, ...]] = {}
    for ai, a in enumerate(a_grid):
        k = round(a / dt)
        sub = WienerPath(n_steps=k, horizon=a)
        vals = np.empty(n_centers)
        errs = np.empty(n_centers)
        for i in range(n_centers):
            rng = stream.spawn(1000 + ai * n_centers + i).generator()
            inner = sub.sample_values(rng, n_inner)
            v, se, _ = soft_functional(inner - centers[i, : k + 1], p, dt)
            vals[i], errs[i] = v, se
        per_center[a] = tuple(vals)
        means.append(float(vals.mean()))
        ses.append(float(math.hypot(vals.std(ddof=1), float(np.mean(errs)))
                         / math.sqrt(n_centers)))
    return _fitted_series("soft", a_grid, means, ses, n_centers, per_center)


def constant_from_soft_rate(K: float, q: float) -> float:
    """Convert the soft linear rate K to the ball constant:
    (q - 1) (K/q)^(q/(q-1)). Defined only for dual exponent q > 1."""
    if q <= 1.0:
        raise ConfigurationError(f"dual exponent must exceed 1, got {q}")
    if K <= 0:
        raise DomainError(f"rate K must be positive, got {K}")
    return (q - 1.0) * (K / q) ** (q / (q - 1.0))


# -- centered-ball constant ------------------------------------------------------


def dirichlet_eigenvalue(d: int) -> float:
    """Principal Dirichlet eigenvalue of 1/2 Laplacian on the unit ball.

    d=1: quarter-wave cosine, pi^2/8. d=2: first zero of the order-zero
    Bessel function, squared, halved. d=3: full sine wave over the radius,
    pi^2/2. These are the centered-ball constants the random-ball constant
    is sandwiched against.
    """
    if d == 1:
        return math.pi**2 / 8.0
    if d == 2:
        return J0_FIRST_ZERO**2 / 2.0
    if d == 3:
        return math.pi**2 / 2.0
    raise DomainError(f"dimension {d} unsupported (needs 1, 2, or 3)")


_EXIT_DEFAULTS = {
    # horizon, survival window: late windows dodge higher-mode transients
    1: (4.0, (0.01, 0.25)),
    2: (2.4, (0.005, 0.10)),
    3: (1.6, (0.002, 0.05)),
}


def exit_time_eigenvalue(
    d: int,
    stream: RandomStream,
    n_paths: int = 300_000,
    horizon: float | None = None,
) -> float:
    """Simulation cross-check of the eigenvalue: exponential decay rate of
    the survival probability of a walk started at the ball's center.

    Discrete monitoring effectively inflates the ball radius by about
    0.5826 sqrt(dt) per boundary, so the fitted rate is corrected by
    (1 + 0.5826 sqrt(dt))^2. The fit window is specified in survival mass;
    the windows of _EXIT_DEFAULTS sit late enough that the second mode has
    died off.
    """
    if d not in _EXIT_DEFAULTS:
        raise DomainError(f"dimension {d} unsupported (needs 1, 2, or 3)")
    h, (lo, hi) = _EXIT_DEFAULTS[d]
    horizon = h if horizon is None else horizon
    dt = EXIT_DT
    n_steps = round(horizon / dt)
    rng = stream.generator()
    sd = math.sqrt(dt)
    survivors = np.zeros(n_steps + 1, dtype=np.int64)
    done = 0
    while done < n_paths:
        b = min(EXIT_CHUNK, n_paths - done)
        pos = np.zeros((b, d))
        alive = np.ones(b, dtype=bool)
        survivors[0] += b
        for i in range(1, n_steps + 1):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            pos[idx] += sd * rng.standard_normal((idx.size, d))
            r2 = np.einsum("ij,ij->i", pos[idx], pos[idx])
            out = r2 >= 1.0
            alive[idx[out]] = False
            survivors[i] += int(idx.size - out.sum())
        done += b
    s = survivors / n_paths
    t = dt * np.arange(n_steps + 1)
    mask = (s >= lo) & (s <= hi) & (t > 0)
    if mask.sum() < 5:
        raise DomainError("survival window too narrow; extend the horizon or add paths")
    # log-survival noise scales like sqrt((1-s)/(n s))
    se = np.sqrt((1.0 - s[mask]) / (n_paths * s[mask]))
    slope, _, _, _ = _wls_line(t[mask], np.log(s[mask]), se)
    lam_disc = -slope
    return lam_disc * (1.0 + BOUNDARY_SHIFT * sd) ** 2


# -- headline constant estimates --------------------------------------------------


def subadditive_constant(
    model: GaussianModel,
    norm_spec: NormSpec,
    a_grid,
    n_centers: int,
    stream: RandomStream,
    n_inner: int = 8192,
) -> tuple[float, float, SubadditiveSeries]:
    """(constant, stderr, series) from the horizon series: the hard series'
    rate for the sup norm, the soft rate K converted through the dual
    exponent q for integral norms."""
    if norm_spec.kind == "sup":
        series = lambda_hard(model, a_grid, n_centers, stream)
        return series.rate_constant(), series.slope_se, series
    if norm_spec.kind != "lp":
        raise ConfigurationError("subadditive mode supports sup and integral norms")
    series = lambda_soft(model, norm_spec, a_grid, n_centers, stream, n_inner=n_inner)
    K, q = series.rate_constant(), norm_spec.soft_q
    value = constant_from_soft_rate(K, q)
    # first-order error propagation through the power law
    return value, value * (q / (q - 1.0)) * (series.slope_se / K) if K > 0 else math.inf, series


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    stderr: float
    gamma: float
    details: dict


def estimate_constant(
    model: GaussianModel,
    norm_spec: NormSpec,
    stream: RandomStream,
    eps_grid: tuple[float, ...] | None = None,
    n_centers: int = 64,
) -> ConstantEstimate:
    """Limiting constant of the random-center ball cost by the radius fit.

    Regresses the panel-mean cost against eps^-gamma with an intercept over
    a small geometric radius grid (by default placed where the centered
    depth spans roughly [5, 20]); the slope is the constant. Centers are
    priced by the bias-extrapolated band sweep (1-d sup norm only), one
    radius per pool task. The horizon route is ``subadditive_constant``.
    """
    gamma = norm_spec.gamma
    require_route(model, norm_spec, "transfer", "shifted")
    if eps_grid is None:
        # place the grid where the centered depth runs ~[5, 20]
        k0 = dirichlet_eigenvalue(1)
        eps_grid = tuple(np.geomspace(math.sqrt(k0 / 5.0), math.sqrt(k0 / 20.0), 4))
    centers = model.sample_values(stream.spawn(0).generator(), n_centers)

    def radius_costs(eps: float) -> np.ndarray:
        return -tube_log_prob_extrapolated(centers, eps, model.dt, start=0.0)

    means, ses = [], []
    for costs in keyed_map(radius_costs, eps_grid):
        means.append(float(costs.mean()))
        ses.append(float(costs.std(ddof=1) / math.sqrt(n_centers)))
    x = np.array([e ** (-gamma) for e in eps_grid])
    slope, intercept, slope_se, resid = _wls_line(x, np.array(means), np.array(ses))
    return ConstantEstimate(
        slope, slope_se, gamma,
        {"eps_grid": tuple(float(e) for e in eps_grid), "means": tuple(means),
         "intercept": intercept, "residual": resid},
    )
