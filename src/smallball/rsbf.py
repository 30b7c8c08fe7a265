"""Random-center small balls: sampling, gauge curves, inequality verifiers.

The central object is the random variable ell_eps = -log mu(B(X, eps)) with
X itself a draw from mu. ``sample_rsbf`` estimates it over a panel of
centers (the same centers reused across the whole radius grid, so each
center traces a clean curve); ``gauge_stats`` condenses the panel into
location/dispersion summaries (median and mean are the two gauges the rest
of the lab inverts and compares against); the ``verify_*`` / ``check_*``
functions turn inequalities between these quantities into pass/fail report
rows with explicit noise allowances.

Verdict rows carry stable claim slugs ("lower-envelope", "two-scale-upper",
...) so a grep can audit which inequalities a run exercised.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

from .errors import ConfigurationError, DataError, DomainError, PowerWarning
from .estimators import (
    ProbEstimate,
    SBFCurve,
    _replica_estimates,
    ball_prob_mc,
    log_mass,
    make_ladder,
    pilot_curve,
    require_route,
    route_table,
    sbf_analytic,
)
from .models import FiniteSpectrum, GaussianModel, Scalar, rkhs_norm
from .norms import NormSpec, eval_norm_batch
from .streams import RandomStream, keyed_map

GATE_LOG_LEVEL = 6.60772622151035  # -log Phi(-3), the probe's depth gate
SHALLOW_DEPTH_FLOOR = 0.1  # nats; doubling pairs with a shallower wide ball are ignored
PANEL_DELTA_PHI = 1.0  # ladder step of a center panel, in nats of the pilot curve
PANEL_PATHS = 384  # splitting paths per level and center of a panel replica
PANEL_MOVES = 8  # pCN moves per level of a panel ladder
PANEL_REPLICAS = 2  # independent splitting replicas of a panel
MOMENT_ORDERS = (1, 2)  # the panel L^p norms a gauge reports
RIDGE_LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)  # the certificate's ridge sweep
CERT_KNOTS = 32  # knots of the certificate's piecewise-linear shifts
N_BOOT = 400  # bootstrap resamples of a gauge interval or a trend row
# the verifiers' policy: SLACK feeds the (1+SLACK) multipliers on asymptotic
# bounds; NU and NU_TILDE are the claimed doubling constants (ratio of the
# curve at eps to the curve at 2 eps, from below and above); K_SIGMA is the
# combined standard-error multiplier that separates "violated" from "noise"
SLACK = 0.1
NU = 4.5
NU_TILDE = 2.0
K_SIGMA = 3.0


@dataclass(frozen=True)
class RSBFSample:
    """One center's estimated negative log ball mass at one radius."""

    center_id: int
    eps: float
    ell_hat: ProbEstimate

    def __post_init__(self):
        if self.eps <= 0:
            raise DomainError(f"eps must be positive, got {self.eps}")
        if self.ell_hat.phi < -3.0 * self.ell_hat.stderr_log:
            raise DataError("negative log mass must be >= 0 up to noise")


@dataclass(frozen=True)
class CheckRow:
    """One verified statement. passed=None marks an informational row."""

    claim: str
    passed: bool | None
    observed: float
    threshold: float
    note: str = ""


@dataclass(frozen=True)
class Report:
    name: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    def rows_for(self, claim: str) -> list[CheckRow]:
        return [r for r in self.rows if r.claim == claim]


@dataclass(frozen=True)
class GaugeCurve:
    """Location and dispersion of ell_eps per radius, over one center panel.

    median uses the lower-midpoint convention on even counts (the lower of
    the two central order statistics), fixed for reproducibility. moments
    maps p to the panel L^p norm of ell; moment_bounds (when a centered
    curve was supplied) maps p to the deterministic upper bound
    phi(eps/2) + (sqrt(2 phi(eps/2)) + z_{2p})^2 / 2 with z_q the L^q norm
    of a standard normal.
    """

    eps_grid: tuple[float, ...]
    n_centers: int
    median: tuple[float, ...]
    mean: tuple[float, ...]
    mean_se: tuple[float, ...]
    median_ci: tuple[tuple[float, float], ...]
    iqr: tuple[float, ...]
    stddev: tuple[float, ...]
    rel_iqr: tuple[float, ...]
    moments: dict[int, tuple[float, ...]] = field(default_factory=dict)
    moment_bounds: dict[int, tuple[float, ...]] = field(default_factory=dict)


def abs_moment_norm(q: int) -> float:
    """L^q norm of a standard normal for a positive integer order:
    (E|Z|^q)^(1/q), with E|Z|^q = (q-1)!!, times sqrt(2/pi) for odd q."""
    if not (q > 0 and float(q).is_integer()):
        raise DomainError(f"moment order must be a positive integer, got {q}")
    m = float(math.prod(range(int(q) - 1, 0, -2)))
    if q % 2:
        m *= math.sqrt(2.0 / math.pi)
    return m ** (1.0 / q)


def moment_upper_bound(phi_half: float, p: int) -> float:
    """Deterministic bound on the panel L^p norm of ell at radius eps in
    terms of the centered curve at eps/2."""
    z = abs_moment_norm(2 * p)
    return phi_half + 0.5 * (math.sqrt(2.0 * phi_half) + z) ** 2


# -- sampling -----------------------------------------------------------------


def sample_rsbf(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps_grid,
    n_centers: int,
    stream: RandomStream,
    estimator: str = "splitting",
    n_samples: int = 100_000,
) -> list[RSBFSample]:
    """Estimate -log mu(B(X_i, eps)) for a shared panel of random centers.

    The same centers serve every radius in the grid. Estimators:

    * the pair's exact route (``analytic`` for the scalar law, ``transfer``
      for the band sweep of a 1-d Brownian sup ball) - ``log_mass`` at all
      centers, one radius per pool task, stderr 0.
    * ``mc``        - plain hit counting per (center, radius); fine for
      radii with mass above ~1e-4.
    * ``splitting`` - one ladder descent per center batch, all radii
      recorded on the way down; the ladder is spaced on the centered pilot
      curve and shared across centers. An ensemble that dies mid-ladder
      yields bound-flagged samples rather than an error.
    """
    eps_grid = tuple(sorted({float(e) for e in eps_grid}, reverse=True))
    if n_centers < 2:
        raise ConfigurationError("n_centers must be >= 2")
    if any(e <= 0 for e in eps_grid):
        raise DomainError("all radii must be positive")
    require_route(model, norm_spec, estimator, "shifted")
    centers = model.sample_values(stream.spawn(0).generator(), n_centers)

    if estimator == "mc":
        return [RSBFSample(i, eps, ball_prob_mc(model, norm_spec, eps, n_samples,
                                                stream.spawn(1 + i * len(eps_grid) + j),
                                                center=centers[i]))
                for i in range(n_centers) for j, eps in enumerate(eps_grid)]

    if estimator in route_table(model, norm_spec).exact:
        lps = keyed_map(lambda eps: log_mass(model, norm_spec, centers, eps), eps_grid)
        return [RSBFSample(i, eps, ProbEstimate(min(float(lp[i]), 0.0), 0.0, 0, "analytic"))
                for i in range(n_centers) for eps, lp in zip(eps_grid, lps)]

    # shared-ladder batched splitting
    pilot = pilot_curve(model, norm_spec, stream.spawn(10_001))
    rng_p = stream.spawn(10_002).generator()
    probe = model.sample_values(rng_p, 1024)
    # entry radius: every center needs a decent plain-MC entry fraction
    q: list[float] = []
    for i in range(n_centers):
        d = eval_norm_batch(probe - centers[i], model.dt, norm_spec)
        q.append(float(np.quantile(d, 0.5)))
    eps_start = max(max(q), 1.05 * eps_grid[0])
    levels = make_ladder(pilot, eps_start, eps_grid, PANEL_DELTA_PHI)
    ests, _ = _replica_estimates(model, norm_spec, centers, levels, eps_grid, PANEL_PATHS,
                                 stream, range(100, 100 + PANEL_REPLICAS), PANEL_MOVES,
                                 strict=False)
    return [RSBFSample(i, eps, est) for i, row in enumerate(ests)
            for eps, est in zip(eps_grid, row)]


def _by_eps(samples) -> dict[float, list[RSBFSample]]:
    groups: dict[float, list[RSBFSample]] = {}
    for s in samples:
        groups.setdefault(s.eps, []).append(s)
    for v in groups.values():
        v.sort(key=lambda s: s.center_id)
    return dict(sorted(groups.items(), reverse=True))


def _lower_mid_median(sorted_vals: np.ndarray) -> float:
    return float(sorted_vals[(len(sorted_vals) - 1) // 2])


def _exact_ranks(ell: np.ndarray, bound: np.ndarray) -> int:
    """How many of the smallest costs are exact order statistics: a true cost
    is at least its censored value, so rank k is exact while no censored cost
    sorts at or below it (uncensored first on ties); so k < (1 - censored) n."""
    if not bound.any():
        return len(ell)
    return int(np.argmax(bound[np.lexsort((bound, ell))]))


def gauge_stats(
    samples,
    centered=None,
    stream: RandomStream | None = None,
) -> GaugeCurve:
    """Summarize an RSBF panel into a gauge curve.

    ``centered`` is an optional callable eps -> centered negative log mass,
    used to emit the deterministic bound column of each of MOMENT_ORDERS. A radius
    with censored (bound) rows reports NaN for the mean, its error, the
    stddev and the moments, and for each quantile (median, its bootstrap
    interval, the quartiles) that a censored cost could move. The N_BOOT
    bootstrap resamples run over centers on a fixed stream (pass one to decouple
    from the default).
    """
    groups = _by_eps(samples)
    if not groups:
        raise ConfigurationError("no samples given")
    rng = (stream or RandomStream(1234, (77,))).generator()
    eps_grid, med, mean, mean_se, med_ci, iqr, std, rel = [], [], [], [], [], [], [], []
    mom: dict[int, list[float]] = {p: [] for p in MOMENT_ORDERS}
    mbound: dict[int, list[float]] = {p: [] for p in MOMENT_ORDERS} if centered else {}
    for eps, group in groups.items():
        ell = np.array([s.ell_hat.phi for s in group])
        bound = np.array([s.ell_hat.bound for s in group])
        n = len(ell)
        if n < 30:
            warnings.warn(
                f"{n} centers at eps={eps:g}: quantile estimates are weak",
                PowerWarning,
                stacklevel=2,
            )
        svals = np.sort(ell)
        eps_grid.append(eps)
        # a censored (bound) cost is only a lower bound: every average over
        # it is undefined, and an order statistic is kept while it is exact
        censored = bool(bound.any())
        n_exact = _exact_ranks(ell, bound)
        med.append(_lower_mid_median(svals) if (n - 1) // 2 < n_exact else math.nan)
        mean.append(math.nan if censored else float(ell.mean()))
        mean_se.append(math.nan if censored else
                       float(ell.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
        q25, q75 = np.quantile(ell, [0.25, 0.75])
        q25 = q25 if math.ceil((n - 1) * 0.25) < n_exact else math.nan
        q75 = q75 if math.ceil((n - 1) * 0.75) < n_exact else math.nan
        iqr.append(float(q75 - q25))
        std.append(math.nan if censored else float(ell.std(ddof=1)) if n > 1 else 0.0)
        rel.append(math.inf if med[-1] <= 0 else (q75 - q25) / med[-1])
        boot_med = np.empty(N_BOOT)
        for b in range(N_BOOT):
            take = rng.integers(0, n, n)
            boot_med[b] = _lower_mid_median(np.sort(ell[take]))
            if censored and (n - 1) // 2 >= _exact_ranks(ell[take], bound[take]):
                boot_med[b] = math.nan
        lo, hi = np.quantile(boot_med, [0.025, 0.975])
        med_ci.append((float(lo), float(hi)))
        for p in mom:
            mom[p].append(math.nan if censored else float(np.mean(ell**p) ** (1.0 / p)))
        if mbound:
            phi_half = centered(eps / 2.0)
            for p in mbound:
                mbound[p].append(moment_upper_bound(phi_half, p))
    return GaugeCurve(
        eps_grid=tuple(eps_grid),
        n_centers=len(next(iter(groups.values()))),
        median=tuple(med),
        mean=tuple(mean),
        mean_se=tuple(mean_se),
        median_ci=tuple(med_ci),
        iqr=tuple(iqr),
        stddev=tuple(std),
        rel_iqr=tuple(rel),
        moments={p: tuple(v) for p, v in mom.items()},
        moment_bounds={p: tuple(v) for p, v in mbound.items()},
    )


# -- inequality verifiers ------------------------------------------------------


def curve_value(curve: SBFCurve, eps: float) -> ProbEstimate:
    for e, est in zip(curve.eps_grid, curve.estimates):
        if math.isclose(e, eps, rel_tol=1e-9, abs_tol=1e-12):
            return est
    raise ConfigurationError(f"curve has no radius {eps:g}")


def verify_enclosure(sbf: SBFCurve, samples) -> Report:
    """Centered curve as envelope of the random one, from both sides.

    Per radius: (a) no center's ell may undercut the centered value beyond
    K_SIGMA combined noise (the lower envelope is exact, not asymptotic;
    a bound row only bounds its cost from below and is not counted);
    (b) the fraction of centers below (1+SLACK) * 2 * centered(eps/2) is
    reported, and must not decrease as the radius shrinks. A bound row at or
    below that cap may sit on either side of it, so its radius reports the
    fraction as NaN and the trend rows touching it are informational.
    """
    rows: list[CheckRow] = []
    fracs: list[tuple[float, float, int]] = []
    for eps, group in _by_eps(samples).items():
        phi = curve_value(sbf, eps)
        viol = 0
        for s in group:
            # a bound row's cost is only a lower bound, no evidence of an undercut
            se = math.hypot(s.ell_hat.stderr_log, phi.stderr_log)
            if not s.ell_hat.bound and s.ell_hat.phi < phi.phi - K_SIGMA * se:
                viol += 1
        rows.append(CheckRow("lower-envelope", viol == 0, float(viol), 0.0,
                             f"eps={eps:g}, centers={len(group)}"))
        cap = (1.0 + SLACK) * 2.0 * curve_value(sbf, eps / 2.0).phi
        below = [s.ell_hat.phi <= cap for s in group]
        undecided = any(b and s.ell_hat.bound for b, s in zip(below, group))
        frac = math.nan if undecided else sum(below) / len(group)
        fracs.append((eps, frac, len(group)))
        rows.append(CheckRow("two-scale-upper", None, frac, cap, f"eps={eps:g}"))
    for j in range(len(fracs) - 1):
        e0, f0, n0 = fracs[j]
        e1, f1, n1 = fracs[j + 1]
        se = math.sqrt(f0 * (1 - f0) / n0 + f1 * (1 - f1) / n1)
        ok = None if math.isnan(se) else f1 >= f0 - K_SIGMA * se
        rows.append(
            CheckRow("two-scale-upper-trend", ok, f1 - f0,
                     -K_SIGMA * se, f"eps {e0:g}->{e1:g}")
        )
    return Report("enclosure", tuple(rows))


def verify_gauge_sandwich(sbf: SBFCurve, gauge: GaugeCurve) -> Report:
    """centered(eps/sqrt 2) <= (1+SLACK) mean[ell_eps] <= (1+SLACK)^2 *
    2 centered(eps/2), per grid radius, with K_SIGMA noise allowance on the
    panel mean; informational at a radius whose mean is censored."""
    rows: list[CheckRow] = []
    for j, eps in enumerate(gauge.eps_grid):
        mean, se = gauge.mean[j], gauge.mean_se[j]
        lo = curve_value(sbf, eps / math.sqrt(2.0)).phi
        hi = 2.0 * curve_value(sbf, eps / 2.0).phi
        s = 1.0 + SLACK
        decided = not math.isnan(mean)  # a censored radius has no mean
        ok_lo = lo <= s * (mean + K_SIGMA * se) if decided else None
        ok_hi = s * (mean - K_SIGMA * se) <= s * s * hi if decided else None
        rows.append(CheckRow("gauge-lower", ok_lo, lo, s * mean, f"eps={eps:g}"))
        rows.append(CheckRow("gauge-upper", ok_hi, s * mean, s * s * hi, f"eps={eps:g}"))
    return Report("gauge-sandwich", tuple(rows))


def growth_hypothesis(model: GaussianModel) -> bool:
    """Whether the two-scale growth hypothesis of the doubling-upper and
    distortion-gauge-match claims is made for the model: the path models'
    depth grows like a power of 1/eps; the scalar depth grows like
    log(1/eps) and a k-coordinate spectrum's like k log(1/eps), with
    doubling ratios near 1."""
    return not isinstance(model, (Scalar, FiniteSpectrum))


def check_doubling(sbf: SBFCurve, which: str) -> Report:
    """Two-to-one radius ratios of the centered curve.

    which="lower": reports nu_hat = max ratio of curve(eps)/curve(2 eps)
    (finiteness is the claim; the fitted constant is informational).
    which="upper": requires every ratio >= NU_TILDE; polynomial curves of
    order gamma sit near 2^gamma, logarithmic ones near 1 and must fail.
    """
    if which not in ("lower", "upper"):
        raise ConfigurationError("which must be 'lower' or 'upper'")
    eps = np.array(sbf.eps_grid)
    ratios: list[tuple[float, float]] = []
    shallow: list[tuple[float, float]] = []
    for j, e in enumerate(eps):
        hit = np.flatnonzero(np.isclose(eps, 2.0 * e, rtol=1e-9))
        if not hit.size:
            continue
        den = sbf.estimates[hit[0]].phi
        # the two-scale claims live in the small-ball regime; a ratio over a
        # nearly full ball diverges for every measure and decides nothing
        if den < SHALLOW_DEPTH_FLOOR:
            shallow.append((e, sbf.estimates[j].phi / den if den > 0 else math.inf))
        else:
            ratios.append((e, sbf.estimates[j].phi / den))
    if not ratios:
        raise ConfigurationError("grid carries no (eps, 2 eps) pairs of usable depth")
    vals = [r for _, r in ratios]
    rows = [
        CheckRow("doubling-ratio", None, r, 0.0, f"eps={e:g}") for e, r in ratios
    ] + [
        CheckRow("doubling-ratio", None, r, 0.0, f"eps={e:g}, shallow pair ignored")
        for e, r in shallow
    ]
    if which == "lower":
        nu_hat = max(vals)
        rows.append(CheckRow("doubling-lower", nu_hat <= NU, nu_hat, NU,
                             "fitted upper doubling constant"))
    else:
        worst = min(vals)
        rows.append(CheckRow("doubling-upper", worst >= NU_TILDE, worst, NU_TILDE,
                             "two-scale growth floor"))
    return Report(f"doubling-{which}", tuple(rows))


# -- shifted-ball machinery ----------------------------------------------------


def _random_shift(model: GaussianModel, magnitude: float, rng) -> np.ndarray | float:
    """A random element of the shift space with the given shift-space norm."""
    raw = model.sample_values(rng, 1)[0]
    cur = rkhs_norm(model, raw)
    if not math.isfinite(cur) or cur <= 0:
        raise DataError("sampled path has no usable shift-space norm")
    return raw * (magnitude / cur)


@dataclass(frozen=True)
class Decomposition:
    """Evidence that y = ball_part + shift_part with both parts in budget."""

    ball_norm: float
    shift_norm: float
    ok: bool


def certify_membership(
    model: GaussianModel,
    norm_spec: NormSpec,
    y: np.ndarray | float,
    eps: float,
    shift_budget: float,
) -> Decomposition:
    """One-sided membership certificate for the enlarged ball
    eps*B + shift_budget*B_mu.

    Sweeps ridge projections of y onto piecewise-linear elements over
    CERT_KNOTS knots, or one per grid step on a coarser grid: each of the
    RIDGE_LAMBDAS yields a candidate split y = (y - h) + h;
    the first candidate whose parts fit both budgets certifies membership.
    Failure is *possible* non-membership, never proof. For the scalar model
    the interval arithmetic is exact, so the certificate is two-sided.
    """
    if isinstance(model, Scalar):
        v = float(np.asarray(y))
        shift = math.copysign(min(abs(v), shift_budget * model.sigma), v)
        rest = abs(v - shift)
        return Decomposition(rest, abs(shift) / model.sigma, rest <= eps + 1e-12)
    yv = np.asarray(y, dtype=float)
    n = len(yv) - 1
    n_knots = min(CERT_KNOTS, n)
    if n_knots < 2:
        raise ConfigurationError("the certificate needs a grid of at least 2 steps")
    tk = np.linspace(0.0, n, n_knots + 1).astype(int)
    # interpolation matrix S: knot values -> path nodes (piecewise linear)
    S = np.zeros((n + 1, n_knots + 1))
    for seg in range(n_knots):
        a, b = tk[seg], tk[seg + 1]
        if b == a:
            continue
        t = (np.arange(a, b + 1) - a) / (b - a)
        S[a : b + 1, seg] = 1.0 - t
        S[a : b + 1, seg + 1] = t
    dt_k = np.diff(tk) * model.dt
    # energy quadratic form on knot values (first knot pinned at 0)
    D = np.zeros((n_knots, n_knots + 1))
    for seg in range(n_knots):
        D[seg, seg] = -1.0 / math.sqrt(dt_k[seg])
        D[seg, seg + 1] = 1.0 / math.sqrt(dt_k[seg])
    A = S.T @ S
    E = D.T @ D
    b = S.T @ yv
    best = Decomposition(math.inf, math.inf, False)
    for lam in RIDGE_LAMBDAS:
        try:
            hk = np.linalg.solve(A + lam * E, b)
        except np.linalg.LinAlgError:
            continue
        hk[0] = 0.0
        h = S @ hk
        ball_part = float(eval_norm_batch((yv - h)[None, :], model.dt, norm_spec)[0])
        shift_part = math.sqrt(float(np.sum(np.diff(hk) ** 2 / dt_k)))
        if ball_part <= eps and shift_part <= shift_budget:
            return Decomposition(ball_part, shift_part, True)
        if ball_part + shift_part < best.ball_norm + best.shift_norm:
            best = Decomposition(ball_part, shift_part, False)
    return best


def lipschitz_probe(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps: float,
    n_pairs: int,
    shift_magnitudes,
    stream: RandomStream,
) -> Report:
    """Log ball mass as a Lipschitz function of the center.

    Tests |log mu(B(x+h, 2 eps)) - log mu(B(x, 2 eps))| <=
    8 sqrt(centered(eps)) |h| over random centers x ~ mu and random shifts
    h, restricted to pairs certified inside the enlarged ball
    eps*B + 3 sqrt(centered(eps)) B_mu. The claim needs the ball at 2 eps
    deep enough (centered(2 eps) above ~6.61); a shallower ball makes the
    rows informational (the regime where the constant 8 is not promised).
    """
    psi = functools.partial(log_mass, model, norm_spec, eps=2.0 * eps)
    origin = np.zeros(model.value_shape)
    phi_2e = -psi(origin)
    phi_e = -log_mass(model, norm_spec, origin, eps)
    gate_ok = phi_2e >= GATE_LOG_LEVEL
    rows = [CheckRow("log-lipschitz-gate", None, phi_2e, GATE_LOG_LEVEL,
                     "met" if gate_ok else "not met; rows informational")]
    lip = 8.0 * math.sqrt(phi_e)
    budget = 3.0 * math.sqrt(phi_e)
    rng = stream.generator()
    mags = list(shift_magnitudes)
    viol = tested = 0
    worst = 0.0
    for i in range(n_pairs):
        x = model.sample_values(rng, 1)[0]
        h = _random_shift(model, mags[i % len(mags)], rng)
        in_x = certify_membership(model, norm_spec, x, eps, budget)
        in_xh = certify_membership(model, norm_spec, x + h, eps, budget)
        if not (in_x.ok and in_xh.ok):
            continue
        tested += 1
        delta = abs(psi(x + h) - psi(x))
        hn = rkhs_norm(model, h)
        worst = max(worst, delta - lip * hn)
        if delta > lip * hn + 1e-9:
            viol += 1
    rows.append(CheckRow("log-lipschitz", (viol == 0) if gate_ok else None,
                         float(viol), 0.0, f"tested={tested} of {n_pairs}, worst excess={worst:.3g}"))
    if tested == 0:
        warnings.warn("no pair was certified inside the enlarged ball", PowerWarning, stacklevel=2)
    return Report("log-lipschitz-probe", tuple(rows))


def shift_inequality_check(
    model: GaussianModel,
    kind: str,
    param: float,
    shift,
    stream: RandomStream,
    norm_spec: NormSpec | None = None,
    n_samples: int = 200_000,
) -> Report:
    """Translate a set, bound its new mass through the one-dimensional CDF.

    For A a centered ball (kind="ball", param=radius, norm required) or a
    scalar half-space {y <= param} (kind="halfspace"), and a shift h of the
    model's shift space, checks

        Phi(Phi^-1(mu A) - |h|) <= mu(A + h) <= Phi(Phi^-1(mu A) + |h|)

    within K_SIGMA combined noise; half-spaces meet the matching side with
    equality.
    """
    hn = rkhs_norm(model, shift)
    if not math.isfinite(hn):
        raise DomainError("shift must lie in the model's shift space")
    if kind == "halfspace":
        if not isinstance(model, Scalar):
            raise ConfigurationError("half-space sets are scalar-model only")
        mu_a = scipy.special.ndtr(param / model.sigma)
        mu_ah = scipy.special.ndtr((param + float(np.asarray(shift))) / model.sigma)
        se = 0.0
    elif kind == "ball":
        if norm_spec is None:
            raise ConfigurationError("ball sets need a norm")
        # path models: estimate both masses from the same sampled measure so
        # the grid bias cancels instead of leaking into the comparison
        if "analytic" in route_table(model, norm_spec).exact:
            mu_a = math.exp(sbf_analytic(model, norm_spec, param).log_prob)
            se_a = 0.0
        else:
            est = ball_prob_mc(model, norm_spec, param, n_samples, stream.spawn(0))
            mu_a = math.exp(est.log_prob)
            se_a = est.stderr_log * mu_a
        est_h = ball_prob_mc(model, norm_spec, param, n_samples, stream.spawn(1),
                             center=np.asarray(shift))
        mu_ah = math.exp(est_h.log_prob)
        se_h = 0.0 if est_h.bound else est_h.stderr_log * mu_ah
        se = math.hypot(se_a, se_h)
    else:
        raise ConfigurationError("kind must be 'ball' or 'halfspace'")
    base = scipy.special.ndtri(mu_a)
    lo, hi = scipy.special.ndtr(base - hn), scipy.special.ndtr(base + hn)
    tol = K_SIGMA * se + 1e-12
    rows = (
        CheckRow("shift-lower", mu_ah >= lo - tol, mu_ah, lo, f"|h|={hn:g}"),
        CheckRow("shift-upper", mu_ah <= hi + tol, mu_ah, hi, f"|h|={hn:g}"),
    )
    return Report("shift-inequality", rows)


def verify_enlarged_ball(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps: float,
    n_samples: int,
    stream: RandomStream,
) -> Report:
    """Mass outside eps*B + 3 sqrt(centered(eps)) B_mu is at most the
    centered ball mass at eps.

    Non-membership is counted conservatively: a sample that fails the
    decomposition search counts against the budget even though it may be a
    member, so a pass is genuine evidence.
    """
    if isinstance(model, Scalar):
        phi = sbf_analytic(model, norm_spec, eps).phi
        m = 3.0 * math.sqrt(phi)
        out_mass = 2.0 * scipy.special.ndtr(-(eps + m * model.sigma) / model.sigma)
        row = CheckRow("enlarged-ball", out_mass <= math.exp(-phi), out_mass,
                       math.exp(-phi), f"eps={eps:g}, exact interval arithmetic")
        return Report("enlarged-ball", (row,))
    phi = -log_mass(model, norm_spec, np.zeros(model.value_shape), eps)
    budget = 3.0 * math.sqrt(phi)
    rng = stream.generator()
    ys = model.sample_values(rng, n_samples)
    misses = 0
    for i in range(n_samples):
        if not certify_membership(model, norm_spec, ys[i], eps, budget).ok:
            misses += 1
    p_out = misses / n_samples
    se = math.sqrt(max(p_out * (1 - p_out), 1.0 / n_samples) / n_samples)
    cap = math.exp(-phi)
    row = CheckRow("enlarged-ball", p_out <= cap + K_SIGMA * se, p_out, cap,
                   f"eps={eps:g}, conservative certificate, n={n_samples}")
    return Report("enlarged-ball", (row,))


# -- trend verifiers over the panel -------------------------------------------


def _trend_report(claim: str, samples, statistic, rng) -> Report:
    """One row per consecutive radius pair: the panel statistic must not
    grow as the radius shrinks, judged on a bootstrap interval of the
    difference that resamples centers jointly, so the pairing is kept."""
    groups = _by_eps(samples)
    if len(groups) < 2:
        raise ConfigurationError("need at least two radii for a trend")
    keys = list(groups)
    mats = [np.array([s.ell_hat.phi for s in groups[k]]) for k in keys]
    n = len(mats[0])
    rows = []
    for j in range(len(keys) - 1):
        a, b = mats[j], mats[j + 1]
        diffs = np.empty(N_BOOT)
        for t in range(N_BOOT):
            take = rng.integers(0, n, n)
            diffs[t] = statistic(b[take]) - statistic(a[take])
        lo, hi = (float(q) for q in np.quantile(diffs, [0.025, 0.975]))
        rows.append(CheckRow(claim, lo <= 0.0, statistic(b) - statistic(a), 0.0,
                             f"eps {keys[j]:g}->{keys[j+1]:g}, boot CI [{lo:.3g}, {hi:.3g}]"))
    return Report(claim, tuple(rows))


def _rel_iqr_stat(v: np.ndarray) -> float:
    q25, q75 = np.quantile(v, [0.25, 0.75])
    med = _lower_mid_median(np.sort(v))
    return (q75 - q25) / med if med > 0 else math.inf


def _mean_median_gap_stat(v: np.ndarray) -> float:
    med = _lower_mid_median(np.sort(v))
    return abs(float(v.mean()) / med - 1.0) if med > 0 else math.inf


def dispersion_trend(samples, stream: RandomStream | None = None) -> Report:
    """Relative spread of ell (IQR over median) must not grow as the radius
    shrinks, judged on paired bootstrap intervals over the shared centers."""
    rng = (stream or RandomStream(1234, (78,))).generator()
    return _trend_report("concentration-trend", samples, _rel_iqr_stat, rng)


def mean_median_trend(samples, stream: RandomStream | None = None) -> Report:
    """|mean/median - 1| must not grow as the radius shrinks (the two gauges
    coalesce), judged on paired bootstrap intervals."""
    rng = (stream or RandomStream(1234, (79,))).generator()
    return _trend_report("mean-median-trend", samples, _mean_median_gap_stat, rng)
