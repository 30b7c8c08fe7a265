"""Small-ball probability estimators.

Three routes to log mu(B(x0, eps)), each tagged on the estimate it returns:

* ``analytic``  - closed forms: Gaussian CDF for the scalar model, the
  alternating exponential series (small radius) / reflection series (large
  radius) for the centered Brownian sup-ball, and their bridge analogue.
  Deterministic numerical evaluations (truncation below 1e-15 relative)
  carry stderr 0.
* ``mc``        - plain Monte Carlo with the delta-method standard error on
  the log scale. Zero hits yield a distinguished one-sided bound at
  log(3/n) (rule of three) rather than -inf.
* ``splitting`` - multilevel splitting (subset simulation): a decreasing
  radius ladder, survivors moved by the autoregressive update
  X' = rho X + sqrt(1-rho^2) X_fresh which leaves every centered Gaussian
  model invariant, acceptance = staying inside the current level.

``cm_reweighted`` estimates a shifted ball through samples of the centered
measure reweighted by the Cameron-Martin density, useful both as a variance
reducer and as an independent cross-check of direct MC.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError, DomainError, LadderError, PowerWarning
from .models import BrownianBridge, CmShift, GaussianModel, Scalar, WienerPath, cm_log_weight
from .norms import NormSpec, eval_norm_batch
from .streams import RandomStream, keyed_map

METHODS = ("analytic", "mc", "splitting", "cm_reweighted")


@dataclass(frozen=True)
class ProbEstimate:
    """A log-probability with its uncertainty and provenance.

    ``bound=True`` marks a one-sided underflow bound (no hits seen); its
    stderr is +inf to keep bounds out of two-sided arithmetic.
    """

    log_prob: float
    stderr_log: float
    n_samples: int
    method: str
    bound: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown estimator method tag {self.method!r}")
        if self.log_prob > 1e-12:
            raise ConfigurationError(f"log probability must be <= 0, got {self.log_prob}")
        if (self.stderr_log == 0.0) != (self.method == "analytic"):
            raise ConfigurationError("stderr_log must be 0 exactly for analytic estimates")

    @property
    def phi(self) -> float:
        """The negative log mass, the quantity most curves are drawn in; a
        full ball is +0.0, never -0.0."""
        return 0.0 - self.log_prob


@dataclass(frozen=True)
class SBFCurve:
    """Negative log ball mass over a decreasing radius grid."""

    eps_grid: tuple[float, ...]
    estimates: tuple[ProbEstimate, ...]
    model_name: str = ""
    norm_name: str = ""

    def __post_init__(self):
        eps = np.asarray(self.eps_grid)
        if np.any(np.diff(eps) >= 0):
            raise ConfigurationError("eps_grid must be strictly decreasing")
        if len(self.eps_grid) != len(self.estimates):
            raise ConfigurationError("one estimate per grid radius required")

    @property
    def phi(self) -> np.ndarray:
        return np.array([e.phi for e in self.estimates])

    @property
    def stderr(self) -> np.ndarray:
        return np.array([e.stderr_log for e in self.estimates])

    def monotone_violations(self, k_sigma: float = 3.0) -> int:
        """Count adjacent pairs where phi decreases by more than noise allows."""
        phi = self.phi
        se = self.stderr
        bad = 0
        for i in range(len(phi) - 1):
            slack = k_sigma * math.hypot(se[i], se[i + 1])
            if phi[i + 1] < phi[i] - slack:
                bad += 1
        return bad


# -- analytic oracles ---------------------------------------------------------


def _log_sup_ball_centered(eps_eff: float) -> float:
    """log P(sup_{[0,1]} |W| <= eps_eff), exact up to 1e-15 relative truncation."""
    if eps_eff < 0.7:
        # alternating series in the log domain; the lead term is factored out
        lead = -math.pi**2 / (8 * eps_eff**2)
        acc = 0.0
        k = 0
        while True:
            term = ((-1) ** k / (2 * k + 1)) * math.exp(
                -((2 * k + 1) ** 2 - 1) * math.pi**2 / (8 * eps_eff**2)
            )
            acc += term
            if abs(term) < 1e-16 * abs(acc) or k > 64:
                break
            k += 1
        return math.log(4 / math.pi) + lead + math.log(acc)
    total = 0.0
    k = 0
    while True:
        if k == 0:
            term = ndtr(eps_eff) - ndtr(-eps_eff)
        else:
            up = ndtr((2 * k + 1) * eps_eff) - ndtr((2 * k - 1) * eps_eff)
            dn = ndtr((-2 * k + 1) * eps_eff) - ndtr((-2 * k - 1) * eps_eff)
            term = ((-1) ** k) * (up + dn)
        total += term
        if k > 0 and abs(term) < 1e-16 * abs(total):
            break
        k += 1
        if k > 64:
            break
    return math.log(total)


def _log_bridge_sup_ball(eps: float) -> float:
    """log P(sup_{[0,1]} |bridge| <= eps), reflection series with a dual form
    (Jacobi transform) for small radii where the alternating sum cancels."""
    if eps >= 0.5:
        total = 0.0
        for k in range(-64, 65):
            total += (-1) ** k * math.exp(-2.0 * k * k * eps * eps)
        return math.log(total)
    lead = -math.pi**2 / (8 * eps**2)
    acc = 0.0
    for j in range(65):
        term = math.exp(-(((2 * j + 1) ** 2) - 1) * math.pi**2 / (8 * eps**2))
        acc += term
        if term < 1e-17 * acc:
            break
    return 0.5 * math.log(2 * math.pi) - math.log(eps) + lead + math.log(acc)


def sbf_analytic(model: GaussianModel, norm_spec: NormSpec, eps: float) -> ProbEstimate | None:
    """Closed-form negative log ball mass, or None when (model, norm) has none.

    Supported: Scalar with any norm (all reduce to |x|); WienerPath d=1 with
    the sup norm over the full horizon; BrownianBridge with the sup norm.
    The value is the continuum one; grid curves carry discretization bias
    that callers measure by refinement.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if isinstance(model, Scalar):
        # log(2 Phi(eps/sigma) - 1), written to stay accurate for large eps
        z = eps / model.sigma
        lp = float(np.log1p(-2.0 * ndtr(-z)))
        return ProbEstimate(min(lp, 0.0), 0.0, 0, "analytic")
    if (
        isinstance(model, WienerPath)
        and model.d == 1
        and norm_spec.kind == "sup"
        and (norm_spec.interval == (0.0, model.horizon))
    ):
        return ProbEstimate(
            _log_sup_ball_centered(eps / math.sqrt(model.horizon)), 0.0, 0, "analytic"
        )
    if (
        isinstance(model, BrownianBridge)
        and norm_spec.kind == "sup"
        and norm_spec.interval == (0.0, 1.0)
    ):
        return ProbEstimate(_log_bridge_sup_ball(eps), 0.0, 0, "analytic")
    return None


# -- plain Monte Carlo --------------------------------------------------------


def _center_array(model: GaussianModel, center) -> np.ndarray | float:
    if center is None:
        return 0.0
    c = np.asarray(center, dtype=float)
    return c


def ball_prob_mc(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps: float,
    n_samples: int,
    stream: RandomStream,
    center=None,
    batch: int = 200_000,
) -> ProbEstimate:
    """Plain MC estimate of log mu(B(center, eps))."""
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    rng = stream.generator()
    c = _center_array(model, center)
    hits = 0
    done = 0
    while done < n_samples:
        k = min(batch, n_samples - done)
        x = model.sample_values(rng, k)
        d = eval_norm_batch(x - c, model.dt, norm_spec)
        hits += int((d <= eps).sum())
        done += k
    if hits == 0:
        return ProbEstimate(math.log(3.0 / n_samples), math.inf, n_samples, "mc", bound=True)
    p = hits / n_samples
    se = math.sqrt((1.0 - p) / (n_samples * p))
    if hits == n_samples:
        # the plug-in error is 0 here, which only analytic estimates may
        # report; take the error at one miss instead, 1/sqrt(n(n-1))
        se = 1.0 / math.sqrt(n_samples * max(n_samples - 1, 1))
    if hits < 30:
        warnings.warn(
            f"only {hits} hits at eps={eps:g}; log-scale error bars are unreliable",
            PowerWarning,
            stacklevel=2,
        )
    return ProbEstimate(math.log(p), se, n_samples, "mc")


def shifted_ball_prob_cm(
    model: GaussianModel,
    norm_spec: NormSpec,
    center,
    eps: float,
    n_samples: int,
    stream: RandomStream,
) -> ProbEstimate:
    """mu(B(h, eps)) via centered samples and the Cameron-Martin reweighting.

    mu(B(h, eps)) = E[ 1{||X|| <= eps} w(X) ] with log w = z_{-h}(X) - |h|^2/2.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    rng = stream.generator()
    h = np.asarray(center.values if isinstance(center, CmShift) else center, dtype=float)
    x = model.sample_values(rng, n_samples)
    d = eval_norm_batch(x, model.dt, norm_spec)
    lw = cm_log_weight(model, -h, x)
    w = np.where(d <= eps, np.exp(lw), 0.0)
    m = float(w.mean())
    if m == 0.0:
        return ProbEstimate(math.log(3.0 / n_samples), math.inf, n_samples, "cm_reweighted", bound=True)
    se = float(w.std(ddof=1) / math.sqrt(n_samples)) / m
    return ProbEstimate(min(math.log(m), 0.0), se, n_samples, "cm_reweighted")


# -- multilevel splitting -----------------------------------------------------


@dataclass(frozen=True)
class SplittingDiagnostics:
    levels: tuple[float, ...]
    cond_fractions: tuple[float, ...]
    acceptance_rates: tuple[float, ...]


@dataclass
class _SplitState:
    cum_log: np.ndarray  # (B,) cumulative log prob per center
    var_log: np.ndarray  # (B,) accumulated delta-method variance
    dead: np.ndarray  # (B,) centers whose ensemble died (bound from there on)


def make_ladder(
    pilot,
    eps_start: float,
    anchors: tuple[float, ...],
    delta_phi: float = 1.1,
) -> list[float]:
    """Decreasing radius ladder from eps_start through every anchor.

    Spacing is uniform in the pilot's negative-log-mass scale with step
    ~delta_phi (conditional fractions near exp(-delta_phi)); anchor radii are
    kept as exact ladder members. The pilot only shapes the ladder; it does
    not enter any estimate.
    """
    anchors = tuple(sorted({float(a) for a in anchors}, reverse=True))
    if not anchors:
        raise ConfigurationError("at least one anchor radius required")
    if eps_start <= anchors[0]:
        raise ConfigurationError("eps_start must exceed the largest anchor")
    levels = [float(eps_start)]
    cur = float(eps_start)
    for a in anchors:
        span = pilot(a) - pilot(cur)
        if span < 0:
            raise ConfigurationError("pilot curve must increase as the radius shrinks")
        k = max(1, int(math.ceil(span / delta_phi)))
        targets = np.linspace(pilot(cur), pilot(a), k + 1)[1:]
        for t in targets[:-1]:
            lo, hi = a, cur
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if pilot(mid) > t:
                    lo = mid
                else:
                    hi = mid
            levels.append(0.5 * (lo + hi))
        levels.append(a)
        cur = a
    return levels


def _mc_start_fraction_warning(frac: float, eps0: float) -> None:
    if frac < 0.2:
        warnings.warn(
            f"ladder entry fraction {frac:.3f} < 0.2 at eps={eps0:g}; "
            "consider a larger starting radius",
            PowerWarning,
            stacklevel=3,
        )


def _splitting_pass(
    model: GaussianModel,
    norm_spec: NormSpec,
    centers: np.ndarray | float,
    levels: list[float],
    n_per_level: int,
    rng: np.random.Generator,
    rho: float,
    n_moves: int,
    batch_shape: tuple[int, ...],
    record_at: dict[float, int],
    strict: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SplittingDiagnostics]:
    """One replica of the laddered estimate, shared across a batch of centers.

    centers: the scalar 0 (centered), or one center per batch row, (B, ...)
    against sample batches of shape (B, N, ...).
    Returns (recorded log-probs (B, n_anchors), variances, dead mask, diag).

    The replica allocates its arrays once: every move draws into the same
    fresh-path buffer, builds the proposal rho X + s F in place and copies
    the accepted rows back. Each value is rounded as with fresh arrays, so
    the results do not depend on the buffering.
    """
    B = batch_shape[0]
    N = n_per_level
    s = math.sqrt(1.0 - rho * rho)

    # level 0: plain MC entry
    X0 = model.sample_values(rng, B * N)
    flat_shape = X0.shape
    X = X0.reshape((B, N) + flat_shape[1:])
    F = np.empty_like(X)  # fresh draws, then s F
    P = np.empty_like(X)  # proposals
    mask_shape = (B, N) + (1,) * (X.ndim - 2)  # an accept mask broadcast over nodes
    if isinstance(model, WienerPath):
        # the increments borrow the proposal buffer, free until P is built
        inc_shape = (B * N, model.n_steps) + flat_shape[2:]
        inc = P.reshape(-1)[: math.prod(inc_shape)].reshape(inc_shape)

        def draw_fresh() -> None:
            model.sample_values(rng, B * N, out=F.reshape(flat_shape), scratch=inc)
    else:
        def draw_fresh() -> None:
            F.reshape(flat_shape)[...] = model.sample_values(rng, B * N)

    if np.ndim(centers) == 0 and centers == 0:
        def distances(Y: np.ndarray) -> np.ndarray:
            return eval_norm_batch(Y.reshape(flat_shape), model.dt, norm_spec).reshape(B, N)
    else:
        offset = np.empty_like(X)
        c = np.asarray(centers)
        c = c.reshape((B, 1) + c.shape[1:]) if c.ndim > 0 else c

        def distances(Y: np.ndarray) -> np.ndarray:
            np.subtract(Y, c, out=offset)
            return eval_norm_batch(offset.reshape(flat_shape), model.dt, norm_spec).reshape(B, N)

    d = distances(X)
    n_anchors = len(record_at)
    rec_log = np.full((B, n_anchors), np.nan)
    rec_var = np.full((B, n_anchors), np.nan)
    cum = np.zeros(B)
    var = np.zeros(B)
    dead = np.zeros(B, dtype=bool)
    fracs: list[float] = []
    accs: list[float] = [1.0]

    def note(level_idx: int) -> None:
        # a dead center's cum already holds its rule-of-three bound
        j = record_at.get(levels[level_idx])
        if j is not None:
            rec_log[:, j] = cum
            rec_var[:, j] = var

    inside = d <= levels[0]
    p0 = inside.mean(axis=1)
    _mc_start_fraction_warning(float(p0.min(initial=1.0)), levels[0])
    died = p0 == 0
    if died.any() and strict:
        raise LadderError(0, levels[0])
    safe_p0 = np.where(died, 1.0, p0)
    cum += np.where(died, math.log(3.0 / N), np.log(safe_p0))
    var += np.where(died, np.inf, (1.0 - safe_p0) / (N * safe_p0))
    dead |= died
    fracs.append(float(p0.mean()))
    note(0)

    for k in range(1, len(levels)):
        hi, lo = levels[k - 1], levels[k]
        # resample survivors within each center's ensemble
        surv = d <= hi
        for b in np.flatnonzero(~dead):
            idx = np.flatnonzero(surv[b])
            take = idx[rng.integers(0, len(idx), N)]
            # mode="clip" (the indices are in range) writes to out unbuffered
            X[b] = np.take(X[b], take, axis=0, out=P[b], mode="clip")
            d[b] = d[b][take]
        acc_count = 0
        alive = ~dead
        for _ in range(n_moves):
            draw_fresh()
            np.multiply(X, rho, out=P)
            F *= s
            P += F
            dp = distances(P)
            ok = (dp <= hi) & alive[:, None]
            np.copyto(X, P, where=ok.reshape(mask_shape))
            d[ok] = dp[ok]
            acc_count += int(ok.sum())
        denom = max(1, int(alive.sum()) * N * n_moves)
        accs.append(acc_count / denom)
        p = (d <= lo).mean(axis=1)
        died = (p == 0) & alive
        if died.any() and strict:
            raise LadderError(k, lo)
        live = alive & ~died
        cum = np.where(live, cum + np.log(np.where(p == 0, 1.0, p)), cum)
        var = np.where(live, var + (1.0 - np.where(p == 0, 1.0, p)) / (N * np.where(p == 0, 1.0, p)), var)
        # a dying center keeps its last estimate plus the rule-of-three bound
        cum = np.where(died, cum + math.log(3.0 / N), cum)
        var = np.where(died, np.inf, var)
        dead |= died
        fracs.append(float(p[alive].mean()) if alive.any() else 0.0)
        note(k)

    diag = SplittingDiagnostics(tuple(levels), tuple(fracs), tuple(accs))
    return rec_log, rec_var, dead, diag


def ball_prob_splitting(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps: float,
    levels: list[float],
    n_per_level: int,
    stream: RandomStream,
    center=None,
    rho: float = 0.95,
    n_moves: int = 10,
    n_replicas: int = 2,
) -> tuple[ProbEstimate, SplittingDiagnostics]:
    """Multilevel splitting estimate of log mu(B(center, eps)).

    ``levels`` is the decreasing ladder; eps must be its final entry (a
    one-level ladder degenerates to plain MC). Replicas run on sibling
    streams, in parallel through ``keyed_map``; the reported stderr is the larger of the accumulated
    delta-method error and the between-replica spread.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if not levels or abs(levels[-1] - eps) > 1e-12:
        raise ConfigurationError("levels must end exactly at eps")
    if any(levels[i + 1] >= levels[i] for i in range(len(levels) - 1)):
        raise ConfigurationError("levels must be strictly decreasing")
    if not (0.0 < rho < 1.0):
        raise ConfigurationError("rho must be in (0, 1)")
    if n_replicas < 1:
        raise ConfigurationError("n_replicas must be >= 1")
    c = _center_array(model, center)
    cb = np.asarray(c)[None, ...] if np.ndim(c) > 0 else c
    record = {levels[-1]: 0}
    passes = keyed_map(lambda r: _splitting_pass(
        model, norm_spec, cb, list(levels), n_per_level, stream.spawn(r).generator(), rho,
        n_moves, (1, n_per_level), record, strict=True,
    ), range(n_replicas))
    logs = [rec_log[0, 0] for rec_log, _, _, _ in passes]
    vars_ = [rec_var[0, 0] for _, rec_var, _, _ in passes]
    diag = passes[-1][3]
    log_mean = float(np.mean(logs))
    se_formula = math.sqrt(float(np.mean(vars_)) / n_replicas)
    if n_replicas >= 2:
        se_emp = float(np.std(logs, ddof=1) / math.sqrt(n_replicas))
        se = max(se_formula, se_emp)
    else:
        se = se_formula
    n_total = n_replicas * n_per_level * len(levels)
    return ProbEstimate(min(log_mean, 0.0), se, n_total, "splitting"), diag


def sbf_curve(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps_grid: tuple[float, ...],
    stream: RandomStream,
    n_per_level: int = 512,
    eps_start: float | None = None,
    pilot=None,
    delta_phi: float = 1.1,
    rho: float = 0.95,
    n_moves: int = 10,
    n_replicas: int = 3,
) -> tuple[SBFCurve, SplittingDiagnostics]:
    """Centered small-ball curve over a decreasing grid via one shared ladder.

    Grid radii are anchors of the ladder, so a single descent records the
    whole curve per replica (estimates across radii share randomness).
    Replicas run on sibling streams, in parallel through ``keyed_map``.
    """
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(eps_grid[i + 1] >= eps_grid[i] for i in range(len(eps_grid) - 1)):
        raise ConfigurationError("eps_grid must be strictly decreasing")
    if pilot is None:
        pilot = pilot_curve(model, norm_spec, stream.spawn(10_001))
    if eps_start is None:
        eps_start = _default_start(pilot, eps_grid[0])
    levels = make_ladder(pilot, eps_start, eps_grid, delta_phi)
    record = {e: j for j, e in enumerate(eps_grid)}
    passes = keyed_map(lambda r: _splitting_pass(
        model, norm_spec, 0.0, levels, n_per_level, stream.spawn(r).generator(), rho,
        n_moves, (1, n_per_level), record, strict=True,
    ), range(n_replicas))
    logs = np.array([rec_log[0] for rec_log, _, _, _ in passes])
    vars_ = np.array([rec_var[0] for _, rec_var, _, _ in passes])
    diag = passes[-1][3]
    ests = []
    for j, e in enumerate(eps_grid):
        m = float(logs[:, j].mean())
        se_f = math.sqrt(float(vars_[:, j].mean()) / n_replicas)
        se_e = float(logs[:, j].std(ddof=1) / math.sqrt(n_replicas)) if n_replicas >= 2 else 0.0
        n_tot = n_replicas * n_per_level * len(levels)
        ests.append(ProbEstimate(min(m, 0.0), max(se_f, se_e), n_tot, "splitting"))
    curve = SBFCurve(eps_grid, tuple(ests), model.name, norm_spec.describe())
    return curve, diag


def pilot_curve(model: GaussianModel, norm_spec: NormSpec, stream: RandomStream):
    """A cheap monotone pilot phi-like(eps) used only for ladder spacing."""
    exact = sbf_analytic(model, norm_spec, 1.0)
    if exact is not None:
        return lambda e: -sbf_analytic(model, norm_spec, e).log_prob
    # quadratic-in-1/eps fit through two crude MC points
    rng = stream.generator()
    x = model.sample_values(rng, 4096)
    d = eval_norm_batch(x, model.dt, norm_spec)
    q50, q05 = np.quantile(d, [0.5, 0.05])
    # phi(q50) ~ log 2, phi(q05) ~ log 20; interpolate c/eps^2 + b
    A = np.array([[1.0 / q50**2, 1.0], [1.0 / q05**2, 1.0]])
    coef = np.linalg.solve(A, np.array([math.log(2.0), math.log(20.0)]))
    c, b = float(coef[0]), float(coef[1])
    c = max(c, 1e-6)
    return lambda e: c / e**2 + b


def _default_start(pilot, eps_top: float) -> float:
    e = max(2.0 * eps_top, 1.0)
    for _ in range(60):
        if pilot(e) <= 0.7:
            return e
        e *= 1.3
    return e


# -- grid-bias extrapolation --------------------------------------------------


@dataclass(frozen=True)
class RichardsonFit:
    value: float
    stderr: float
    coef: float
    rate: float
    residual: float


def richardson_extrapolate(
    values: np.ndarray, stderrs: np.ndarray, ns: np.ndarray, rate: float = 0.5
) -> RichardsonFit:
    """Weighted LS fit of y(n) = y_inf - c n^{-rate}; returns y_inf with its
    propagated standard error. Used to strip the sup-norm grid bias, whose
    leading order is n^{-1/2} (discrete monitoring misses excursions of size
    ~ sqrt(dt))."""
    values = np.asarray(values, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    ns = np.asarray(ns, dtype=float)
    if len(values) < 2:
        raise ConfigurationError("need at least two grid resolutions")
    w = 1.0 / np.maximum(stderrs, 1e-12) ** 2
    A = np.stack([np.ones_like(ns), -(ns**-rate)], axis=1)
    WA = A * w[:, None]
    cov = np.linalg.inv(A.T @ WA)
    coef = cov @ (WA.T @ values)
    fitted = A @ coef
    resid = float(np.sqrt(np.mean((values - fitted) ** 2)))
    return RichardsonFit(
        value=float(coef[0]),
        stderr=float(math.sqrt(cov[0, 0])),
        coef=float(coef[1]),
        rate=rate,
        residual=resid,
    )
