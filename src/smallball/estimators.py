"""Small-ball probability estimators and the table of routes that price a ball.

Four routes to log mu(B(x0, eps)), each tagged on the estimate it returns:

* ``analytic``  - closed forms: Gaussian CDF for the scalar model, the
  alternating exponential series (small radius) / reflection series (large
  radius) for the centered Brownian sup-ball, and their bridge analogue.
  Deterministic numerical evaluations (truncation below 1e-15 relative)
  carry stderr 0.
* ``transfer``  - the deterministic band sweep of ``transfer.py``; its
  estimates carry the ``analytic`` tag with stderr 0.
* ``mc``        - plain Monte Carlo with the delta-method standard error on
  the log scale. Zero hits yield a distinguished one-sided bound at
  log(3/n) (rule of three) rather than -inf.
* ``splitting`` - multilevel splitting (subset simulation): a decreasing
  radius ladder, survivors moved by the autoregressive update
  X' = rho X + sqrt(1-rho^2) X_fresh which leaves every centered Gaussian
  model invariant, acceptance = staying inside the current level.

``ROUTE_TABLE`` says which routes price the balls of a (model, norm) pair.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import ConfigurationError, DomainError, LadderError, PowerWarning
from .models import BrownianBridge, GaussianModel, Scalar, WienerPath
from .norms import NormSpec, eval_norm_batch
from .streams import RandomStream, keyed_map
from .transfer import CELLS_PER_STEP_SD, band_log_prob, band_log_probs, transfer_applies

METHODS = ("analytic", "mc", "splitting")
ROUTES = ("analytic", "transfer", "mc", "splitting")
MC_BLOCK_BYTES = 2**24  # float64 draws held at once by plain Monte Carlo
RHO = 0.95  # pCN correlation of a splitting move
N_MOVES = 10  # pCN moves per level of a centered or single-ball ladder
DELTA_PHI = 1.1  # ladder step in the pilot's negative-log-mass scale
GRID_BIAS_RATE = 0.5  # leading order of the sup-norm grid bias, n^-1/2


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


# -- which route prices which ball ------------------------------------------------


@dataclass(frozen=True)
class Routes:
    """The routes that price balls of one (model, norm) pair.

    centered / shifted: the routes that price a ball around 0 / around a
    draw of the model. exact: the deterministic route whose value is the
    mass under the discrete measure the panels are drawn from, the one the
    gauge bounds and verifiers read. auto: the route "auto" picks for each
    of COMMANDS; None where quantize has no exact depth to invert.
    """

    centered: tuple[str, ...]
    shifted: tuple[str, ...]
    exact: tuple[str, ...]
    auto: tuple[str | None, ...]


COMMANDS = ("sbf", "rsbf", "verify-all", "quantize")
_SAMPLED = ("mc", "splitting")
ROUTE_TABLE = {
    # the closed form is the scalar law itself; the panel counts hits
    # although an exact random-center law exists
    "scalar": Routes(("analytic",) + _SAMPLED, _SAMPLED, ("analytic",),
                     ("analytic", "mc", "analytic", "splitting")),
    # a 1-d Brownian path under the sup norm over its whole horizon; the
    # closed form is the continuum value, the band sweep the grid's own
    "wiener-sup": Routes(ROUTES, ("transfer",) + _SAMPLED, ("transfer",),
                         ("transfer", "transfer", "transfer", "transfer")),
    # the continuum closed form is not the panel's discrete measure, so
    # verify-all prices its centered curve by splitting
    "bridge-sup": Routes(("analytic",) + _SAMPLED, _SAMPLED, (),
                         ("analytic", "splitting", "splitting", None)),
    "other": Routes(_SAMPLED, _SAMPLED, (), ("splitting", "splitting", "splitting", None)),
}


def pair_family(model: GaussianModel, norm_spec: NormSpec) -> str:
    """The ROUTE_TABLE row of a (model, norm) pair."""
    if isinstance(model, Scalar):
        return "scalar"
    if transfer_applies(model, norm_spec):
        return "wiener-sup"
    if (isinstance(model, BrownianBridge) and norm_spec.kind == "sup"
            and norm_spec.interval == (0.0, 1.0)):
        return "bridge-sup"
    return "other"


def route_table(model: GaussianModel, norm_spec: NormSpec) -> Routes:
    return ROUTE_TABLE[pair_family(model, norm_spec)]


def require_route(model: GaussianModel, norm_spec: NormSpec, route: str,
                  ball: str = "centered") -> None:
    """Raise ConfigurationError unless the table lists ``route`` in the
    ``ball`` column ("centered", "shifted" or "exact") of this pair."""
    allowed = getattr(route_table(model, norm_spec), ball)
    if route not in allowed:
        raise ConfigurationError(
            f"no {route} route for {ball} balls of {model.name} under "
            f"{norm_spec.describe()}; supported: {', '.join(allowed) or 'none'}")


def pick_routes(model: GaussianModel, norm_spec: NormSpec, command: str,
                requested: str = "auto") -> tuple[str | None, str | None]:
    """The (centered curve, center panel) routes of one command, None for a
    ball it does not price.

    "auto" reads the table. A requested route prices every ball the command
    prices, except that a panel asked for ``analytic`` counts hits (mc): no
    random-center closed form is wired in.
    """
    route = requested if requested != "auto" else \
        route_table(model, norm_spec).auto[COMMANDS.index(command)]
    curve = route if command in ("sbf", "verify-all") else None
    panel = ("mc" if route == "analytic" else route) if command != "sbf" and route else None
    if curve:
        require_route(model, norm_spec, curve, "centered")
    if panel:
        require_route(model, norm_spec, panel, "shifted")
    return curve, panel


def _scalar_ell_exact(x: np.ndarray, eps: float) -> np.ndarray:
    # -log(Phi(x+eps) - Phi(x-eps)); the mass is even in x, and reflecting to
    # x <= 0 keeps both logcdf calls in the accurate left tail at any depth
    y = -np.abs(np.asarray(x, dtype=float))
    a = log_ndtr(y + eps)
    b = log_ndtr(y - eps)
    return -(a + np.log1p(-np.exp(b - a)))


def log_mass(model: GaussianModel, norm_spec: NormSpec, centers, eps):
    """log mu(B(c, eps)) under the discrete measure, by the pair's exact route.

    ``centers`` is one center (``model.value_shape``) or a batch of them,
    and ``eps`` one radius or one per center. The scalar law is in closed
    form; a 1-d Brownian sup ball is a band sweep started at 0, one row per
    center in one sweep. One center gives a float.
    """
    exact = route_table(model, norm_spec).exact
    require_route(model, norm_spec, exact[0] if exact else "deterministic", "exact")
    c = np.asarray(centers, dtype=float)
    e = np.asarray(eps, dtype=float)
    if exact == ("analytic",):
        lm = -_scalar_ell_exact(c, e)
        return float(lm) if lm.ndim == 0 else lm
    e = e[:, None] if e.ndim else e
    if c.ndim == 1:
        return band_log_prob(c - e, c + e, model.dt)
    return band_log_probs(c - e, c + e, model.dt)


def centered_depth(model: GaussianModel, norm_spec: NormSpec):
    """eps -> -log mu(B(0, eps)) under the panel's discrete measure, or None
    when the pair has no exact route. The scalar depth is sbf_analytic's
    form, which can differ from the shifted law at 0 in the last bit."""
    exact = route_table(model, norm_spec).exact
    if exact == ("analytic",):
        return lambda e: sbf_analytic(model, norm_spec, e).phi
    if exact:
        origin = np.zeros(model.value_shape)
        return lambda e: -log_mass(model, norm_spec, origin, e)
    return None


def depth_floor(model: GaussianModel, norm_spec: NormSpec) -> float:
    """A radius just above the smallest at which centered_depth is finite: a
    swept band under a quarter grid cell (dx = sqrt(dt)/8) holds one cell,
    which misses the start 0. Closed forms are finite at any radius."""
    if route_table(model, norm_spec).exact == ("transfer",):
        return 0.25 * (1.0 + 2.0**-20) * math.sqrt(model.dt) / CELLS_PER_STEP_SD
    return 1e-8


def centered_curve(model: GaussianModel, norm_spec: NormSpec, eps_grid: tuple[float, ...],
                   route: str, stream: RandomStream, n_samples: int) -> SBFCurve:
    """The centered curve on a decreasing grid by one route of the table:
    ``analytic`` is the closed form of the model as stated (the continuum
    limit for path models), ``transfer`` the discrete path measure itself in
    one sweep, and ``mc`` draws radius j from ``stream.spawn(j)``."""
    require_route(model, norm_spec, route, "centered")
    if route == "splitting":
        return sbf_curve(model, norm_spec, eps_grid, stream)[0]
    if route == "analytic":
        ests = [sbf_analytic(model, norm_spec, e) for e in eps_grid]
    elif route == "transfer":
        origins = np.zeros((len(eps_grid),) + model.value_shape)
        ests = [ProbEstimate(min(float(lp), 0.0), 0.0, 0, "analytic")
                for lp in log_mass(model, norm_spec, origins, eps_grid)]
    else:
        ests = [ball_prob_mc(model, norm_spec, e, n_samples, stream.spawn(j))
                for j, e in enumerate(eps_grid)]
    return SBFCurve(tuple(eps_grid), tuple(ests), model.name, norm_spec.describe())


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
    family = pair_family(model, norm_spec)
    if family == "scalar":
        # log(2 Phi(eps/sigma) - 1), written to stay accurate for large eps
        z = eps / model.sigma
        lp = float(np.log1p(-2.0 * ndtr(-z)))
        return ProbEstimate(min(lp, 0.0), 0.0, 0, "analytic")
    if family == "wiener-sup":
        return ProbEstimate(
            _log_sup_ball_centered(eps / math.sqrt(model.horizon)), 0.0, 0, "analytic"
        )
    if family == "bridge-sup":
        return ProbEstimate(_log_bridge_sup_ball(eps), 0.0, 0, "analytic")
    return None


# -- plain Monte Carlo --------------------------------------------------------


def ball_prob_mc(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps: float,
    n_samples: int,
    stream: RandomStream,
    center=None,
) -> ProbEstimate:
    """Plain MC estimate of log mu(B(center, eps)).

    Draws come in blocks of about MC_BLOCK_BYTES of float64 values; the
    stream is read in row order, so the hit count does not depend on the
    block size."""
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    rng = stream.generator()
    c = 0.0 if center is None else np.asarray(center, dtype=float)
    block = max(1, MC_BLOCK_BYTES // (8 * math.prod(model.value_shape)))
    hits = 0
    done = 0
    while done < n_samples:
        k = min(block, n_samples - done)
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


# -- multilevel splitting -----------------------------------------------------


@dataclass(frozen=True)
class SplittingDiagnostics:
    levels: tuple[float, ...]
    cond_fractions: tuple[float, ...]
    acceptance_rates: tuple[float, ...]


def make_ladder(
    pilot,
    eps_start: float,
    anchors: tuple[float, ...],
    delta_phi: float = DELTA_PHI,
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


def _splitting_pass(
    model: GaussianModel,
    norm_spec: NormSpec,
    centers: np.ndarray | float,
    levels: list[float],
    n_per_level: int,
    rng: np.random.Generator,
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
    fresh-path buffer, builds the proposal RHO X + s F in place and copies
    the accepted rows back. Each value is rounded as with fresh arrays, so
    the results do not depend on the buffering.
    """
    B = batch_shape[0]
    N = n_per_level
    s = math.sqrt(1.0 - RHO * RHO)

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
    frac = float(p0.min(initial=1.0))
    if frac < 0.2:
        warnings.warn(f"ladder entry fraction {frac:.3f} < 0.2 at eps={levels[0]:g}; "
                      "consider a larger starting radius", PowerWarning, stacklevel=2)
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
            np.multiply(X, RHO, out=P)
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


def _replica_estimates(
    model: GaussianModel,
    norm_spec: NormSpec,
    centers: np.ndarray | float,
    levels: list[float],
    eps_grid: tuple[float, ...],
    n_per_level: int,
    stream: RandomStream,
    keys: range,
    n_moves: int,
    strict: bool,
) -> tuple[list[list[ProbEstimate]], SplittingDiagnostics]:
    """Run one ``_splitting_pass`` per key r on ``stream.spawn(r)``, on the
    pool, and fold the replicas into (estimates[center][radius], last
    replica's diagnostics): the replica mean with the larger of the
    delta-method error and the replica spread, or, for a center that died
    in any replica, a bound at its smallest replica value."""
    n_centers = 1 if np.ndim(centers) == 0 else len(centers)
    record = {e: j for j, e in enumerate(eps_grid)}
    passes = keyed_map(lambda r: _splitting_pass(
        model, norm_spec, centers, levels, n_per_level, stream.spawn(r).generator(), n_moves,
        (n_centers, n_per_level), record, strict,
    ), keys)
    logs = np.array([rec_log for rec_log, _, _, _ in passes])
    vars_ = np.array([rec_var for _, rec_var, _, _ in passes])
    any_dead = np.any([dead for _, _, dead, _ in passes], axis=0)
    n_rep = len(keys)
    n_tot = n_rep * n_per_level * len(levels)

    def estimate(i: int, j: int) -> ProbEstimate:
        vals = logs[:, i, j]
        if any_dead[i]:
            return ProbEstimate(min(float(vals.min()), 0.0), math.inf, n_tot, "splitting",
                                bound=True)
        se_f = math.sqrt(float(vars_[:, i, j].mean()) / n_rep)
        se_e = float(vals.std(ddof=1) / math.sqrt(n_rep)) if n_rep >= 2 else 0.0
        return ProbEstimate(min(float(vals.mean()), 0.0), max(se_f, se_e), n_tot, "splitting")

    ests = [[estimate(i, j) for j in range(len(eps_grid))] for i in range(n_centers)]
    return ests, passes[-1][3]


def ball_prob_splitting(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps: float,
    levels: list[float],
    n_per_level: int,
    stream: RandomStream,
    center=None,
    n_replicas: int = 2,
) -> tuple[ProbEstimate, SplittingDiagnostics]:
    """Multilevel splitting estimate of log mu(B(center, eps)).

    ``levels`` is the decreasing ladder; eps must be its final entry (a
    one-level ladder degenerates to plain MC). Replicas run on sibling
    streams, in parallel through ``keyed_map``.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if not levels or abs(levels[-1] - eps) > 1e-12:
        raise ConfigurationError("levels must end exactly at eps")
    if any(levels[i + 1] >= levels[i] for i in range(len(levels) - 1)):
        raise ConfigurationError("levels must be strictly decreasing")
    if n_replicas < 1:
        raise ConfigurationError("n_replicas must be >= 1")
    c = 0.0 if center is None else np.asarray(center, dtype=float)
    cb = c[None, ...] if np.ndim(c) > 0 else c
    ests, diag = _replica_estimates(model, norm_spec, cb, list(levels), (levels[-1],),
                                    n_per_level, stream, range(n_replicas), N_MOVES,
                                    strict=True)
    return ests[0][0], diag


def sbf_curve(
    model: GaussianModel,
    norm_spec: NormSpec,
    eps_grid: tuple[float, ...],
    stream: RandomStream,
    n_per_level: int = 512,
    n_replicas: int = 3,
) -> tuple[SBFCurve, SplittingDiagnostics]:
    """Centered small-ball curve over a decreasing grid via one shared ladder.

    Grid radii are anchors of the ladder, so a single descent records the
    whole curve per replica (estimates across radii share randomness). The
    ladder starts where the pilot curve is shallow and steps DELTA_PHI.
    """
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(eps_grid[i + 1] >= eps_grid[i] for i in range(len(eps_grid) - 1)):
        raise ConfigurationError("eps_grid must be strictly decreasing")
    pilot = pilot_curve(model, norm_spec, stream.spawn(10_001))
    levels = make_ladder(pilot, _default_start(pilot, eps_grid[0]), eps_grid)
    ests, diag = _replica_estimates(model, norm_spec, 0.0, levels, eps_grid, n_per_level,
                                    stream, range(n_replicas), N_MOVES, strict=True)
    return SBFCurve(eps_grid, tuple(ests[0]), model.name, norm_spec.describe()), diag


def pilot_curve(model: GaussianModel, norm_spec: NormSpec, stream: RandomStream):
    """A cheap monotone pilot phi-like(eps) used only for ladder spacing."""
    if "analytic" in route_table(model, norm_spec).centered:
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
    residual: float


def richardson_extrapolate(
    values: np.ndarray, stderrs: np.ndarray, ns: np.ndarray
) -> RichardsonFit:
    """Weighted LS fit of y(n) = y_inf - c n^{-GRID_BIAS_RATE}; returns y_inf
    with its propagated standard error. Used to strip the sup-norm grid
    bias, whose leading order is n^{-1/2} (discrete monitoring misses
    excursions of size ~ sqrt(dt))."""
    values = np.asarray(values, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    ns = np.asarray(ns, dtype=float)
    if len(values) < 2:
        raise ConfigurationError("need at least two grid resolutions")
    w = 1.0 / np.maximum(stderrs, 1e-12) ** 2
    A = np.stack([np.ones_like(ns), -(ns**-GRID_BIAS_RATE)], axis=1)
    WA = A * w[:, None]
    cov = np.linalg.inv(A.T @ WA)
    coef = cov @ (WA.T @ values)
    fitted = A @ coef
    resid = float(np.sqrt(np.mean((values - fitted) ** 2)))
    return RichardsonFit(
        value=float(coef[0]),
        stderr=float(math.sqrt(cov[0, 0])),
        coef=float(coef[1]),
        residual=resid,
    )
