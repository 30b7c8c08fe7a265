"""Reference values for the benchmark's output checks, computed apart from smallball.

Nothing here imports the package under test. Each function is a closed form,
a series, or a plain numpy Monte Carlo on its own generator, so a check that
compares program output with these values cannot pass because both sides
share a code path.

* ``log_sup_ball`` - log P(sup_[0,T] |W| <= a) for Brownian motion from 0,
  by the theta series (small a/sqrt(T)) or the reflection series (large).
* ``discrete_sup_cost`` - the same ball monitored on a grid of step dt,
  through the Broadie-Glasserman-Kou continuity correction: the discrete
  ball of radius eps costs about as much as the continuous one of radius
  eps + beta*sqrt(dt), beta = -zeta(1/2)/sqrt(2*pi).
* ``trapezoid_l2_costs`` - -log P(||W||_L2 <= eps) on the trapezoid rule by
  seeded Monte Carlo, with its delta-method standard error.
* ``trapezoid_l2_cost_saddlepoint`` - the same cost at any depth: the squared
  trapezoid norm of the grid walk is sum_k lambda_k Z_k^2 with lambda the
  eigenvalues of D^(1/2) C D^(1/2) (C the walk covariance, D the trapezoid
  weights), and its lower tail follows from the Lugannani-Rice saddlepoint
  formula, whose relative error in the probability is O(1/w^2).
* ``moment_bound`` - the deterministic gauge moment cap from a centered cost.
* ``KAPPA0`` - the centered sup-ball constant pi^2/8.
"""
from __future__ import annotations

import math

import numpy as np

ZETA_HALF = -1.4603545088095868128894991525152980125
BGK_BETA = -ZETA_HALF / math.sqrt(2.0 * math.pi)  # 0.5825971579...
KAPPA0 = math.pi**2 / 8.0

# a/sqrt(T) at which log_sup_ball switches from the theta to the reflection form
SERIES_SWITCH = 0.9


def _log_theta_small(x: float) -> float:
    """log of (4/pi) sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 / (8 x^2))."""
    c = math.pi**2 / (8.0 * x * x)
    acc = 0.0
    for k in range(200):
        term = (-1) ** k / (2 * k + 1) * math.exp(-((2 * k + 1) ** 2 - 1) * c)
        acc += term
        if abs(term) < 1e-18 * abs(acc):
            break
    return math.log(4.0 / math.pi) - c + math.log(acc)


def _log_theta_large(x: float) -> float:
    """log of sum_{k in Z} (-1)^k [Phi((2k+1)x) - Phi((2k-1)x)]."""
    r2 = math.sqrt(2.0)
    total = math.erf(x / r2)  # k = 0
    for k in range(1, 200):
        # k and -k contribute equally: Phi((2k+1)x) - Phi((2k-1)x), twice
        diff = math.erfc((2 * k - 1) * x / r2) - math.erfc((2 * k + 1) * x / r2)
        total += (-1) ** k * diff
        if diff < 1e-18 * total:
            break
    return math.log(total)


def log_sup_ball(a: float, horizon: float = 1.0, form: str = "auto") -> float:
    """log P(sup_[0,horizon] |W| <= a) for Brownian motion started at 0."""
    if a <= 0 or horizon <= 0:
        raise ValueError("radius and horizon must be positive")
    x = a / math.sqrt(horizon)
    if form == "small" or (form == "auto" and x < SERIES_SWITCH):
        return _log_theta_small(x)
    if form in ("large", "auto"):
        return _log_theta_large(x)
    raise ValueError(f"unknown series form {form!r}")


def discrete_sup_cost(eps: float, dt: float, horizon: float = 1.0) -> float:
    """-log P(max_i |W(i dt)| <= eps, i dt <= horizon), continuity corrected."""
    return -log_sup_ball(eps + BGK_BETA * math.sqrt(dt), horizon)


def normal_abs_moment_norm(q: float) -> float:
    """(E|Z|^q)^(1/q) for a standard normal Z."""
    log_m = (q / 2) * math.log(2.0) + math.lgamma((q + 1) / 2) - 0.5 * math.log(math.pi)
    return math.exp(log_m / q)


def moment_bound(phi_half: float, p: int) -> float:
    """Cap on the panel L^p norm of ell at eps from the centered cost at eps/2:
    phi + (sqrt(2 phi) + z_2p)^2 / 2, z_q the L^q norm of a standard normal."""
    z = normal_abs_moment_norm(2 * p)
    return phi_half + 0.5 * (math.sqrt(2.0 * phi_half) + z) ** 2


def trapezoid_l2_sq(paths: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-rule integral of W^2 per row; rows hold W(dt), ..., W(n dt), W(0) = 0."""
    sq = paths * paths
    return dt * (sq[:, :-1].sum(axis=1) + 0.5 * sq[:, -1])


def brownian_paths(rng: np.random.Generator, count: int, n_steps: int, dt: float) -> np.ndarray:
    """count Brownian paths at the nodes dt..n_steps*dt (the zero start omitted)."""
    return np.cumsum(rng.standard_normal((count, n_steps)) * math.sqrt(dt), axis=1)


def trapezoid_l2_costs(
    radii,
    n_steps: int = 256,
    horizon: float = 1.0,
    n_paths: int = 100_000,
    seed: int = 20_040_220,
) -> list[tuple[float, int, float]]:
    """(cost, hits, stderr) of the centered trapezoid-L2 ball per radius, plain MC.

    cost = -log(hits/n_paths); stderr = sqrt((1-p)/(n p)) on the log scale,
    inf when nothing hit.
    """
    dt = horizon / n_steps
    chunk = max(1, 2**22 // n_steps)  # about 32 MiB of paths at a time
    rng = np.random.default_rng(seed)
    sq_radii = np.asarray(radii, dtype=float) ** 2
    hits = np.zeros(len(sq_radii), dtype=np.int64)
    done = 0
    while done < n_paths:
        k = min(chunk, n_paths - done)
        l2sq = trapezoid_l2_sq(brownian_paths(rng, k, n_steps, dt), dt)
        hits += (l2sq[:, None] <= sq_radii[None, :]).sum(axis=0)
        done += k
    out = []
    for h in hits:
        p = h / n_paths
        out.append((-math.log(p), int(h), math.sqrt((1.0 - p) / (n_paths * p)))
                   if h else (math.inf, 0, math.inf))
    return out


def trapezoid_l2_eigenvalues(n_steps: int, horizon: float = 1.0) -> np.ndarray:
    """lambda_k with ||W||^2_trap = sum_k lambda_k Z_k^2 for the grid walk."""
    dt = horizon / n_steps
    i = np.arange(1, n_steps + 1)
    cov = dt * np.minimum.outer(i, i).astype(float)
    w = np.full(n_steps, dt)
    w[-1] = 0.5 * dt
    r = np.sqrt(w)
    return np.linalg.eigvalsh(r[:, None] * cov * r[None, :])


def trapezoid_l2_cost_saddlepoint(eps: float, lam: np.ndarray) -> float:
    """-log P(sum_k lam_k Z_k^2 <= eps^2) by the Lugannani-Rice formula.

    The cumulant generating function is K(s) = -1/2 sum log(1 - 2 s lam);
    below the mean the saddlepoint s = -u is negative and K'(s) = x is
    solved for u by bisection on log u.
    """
    x = eps * eps
    if x >= float(lam.sum()):
        raise ValueError("the saddlepoint lower tail needs eps^2 below the mean")

    def k1(u):
        return float(np.sum(lam / (1.0 + 2.0 * u * lam)))

    lo, hi = -30.0, 60.0  # log u
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if k1(math.exp(mid)) > x:
            lo = mid
        else:
            hi = mid
    u = math.exp(0.5 * (lo + hi))
    k = -0.5 * float(np.sum(np.log1p(2.0 * u * lam)))
    k2 = float(np.sum(2.0 * lam**2 / (1.0 + 2.0 * u * lam) ** 2))
    w = -math.sqrt(2.0 * (-u * x - k))
    v = -u * math.sqrt(k2)
    # P = phi(w) [Phi(w)/phi(w) + 1/w - 1/v]; the Mills ratio via erfc keeps the
    # bracket accurate where Phi(w) itself would underflow
    mills = math.sqrt(math.pi / 2.0) * math.erfc(-w / math.sqrt(2.0)) * math.exp(0.5 * w * w)
    log_phi = -0.5 * w * w - 0.5 * math.log(2.0 * math.pi)
    return -(log_phi + math.log(mills + 1.0 / w - 1.0 / v))


def trapezoid_l2_radius(cost: float, lam: np.ndarray) -> float:
    """The radius whose saddlepoint cost is ``cost``, by bisection on log eps."""
    lo, hi = math.log(1e-4), 0.5 * math.log(float(lam.sum())) - 1e-9
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if trapezoid_l2_cost_saddlepoint(math.exp(mid), lam) > cost:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))
