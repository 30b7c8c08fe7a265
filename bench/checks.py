"""Output checks for the benchmark workloads.

Every check reads the tables a workload wrote and compares them with a value
from ``reference`` (computed without importing smallball) or with a property
the mathematics forces: Anderson's inequality (no ball around a random
center outweighs the centered one), Jensen's inequality for the panel mean,
nesting of balls, superadditivity of the tube-cost series, and exact
identities among the columns of a table. No check compares with stored output.

A check is a function (tables, manifest, ctx) -> list of failure messages;
an empty list is a pass. ``ctx`` carries the workload's grid step and a
cache for references that cost time to compute.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

K_SIGMA = 3.0
INVERSION_RTOL = 1e-9  # tables carry 17 significant digits
MOMENT_BOUND_RTOL = 0.01
RATIO_BAND = (0.7, 1.3)
K_AGREE = 4.0  # two-sided agreement with a reference, in standard errors
MC_MIN_HITS = 100
# The Lugannani-Rice cost is within 0.07 nats of a 400k-path Monte Carlo at
# eps=0.3 (depth 2, where one eigenvalue dominates) and closer deeper down.
SADDLEPOINT_TOL = 0.1


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def load_outputs(out_dir: Path) -> tuple[dict, dict[str, list[dict]]]:
    """The manifest and every table it lists, cells parsed to float/bool/None/str."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    tables = {}
    for name, fname in manifest["tables"].items():
        with (out_dir / fname).open(newline="") as fh:
            tables[name] = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    return manifest, tables


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- every workload ------------------------------------------------------------


def check_finite(tables, manifest, ctx):
    bad = []
    for name, rows in tables.items():
        for i, row in enumerate(rows):
            for col, v in row.items():
                if isinstance(v, float) and not math.isfinite(v):
                    bad.append(f"{name} row {i} {col}={v}")
    return bad


def check_no_bound_rows(tables, manifest, ctx):
    return [f"{name} row {i} is a one-sided bound"
            for name, rows in tables.items() for i, row in enumerate(rows)
            if row.get("bound") is True]


# -- quantize ------------------------------------------------------------------


def check_codebook_size(tables, manifest, ctx):
    want_test = manifest["config"]["samples"]
    bad = []
    for row in tables["quantize"]:
        if row["n_codewords"] != math.floor(math.exp(row["r"])):
            bad.append(f"r={row['r']:g}: n_codewords={row['n_codewords']:g}")
        if row["n_test"] != want_test:
            bad.append(f"r={row['r']:g}: n_test={row['n_test']:g}, requested {want_test}")
    return bad


def check_distortion_decreasing(tables, manifest, ctx):
    rows = sorted(tables["quantize"], key=lambda q: q["r"])
    return [f"d_hat rises from r={a['r']:g} to r={b['r']:g}"
            for a, b in zip(rows, rows[1:]) if not b["d_hat"] < a["d_hat"]]


def check_quantiles_ordered(tables, manifest, ctx):
    cols = ("z_q05", "z_q25", "z_q50", "z_q75", "z_q95")
    return [f"r={row['r']:g}: z quantiles out of order"
            for row in tables["quantize"]
            if any(row[a] > row[b] for a, b in zip(cols, cols[1:]))]


def check_ratio_band(tables, manifest, ctx):
    bad = []
    for row in tables["quantize"]:
        if row["eps_star"] is None:
            bad.append(f"r={row['r']:g}: no eps_star")
            continue
        ratio = row["d_hat"] / row["eps_star"]
        if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
            bad.append(f"r={row['r']:g}: d_hat/eps_star={ratio:.4f}")
    return bad


def check_eps_star_inversion(tables, manifest, ctx):
    """eps_star is the gauge (eps, mean) curve read at depth r in log-log."""
    gauge = sorted(tables["quantize_gauge"], key=lambda g: g["mean"])
    log_mean = np.log([g["mean"] for g in gauge])
    log_eps = np.log([g["eps"] for g in gauge])
    if np.any(np.diff(log_mean) <= 0):
        return ["gauge mean is not strictly monotone in eps"]
    bad = []
    for row in tables["quantize"]:
        want = math.exp(float(np.interp(math.log(row["r"]), log_mean, log_eps)))
        if row["eps_star"] is None or not _close(row["eps_star"], want, INVERSION_RTOL):
            bad.append(f"r={row['r']:g}: eps_star={row['eps_star']} vs {want!r}")
    return bad


def _sup_cost(ctx, eps):
    return ref.discrete_sup_cost(eps, ctx["dt"])


def check_sup_gauge_jensen(tables, manifest, ctx):
    """E ell(eps) >= -log mu(B(0, eps/sqrt2)) by Jensen; the mean gets 3 se."""
    bad = []
    for g in tables["quantize_gauge"]:
        floor = _sup_cost(ctx, g["eps"] / math.sqrt(2.0))
        if g["mean"] + K_SIGMA * g["mean_se"] < floor:
            bad.append(f"eps={g['eps']:.4g}: mean {g['mean']:.4f} + 3se < {floor:.4f}")
    return bad


def check_sup_gauge_anderson(tables, manifest, ctx):
    """Every ell(eps) >= the centered cost at eps, so the median is too."""
    bad = []
    for g in tables["quantize_gauge"]:
        floor = _sup_cost(ctx, g["eps"])
        if g["median"] < floor:
            bad.append(f"eps={g['eps']:.4g}: median {g['median']:.4f} < {floor:.4f}")
    return bad


def check_moment_bounds(tables, manifest, ctx):
    bad = []
    for g in tables["quantize_gauge"]:
        phi_half = _sup_cost(ctx, g["eps"] / 2.0)
        cols = [c for c in g if c.startswith("moment_p") and c.endswith("_bound")]
        if not cols:
            bad.append(f"eps={g['eps']:.4g}: no moment bound columns")
        for col in cols:
            want = ref.moment_bound(phi_half, int(col[len("moment_p"):-len("_bound")]))
            if g[col] is None or not _close(g[col], want, MOMENT_BOUND_RTOL):
                bad.append(f"eps={g['eps']:.4g}: {col}={g[col]} vs {want:.6g}")
    return bad


def check_gauge_consistency(tables, manifest, ctx):
    """The gauge columns agree with one another as summaries of one panel:
    moment_p1 is the mean (ell >= 0), stddev^2 = n/(n-1) (moment_p2^2 - mean^2),
    rel_iqr = iqr/median and moment_p2 >= moment_p1."""
    bad = []
    for g in tables["quantize_gauge"]:
        n = g["n_centers"]
        var = n / (n - 1) * (g["moment_p2"] ** 2 - g["mean"] ** 2)
        if not _close(g["moment_p1"], g["mean"], 1e-12):
            bad.append(f"eps={g['eps']:.4g}: moment_p1 {g['moment_p1']!r} != mean {g['mean']!r}")
        if not _close(g["stddev"] ** 2, var, 1e-8):
            bad.append(f"eps={g['eps']:.4g}: stddev^2 {g['stddev'] ** 2!r} vs {var!r}")
        if not _close(g["rel_iqr"], g["iqr"] / g["median"], 1e-12):
            bad.append(f"eps={g['eps']:.4g}: rel_iqr != iqr/median")
        if g["moment_p2"] < g["moment_p1"]:
            bad.append(f"eps={g['eps']:.4g}: moment_p2 < moment_p1")
    return bad


def check_quantile_floor(tables, manifest, ctx):
    """P(Z <= eps) <= n mu(B(0, eps)) by the union bound and Anderson's
    inequality, so z_q is at least the radius whose centered cost is
    log(n/q); the saddlepoint allowance is added to the cost."""
    lam = _l2_eigenvalues(ctx)
    bad = []
    for row in tables["quantize"]:
        for q, col in ((0.05, "z_q05"), (0.25, "z_q25"), (0.5, "z_q50")):
            floor = ref.trapezoid_l2_radius(
                math.log(row["n_codewords"] / q) + SADDLEPOINT_TOL, lam)
            if row[col] < floor:
                bad.append(f"r={row['r']:g}: {col}={row[col]:.4f} < {floor:.4f}")
    return bad


# -- sbf -------------------------------------------------------------------------


def check_phi_increasing(tables, manifest, ctx):
    """A smaller centered ball costs more."""
    rows = sorted(tables["sbf"], key=lambda r: -r["eps"])
    return [f"phi({b['eps']:g}) <= phi({a['eps']:g})"
            for a, b in zip(rows, rows[1:]) if not b["phi"] > a["phi"]]


def _l2_mc(ctx, radii):
    """Monte Carlo costs per radius, computed once per ctx."""
    if "l2_mc" not in ctx:
        ctx["l2_mc"] = dict(zip(radii, ref.trapezoid_l2_costs(radii, n_steps=ctx["n_steps"])))
    return ctx["l2_mc"]


def check_l2_monte_carlo(tables, manifest, ctx):
    """phi agrees with plain Monte Carlo within 4 combined se, where MC has
    at least MC_MIN_HITS hits."""
    mc = _l2_mc(ctx, sorted(row["eps"] for row in tables["sbf"]))
    bad = []
    for row in tables["sbf"]:
        cost, hits, se = mc[row["eps"]]
        if hits >= MC_MIN_HITS and abs(row["phi"] - cost) > K_AGREE * math.hypot(row["stderr"], se):
            bad.append(f"eps={row['eps']:g}: phi {row['phi']:.4f} vs MC {cost:.4f} +- {se:.4f}")
    if not any(mc[row["eps"]][1] >= MC_MIN_HITS for row in tables["sbf"]):
        bad.append("no radius with enough Monte Carlo hits")
    return bad


def _l2_eigenvalues(ctx):
    if "l2_eig" not in ctx:
        ctx["l2_eig"] = ref.trapezoid_l2_eigenvalues(ctx["n_steps"])
    return ctx["l2_eig"]


def check_l2_saddlepoint(tables, manifest, ctx):
    """phi agrees with the saddlepoint cost within 4 se plus the
    saddlepoint's own error allowance."""
    lam = _l2_eigenvalues(ctx)
    bad = []
    for row in tables["sbf"]:
        sp = ref.trapezoid_l2_cost_saddlepoint(row["eps"], lam)
        if abs(row["phi"] - sp) > K_AGREE * row["stderr"] + SADDLEPOINT_TOL:
            bad.append(f"eps={row['eps']:g}: phi {row['phi']:.4f} +- {row['stderr']:.4f} "
                       f"vs saddlepoint {sp:.4f}")
    return bad


# -- constants -------------------------------------------------------------------


def _series(tables):
    return sorted(tables["constants_series"], key=lambda s: s["a"])


def check_series_monotone(tables, manifest, ctx):
    rows = _series(tables)
    return [f"value drops from a={a['a']:g} to a={b['a']:g}"
            for a, b in zip(rows, rows[1:]) if b["value"] < a["value"]]


def check_series_centered_floor(tables, manifest, ctx):
    """A tube around a random path costs at least the tube around zero."""
    bad = []
    for row in _series(tables):
        floor = -ref.log_sup_ball(1.0 + ref.BGK_BETA * math.sqrt(ctx["dt"]), row["a"])
        if row["value"] < floor:
            bad.append(f"a={row['a']:g}: {row['value']:.4f} < centered {floor:.4f}")
    return bad


def check_superadditive(tables, manifest, ctx):
    rows = {row["a"]: row for row in _series(tables)}
    bad = []
    for a in rows:
        for b in rows:
            if b < a or a + b not in rows:
                continue
            s, x, y = rows[a + b], rows[a], rows[b]
            slack = K_SIGMA * math.sqrt(s["stderr"] ** 2 + x["stderr"] ** 2 + y["stderr"] ** 2)
            if s["value"] < x["value"] + y["value"] - slack:
                bad.append(f"value({a + b:g}) < value({a:g}) + value({b:g}) beyond 3 se")
    return bad


def check_value_over_a(tables, manifest, ctx):
    return [f"a={row['a']:g}: value_over_a={row['value_over_a']!r}"
            for row in tables["constants_series"]
            if not _close(row["value_over_a"], row["value"] / row["a"], 1e-12)]


def check_bracket(tables, manifest, ctx):
    want = (2.0 * ref.KAPPA0, 8.0 * ref.KAPPA0)
    return [f"{row['mode']}: bracket ({row['bracket_lo']}, {row['bracket_hi']})"
            for row in tables["constants"]
            if row["bracket_lo"] is None or row["bracket_hi"] is None
            or not (_close(row["bracket_lo"], want[0], 1e-12)
                    and _close(row["bracket_hi"], want[1], 1e-12))]


def check_eps_fit_positive(tables, manifest, ctx):
    rows = [row for row in tables["constants"] if row["mode"] == "eps_fit"]
    if len(rows) != 1:
        return [f"{len(rows)} eps_fit rows"]
    v = rows[0]["value"]
    return [] if isinstance(v, float) and math.isfinite(v) and v > 0 else [f"eps_fit value {v}"]


COMMON = [check_finite, check_no_bound_rows]
QUANTIZE = [check_codebook_size, check_distortion_decreasing, check_quantiles_ordered]
CHECKS = {
    "quantize-sup": COMMON + QUANTIZE + [
        check_ratio_band, check_eps_star_inversion, check_sup_gauge_jensen,
        check_sup_gauge_anderson, check_moment_bounds, check_gauge_consistency],
    "quantize-lp": COMMON + QUANTIZE + [check_quantile_floor],
    "sbf-split": COMMON + [check_phi_increasing, check_l2_monte_carlo, check_l2_saddlepoint],
    "constants-both": COMMON + [
        check_series_monotone, check_series_centered_floor, check_superadditive,
        check_value_over_a, check_bracket, check_eps_fit_positive],
}


def run_checks(workload: str, manifest: dict, tables: dict, ctx: dict) -> dict[str, list[str]]:
    """Failures per check name; a check that raises counts as failed."""
    out = {}
    for fn in CHECKS[workload]:
        try:
            out[fn.__name__] = fn(tables, manifest, ctx)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            out[fn.__name__] = [f"{type(exc).__name__}: {exc}"]
    return out
