"""Experiment driver: measure, verify, and export plot-ready tables.

Each subcommand resolves one ExperimentConfig (defaults < config file <
command line), runs the experiment, and writes its tables plus a manifest
into the output directory. Reruns with an identical resolved config produce
byte-identical files: every stochastic routine is keyed off the single seed,
the worker count only changes wall time, floats are serialized at full
round-trip precision, and the manifest carries no clock. Wall time goes to
stderr instead, next to the machine-readable error reports.

Exit codes: 0 success, 1 configuration error, 2 runtime error (an unexpected
exception included, reported with the kind "internal"), 3 at least one
decisive verifier row failed.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from .constants import (
    SubadditiveSeries,
    dirichlet_eigenvalue,
    estimate_constant,
    subadditive_constant,
)
from .errors import ConfigurationError, RangeError, SmallballError
from .estimators import centered_curve, centered_depth, depth_floor, pick_routes, route_table
from .models import BrownianBridge, GaussianModel, Scalar, WienerPath, parse_model
from .norms import NormSpec, parse_norm
from .quantization import (
    build_codebook,
    coverage_from_distances,
    distortion_from_distances,
    invert_gauge,
    sample_nearest,
    verify_distortion_gauge_match,
)
from .rsbf import (
    GaugeCurve,
    Report,
    VerifierConfig,
    check_doubling,
    dispersion_trend,
    gauge_stats,
    growth_hypothesis,
    lipschitz_probe,
    mean_median_trend,
    sample_rsbf,
    shift_inequality_check,
    verify_enclosure,
    verify_enlarged_ball,
    verify_gauge_sandwich,
)
from .streams import RandomStream

ARTIFACT_VERSION = "1"

_ESTIMATORS = ("auto", "analytic", "mc", "splitting", "transfer")
_MODES = ("subadditive", "eps_fit", "both")
_FORMATS = ("csv", "json")


# -- configuration ---------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one experiment run.

    The manifest embeds exactly these fields (minus ``out``, which names a
    location rather than an experiment), so a manifest can be replayed.
    """

    experiment: str
    seed: int
    model: str = "wiener:n=256"
    norm: str = "sup"
    eps: tuple[float, ...] = ()
    r_grid: tuple[float, ...] = ()
    s: float = 2.0
    samples: int = 0  # 0 picks the per-command default
    centers: int = 0
    grid_n: int = 0  # overrides the path model's step count when > 0
    estimator: str = "auto"
    mode: str = "subadditive"
    kappa: float = 0.5
    a_grid: tuple[float, ...] = ()
    format: str = "csv"
    out: str = "runs/latest"

    def validate(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigurationError("seed must be an integer")
        if self.format not in _FORMATS:
            raise ConfigurationError(f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.estimator not in _ESTIMATORS:
            raise ConfigurationError(f"estimator must be one of {_ESTIMATORS}")
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}")
        for name, grid, increasing in (("eps", self.eps, False),
                                       ("r_grid", self.r_grid, True),
                                       ("a_grid", self.a_grid, True)):
            arr = np.asarray(grid, dtype=float)
            if arr.size and not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"{name} must be finite")
            if name == "eps" and arr.size and np.any(arr <= 0):
                raise ConfigurationError("eps values must be positive")
            if name == "r_grid" and arr.size and np.any(arr < 0):
                raise ConfigurationError("r values must be nonnegative")
            diffs = np.diff(arr)
            if arr.size and (np.any(diffs >= 0) if not increasing else np.any(diffs <= 0)):
                order = "increasing" if increasing else "decreasing"
                raise ConfigurationError(f"{name} must be strictly {order}")
        if self.s <= 0:
            raise ConfigurationError(f"s must be positive, got {self.s}")
        if not 0.0 < self.kappa < 1.0:
            raise ConfigurationError(f"kappa must be in (0, 1), got {self.kappa}")
        for name, v in (("samples", self.samples), ("centers", self.centers),
                        ("grid_n", self.grid_n)):
            if v < 0:
                raise ConfigurationError(f"{name} must be nonnegative, got {v}")
        if self.experiment == "quantize" and not self.r_grid:
            raise ConfigurationError("quantize needs a nonempty --r-grid")

    def public_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items() if k != "out"}


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical (key-sorted) JSON form; key order never matters."""
    blob = json.dumps(cfg.public_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p for chunk in str(text).split(",") for p in chunk.split()]
    try:
        return tuple(float(p) for p in parts if p)
    except ValueError as exc:
        raise ConfigurationError(f"bad numeric list {text!r}") from exc


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value settings, INI sections allowed, JSON accepted too.

    Sections only organize the file; keys live in one namespace, and the
    same key in two sections is an error rather than a silent override.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    text = p.read_text()
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad JSON config {path}: {exc}") from exc
        return {str(k): ("" if v is None else str(v) if not isinstance(v, list)
                         else ",".join(str(x) for x in v)) for k, v in raw.items()}
    cp = configparser.ConfigParser()
    try:
        cp.read_string("[_top]\n" + text)
    except configparser.Error as exc:
        raise ConfigurationError(f"bad config file {path}: {exc}") from exc
    flat: dict[str, str] = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            if key in flat:
                raise ConfigurationError(f"key {key!r} set twice in {path}")
            flat[key] = value
    return flat


_INT_KEYS = {"seed", "samples", "centers", "grid_n"}
_FLOAT_KEYS = {"s", "kappa"}
_GRID_KEYS = {"eps", "r_grid", "a_grid"}


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged: dict[str, str] = {}
    if getattr(args, "config", None):
        merged.update(load_config_file(args.config))
    for key in ("model", "norm", "eps", "r_grid", "s", "samples", "centers",
                "seed", "grid_n", "estimator", "mode", "kappa", "a_grid",
                "format", "out"):
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v
    if "experiment" in merged:
        raise ConfigurationError("the experiment is the subcommand, not a config key")
    kwargs: dict = {"experiment": args.experiment}
    for key, raw in merged.items():
        if key in _INT_KEYS:
            try:
                kwargs[key] = int(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{key} must be an integer, got {raw!r}") from exc
        elif key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{key} must be a number, got {raw!r}") from exc
        elif key in _GRID_KEYS:
            kwargs[key] = raw if isinstance(raw, tuple) else _parse_floats(raw)
        elif key in ("model", "norm", "estimator", "mode", "format", "out"):
            kwargs[key] = str(raw)
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    if "seed" not in kwargs:
        raise ConfigurationError("seed is required (--seed or a config-file entry)")
    # normalize grid order so equivalent inputs resolve to one config
    if "eps" in kwargs:
        kwargs["eps"] = tuple(sorted(set(kwargs["eps"]), reverse=True))
    for key in ("r_grid", "a_grid"):
        if key in kwargs:
            kwargs[key] = tuple(sorted(set(kwargs[key])))
    cfg = ExperimentConfig(**kwargs)
    cfg = _apply_command_defaults(cfg)
    cfg.validate()
    return cfg


def _apply_command_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    updates: dict = {}
    if not cfg.eps and cfg.experiment in ("sbf", "rsbf", "verify-all"):
        updates["eps"] = (0.5, 0.4, 0.3) if not cfg.model.startswith("scalar") \
            else (1.0, 0.5, 0.25)
    if cfg.samples == 0:
        updates["samples"] = {"sbf": 200_000, "rsbf": 100_000, "quantize": 512,
                              "constants": 8192, "verify-all": 200_000}.get(cfg.experiment, 0)
    if cfg.centers == 0:
        updates["centers"] = {"rsbf": 100, "quantize": 160, "constants": 48,
                              "verify-all": 60}.get(cfg.experiment, 0)
    if not cfg.a_grid and cfg.experiment == "constants":
        spec = parse_norm(cfg.norm)
        updates["a_grid"] = (2.0, 4.0, 6.0, 8.0, 12.0, 16.0) if spec.kind == "sup" \
            else (1.0, 2.0, 4.0, 6.0, 8.0)
    return replace(cfg, **updates) if updates else cfg


# -- serialization ---------------------------------------------------------


def _py(v):
    """Plain-python scalar for serialization; numpy reprs never leak."""
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _cell(v) -> str:
    v = _py(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(v)


def render_table(columns: list[str], rows: list[dict], fmt: str) -> bytes:
    if fmt == "json":
        data = {"columns": columns,
                "rows": [{c: _py(row.get(c)) for c in columns} for row in rows]}
        return (json.dumps(data, sort_keys=True, indent=2, allow_nan=True) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in columns])
    return buf.getvalue().encode()


def atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def report_rows(report: Report) -> list[dict]:
    return [{"report": report.name, "claim": row.claim,
             "passed": row.passed, "observed": row.observed,
             "threshold": row.threshold, "note": row.note}
            for row in report.rows]


# -- shared measurement helpers ---------------------------------------------


def _resolve_model(cfg: ExperimentConfig) -> GaussianModel:
    model = parse_model(cfg.model)
    if cfg.grid_n:
        if isinstance(model, WienerPath):
            model = WienerPath(n_steps=cfg.grid_n, d=model.d, horizon=model.horizon)
        elif isinstance(model, BrownianBridge):
            model = BrownianBridge(n_steps=cfg.grid_n)
        else:
            raise ConfigurationError("grid_n only applies to path models")
    return model


def _eps_for_depth(depth_fn, target: float, lo: float = 1e-8, hi: float = 50.0) -> float:
    """Invert a decreasing depth(eps) on [lo, hi] by Brent's method in
    v = eps**-2 to 1e-14 relative. A small-ball depth grows like c / eps**2,
    so it is nearly linear in v: the first steps land near the root, not on
    the flat wide end where depth is about 0 and every band sweep is widest.
    """
    try:
        v = brentq(lambda v: depth_fn(v**-0.5) - target, hi**-2, lo**-2,
                   xtol=1e-300, rtol=1e-14)
    except ValueError:  # the ends do not bracket the target
        raise RangeError(
            f"depth {target:g} outside [{depth_fn(hi):g}, {depth_fn(lo):g}]") from None
    return v**-0.5


# -- subcommands -------------------------------------------------------------


def cmd_sbf(cfg: ExperimentConfig, stream: RandomStream):
    model = _resolve_model(cfg)
    spec = parse_norm(cfg.norm)
    route, _ = pick_routes(model, spec, "sbf", cfg.estimator)
    curve = centered_curve(model, spec, cfg.eps, route, stream.spawn(0), cfg.samples)
    return {"sbf": _curve_table(curve)}, []


def _curve_table(curve):
    rows = [{"model": curve.model_name, "norm": curve.norm_name, "eps": e,
             "phi": p.phi, "stderr": p.stderr_log, "n_samples": p.n_samples,
             "method": p.method, "bound": p.bound}
            for e, p in zip(curve.eps_grid, curve.estimates)]
    return ["model", "norm", "eps", "phi", "stderr", "n_samples", "method", "bound"], rows


def _gauge_tables(model: GaussianModel, spec: NormSpec, panel, gauge: GaugeCurve):
    sample_cols = ["model", "norm", "center_id", "eps", "ell", "stderr",
                   "n_samples", "method", "bound"]
    sample_rows = [{"model": model.name, "norm": spec.describe(),
                    "center_id": s.center_id, "eps": s.eps, "ell": s.ell_hat.phi,
                    "stderr": s.ell_hat.stderr_log, "n_samples": s.ell_hat.n_samples,
                    "method": s.ell_hat.method, "bound": s.ell_hat.bound}
                   for s in panel]
    gauge_cols = ["model", "norm", "eps", "n_centers", "mean", "mean_se",
                  "median", "median_lo", "median_hi", "iqr", "stddev", "rel_iqr"]
    for p in sorted(gauge.moments):
        gauge_cols += [f"moment_p{p}"]
        if p in gauge.moment_bounds:
            gauge_cols += [f"moment_p{p}_bound"]
    gauge_rows = []
    for j, e in enumerate(gauge.eps_grid):
        row = {"model": model.name, "norm": spec.describe(), "eps": e,
               "n_centers": gauge.n_centers, "mean": gauge.mean[j],
               "mean_se": gauge.mean_se[j], "median": gauge.median[j],
               "median_lo": gauge.median_ci[j][0], "median_hi": gauge.median_ci[j][1],
               "iqr": gauge.iqr[j], "stddev": gauge.stddev[j],
               "rel_iqr": gauge.rel_iqr[j]}
        for p in gauge.moments:
            row[f"moment_p{p}"] = gauge.moments[p][j]
            if p in gauge.moment_bounds:
                row[f"moment_p{p}_bound"] = gauge.moment_bounds[p][j]
        gauge_rows.append(row)
    return (sample_cols, sample_rows), (gauge_cols, gauge_rows)


def cmd_rsbf(cfg: ExperimentConfig, stream: RandomStream):
    model = _resolve_model(cfg)
    spec = parse_norm(cfg.norm)
    _, route = pick_routes(model, spec, "rsbf", cfg.estimator)
    panel = sample_rsbf(model, spec, cfg.eps, cfg.centers, stream.spawn(0),
                        estimator=route, n_samples=cfg.samples)
    gauge = gauge_stats(panel, centered=centered_depth(model, spec), stream=stream.spawn(1))
    samples_t, gauge_t = _gauge_tables(model, spec, panel, gauge)
    return {"rsbf_samples": samples_t, "rsbf_gauge": gauge_t}, []


def _quantize_gauge_inverse(cfg: ExperimentConfig, model: GaussianModel, spec: NormSpec,
                            stream: RandomStream):
    """Panel gauge spanning the requested rates, inverted; None when the
    pair has no exact route for the centered depth."""
    _, route = pick_routes(model, spec, "quantize")
    if route is None:
        return None, None
    centered = centered_depth(model, spec)
    positive = [r for r in cfg.r_grid if r > 0]
    # the panel mean runs a model-dependent factor (1x to 5x) above the
    # centered depth, so bracket generously on both ends
    lo_depth = max(0.1, min(positive) / 8.0) if positive else 0.1
    hi_depth = 1.1 * max(cfg.r_grid) + 1.0
    lo = depth_floor(model, spec)
    e_top = _eps_for_depth(centered, lo_depth, lo)
    e_bot = _eps_for_depth(centered, hi_depth, lo)
    eps_grid = tuple(np.geomspace(e_top, e_bot, 12))
    panel = sample_rsbf(model, spec, eps_grid, cfg.centers, stream, estimator=route)
    gauge = gauge_stats(panel, centered=centered, stream=stream.spawn(9_999))
    return invert_gauge(gauge, which="mean"), gauge


def cmd_quantize(cfg: ExperimentConfig, stream: RandomStream):
    model = _resolve_model(cfg)
    spec = parse_norm(cfg.norm)
    inverse, gauge = _quantize_gauge_inverse(cfg, model, spec, stream.spawn(1))
    columns = ["model", "norm", "s", "r", "n_codewords", "d_hat", "stderr", "n_test",
               "z_q05", "z_q25", "z_q50", "z_q75", "z_q95",
               "eps_star", "ratio", "coverage_rate", "coverage_se"]
    rows = []
    results = []
    for j, r in enumerate(cfg.r_grid):
        book = build_codebook(model, r, stream.spawn(1_000 + j))
        zs = sample_nearest(model, spec, r, cfg.samples, stream.spawn(2_000 + j), codebook=book)
        res = distortion_from_distances(zs, r, cfg.s)
        results.append(res)
        row = {"model": model.name, "norm": spec.describe(), "s": cfg.s, "r": r,
               "n_codewords": len(book.entries), "d_hat": res.d_hat,
               "stderr": res.stderr, "n_test": res.n_test}
        for name, q in zip(("z_q05", "z_q25", "z_q50", "z_q75", "z_q95"),
                           res.z_quantiles):
            row[name] = q
        if inverse is not None:
            try:
                g = float(inverse(r))
            except RangeError:
                g = None
            if g is not None:
                row["eps_star"] = g
                row["ratio"] = res.d_hat / g
                cov = coverage_from_distances(zs, g, r, cfg.kappa)
                row["coverage_rate"] = cov.rate
                row["coverage_se"] = cov.stderr
        rows.append(row)
    verdicts = []
    if inverse is not None:
        usable = [res for res, row in zip(results, rows) if row.get("ratio") is not None]
        if len(usable) >= 2:
            rep = verify_distortion_gauge_match(usable, inverse,
                                                hypothesis_ok=growth_hypothesis(model))
            verdicts += report_rows(rep)
    tables = {"quantize": (columns, rows)}
    if gauge is not None:
        _, gauge_t = _gauge_tables(model, spec, [], gauge)
        tables["quantize_gauge"] = gauge_t
    return tables, verdicts


def _series_tables(series: SubadditiveSeries, model: GaussianModel, spec: NormSpec):
    columns = ["model", "norm", "kind", "a", "value", "stderr", "value_over_a"]
    rows = [{"model": model.name, "norm": spec.describe(), "kind": series.kind,
             "a": a, "value": v, "stderr": se, "value_over_a": v / a}
            for a, v, se in zip(series.a_grid, series.values, series.stderrs)]
    return columns, rows


def cmd_constants(cfg: ExperimentConfig, stream: RandomStream):
    model = _resolve_model(cfg)
    spec = parse_norm(cfg.norm)
    columns = ["model", "norm", "mode", "gamma", "value", "stderr",
               "soft_rate", "soft_q", "slope", "tail_over_a",
               "bracket_lo", "bracket_hi"]
    rows: list[dict] = []
    tables: dict = {}
    d = getattr(model, "d", 1)
    bracket = None
    if spec.kind == "sup" and d in (1, 2, 3):
        k0 = dirichlet_eigenvalue(d)
        bracket = (2.0 * k0, 8.0 * k0)
    if cfg.mode in ("subadditive", "both"):
        value, se, series = subadditive_constant(model, spec, cfg.a_grid, cfg.centers,
                                                 stream.spawn(0), n_inner=cfg.samples)
        row = {"model": model.name, "norm": spec.describe(), "mode": "subadditive",
               "gamma": spec.gamma, "value": value, "stderr": se, "slope": series.slope,
               "tail_over_a": series.values[-1] / series.a_grid[-1]}
        if series.kind == "soft":
            row["soft_rate"], row["soft_q"] = series.rate_constant(), spec.soft_q
        if bracket:
            row["bracket_lo"], row["bracket_hi"] = bracket
        rows.append(row)
        tables["constants_series"] = _series_tables(series, model, spec)
    if cfg.mode in ("eps_fit", "both"):
        est = estimate_constant(model, spec, stream.spawn(1), cfg.eps or None, cfg.centers)
        row = {"model": model.name, "norm": spec.describe(), "mode": "eps_fit",
               "gamma": est.gamma, "value": est.value, "stderr": est.stderr}
        if bracket:
            row["bracket_lo"], row["bracket_hi"] = bracket
        rows.append(row)
    verdicts = []
    if len(rows) == 2:
        a, b = rows[0]["value"], rows[1]["value"]
        gap = abs(a - b) / max(abs(a), abs(b))
        verdicts.append({"report": "constants", "claim": "cross-mode-agreement",
                         "passed": None, "observed": gap, "threshold": 0.15,
                         "note": "diagnostic only; modes share no randomness"})
    tables["constants"] = (columns, rows)
    return tables, verdicts


def cmd_verify_all(cfg: ExperimentConfig, stream: RandomStream):
    model = _resolve_model(cfg)
    spec = parse_norm(cfg.norm)
    vcfg = VerifierConfig()
    route, panel_route = pick_routes(model, spec, "verify-all", cfg.estimator)

    # the verifiers look the centered curve up at eps, eps/sqrt2, eps/2, 2eps
    full = set()
    for e in cfg.eps:
        full.update((e, e / math.sqrt(2.0), e / 2.0, 2.0 * e))
    grid = tuple(sorted(full, reverse=True))
    curve = centered_curve(model, spec, grid, route, stream.spawn(0), cfg.samples)

    panel = sample_rsbf(model, spec, cfg.eps, cfg.centers, stream.spawn(1),
                        estimator=panel_route,
                        n_samples=max(cfg.samples, 50_000) if panel_route == "mc" else cfg.samples)
    gauge = gauge_stats(panel, centered=centered_depth(model, spec), stream=stream.spawn(2))

    reports = [
        verify_enclosure(curve, panel, vcfg),
        verify_gauge_sandwich(curve, gauge, vcfg),
        check_doubling(curve, "lower", vcfg),
        dispersion_trend(panel, stream=stream.spawn(3)),
        mean_median_trend(panel, stream=stream.spawn(4)),
    ]
    if growth_hypothesis(model):
        reports.append(check_doubling(curve, "upper", vcfg))
    if route_table(model, spec).exact:
        e_mid = cfg.eps[len(cfg.eps) // 2]
        reports.append(lipschitz_probe(model, spec, e_mid, 32, (0.25, 0.5, 1.0),
                                       stream.spawn(5), vcfg, enforce_gate=False))
    if isinstance(model, Scalar):
        reports.append(shift_inequality_check(model, "halfspace", 0.5, 1.0,
                                              stream.spawn(6), cfg=vcfg))
        reports.append(shift_inequality_check(model, "ball", cfg.eps[0], 0.75,
                                              stream.spawn(7), norm_spec=spec,
                                              n_samples=cfg.samples, cfg=vcfg))
        reports.append(verify_enlarged_ball(model, spec, cfg.eps[-1], cfg.samples,
                                            stream.spawn(8), vcfg))
    elif isinstance(model, WienerPath) and model.d == 1:
        # a straight-line path of slope c has shift-space norm c sqrt(T)
        h = 0.75 * model.grid()
        reports.append(shift_inequality_check(model, "ball", cfg.eps[0], h,
                                              stream.spawn(7), norm_spec=spec,
                                              n_samples=min(cfg.samples, 50_000), cfg=vcfg))

    verdicts: list[dict] = []
    for rep in reports:
        verdicts += report_rows(rep)
    samples_t, gauge_t = _gauge_tables(model, spec, panel, gauge)
    return {"sbf": _curve_table(curve), "rsbf_samples": samples_t, "rsbf_gauge": gauge_t}, verdicts


# -- plotdata ----------------------------------------------------------------


_FIG_COLUMNS = ["x", "y", "y_lo", "y_hi", "series"]


def _load_table(directory: Path, name: str, fmt: str) -> list[dict]:
    path = directory / f"{name}.{fmt}"
    if not path.is_file():
        raise ConfigurationError(f"manifest lists {path.name} but it is missing")
    if fmt == "json":
        data = json.loads(path.read_text())
        return data["rows"]
    with path.open(newline="") as fh:
        rows = []
        for raw in csv.DictReader(fh):
            row = {}
            for k, v in raw.items():
                if v == "":
                    row[k] = None
                else:
                    try:
                        row[k] = float(v)
                    except ValueError:
                        row[k] = {"true": True, "false": False}.get(v, v)
            rows.append(row)
        return rows


def _fig_rows_gauge(tables: dict[str, list[dict]]) -> list[dict]:
    """Centered points, bound rows as [phi, inf) in their own series, and
    the gauge points of every radius whose gauge is not censored away."""
    out = []
    for row in tables.get("sbf", []):
        if row["bound"]:
            out.append({"x": row["eps"], "y": row["phi"], "y_lo": row["phi"],
                        "y_hi": math.inf, "series": "centered-bound"})
            continue
        se = row["stderr"]
        out.append({"x": row["eps"], "y": row["phi"], "y_lo": row["phi"] - se,
                    "y_hi": row["phi"] + se, "series": "centered"})
    for row in tables.get("rsbf_gauge", []):
        if not math.isnan(row["mean"]):
            out.append({"x": row["eps"], "y": row["mean"],
                        "y_lo": row["mean"] - row["mean_se"],
                        "y_hi": row["mean"] + row["mean_se"], "series": "gauge-mean"})
        if not math.isnan(row["median"]):
            out.append({"x": row["eps"], "y": row["median"], "y_lo": row["median_lo"],
                        "y_hi": row["median_hi"], "series": "gauge-median"})
    return out


def _fig_rows_scaled(tables: dict[str, list[dict]], gamma: float) -> list[dict]:
    out = []
    for row in tables.get("rsbf_gauge", []):
        if math.isnan(row["mean"]):
            continue
        scale = row["eps"] ** gamma
        out.append({"x": row["eps"], "y": scale * row["mean"],
                    "y_lo": scale * (row["mean"] - row["mean_se"]),
                    "y_hi": scale * (row["mean"] + row["mean_se"]),
                    "series": "scaled-gauge-mean"})
    return out


def _fig_rows_distortion(tables: dict[str, list[dict]]) -> list[dict]:
    out = []
    for row in tables.get("quantize", []):
        out.append({"x": row["r"], "y": row["d_hat"],
                    "y_lo": row["d_hat"] - row["stderr"],
                    "y_hi": row["d_hat"] + row["stderr"], "series": "distortion"})
        if row.get("eps_star") is not None:
            out.append({"x": row["r"], "y": row["eps_star"], "y_lo": row["eps_star"],
                        "y_hi": row["eps_star"], "series": "gauge-inverse"})
    return out


def _fig_rows_rate(tables: dict[str, list[dict]]) -> list[dict]:
    out = []
    for row in tables.get("constants_series", []):
        se = row["stderr"] / row["a"]
        out.append({"x": row["a"], "y": row["value_over_a"],
                    "y_lo": row["value_over_a"] - se,
                    "y_hi": row["value_over_a"] + se,
                    "series": f"rate-{row['kind']}"})
    return out


def cmd_plotdata(manifest_path: str, out_dir: str | None) -> list[Path]:
    mp = Path(manifest_path)
    if mp.is_dir():
        mp = mp / "manifest.json"
    if not mp.is_file():
        raise ConfigurationError(f"manifest not found: {mp}")
    manifest = json.loads(mp.read_text())
    fmt = manifest["config"]["format"]
    tables = {name: _load_table(mp.parent, name, fmt)
              for name in manifest["tables"]}
    target = Path(out_dir) if out_dir else mp.parent
    target.mkdir(parents=True, exist_ok=True)
    gamma = parse_norm(manifest["config"]["norm"]).gamma
    figures = {
        "fig_gauge_vs_eps": _fig_rows_gauge(tables),
        "fig_scaled_gauge_vs_eps": _fig_rows_scaled(tables, gamma),
        "fig_distortion_vs_r": _fig_rows_distortion(tables),
        "fig_rate_vs_a": _fig_rows_rate(tables),
    }
    written = []
    for name, rows in figures.items():
        if not rows:
            continue
        path = target / f"{name}.csv"
        atomic_write(path, render_table(_FIG_COLUMNS, rows, "csv"))
        written.append(path)
    return written


# -- driver ------------------------------------------------------------------


_COMMANDS = {"sbf": cmd_sbf, "rsbf": cmd_rsbf, "quantize": cmd_quantize,
             "constants": cmd_constants, "verify-all": cmd_verify_all}


def run_experiment(cfg: ExperimentConfig) -> int:
    stream = RandomStream(cfg.seed)
    tables, verdicts = _COMMANDS[cfg.experiment](cfg, stream)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}
    for name, (columns, rows) in tables.items():
        fname = f"{name}.{cfg.format}"
        atomic_write(out / fname, render_table(columns, rows, cfg.format))
        written[name] = fname
    n_fail = sum(1 for v in verdicts if v["passed"] is False)
    n_pass = sum(1 for v in verdicts if v["passed"] is True)
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "experiment": cfg.experiment,
        "config": cfg.public_dict(),
        "config_hash": config_hash(cfg),
        "tables": dict(sorted(written.items())),
        "verdicts": [{k: _py(v) for k, v in row.items()} for row in verdicts],
        "summary": {"pass": n_pass, "fail": n_fail,
                    "informational": len(verdicts) - n_pass - n_fail},
    }
    atomic_write(out / "manifest.json",
                 (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode())
    for name in sorted(written):
        print(out / written[name])
    print(out / "manifest.json")
    for v in verdicts:
        tag = {True: "PASS", False: "FAIL", None: "INFO"}[v["passed"]]
        print(f"{tag} {v['report']}/{v['claim']}: observed={_cell(v['observed'])} "
              f"threshold={_cell(v['threshold'])} ({v['note']})")
    return 3 if n_fail else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallball",
        description="Small-deviation laboratory for Gaussian path measures.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI or flat-JSON settings file")
    common.add_argument("--model", help="model descriptor, e.g. wiener:n=256 or scalar")
    common.add_argument("--norm", help="norm descriptor, e.g. sup or lp:p=2")
    common.add_argument("--eps", help="comma-separated radii")
    common.add_argument("--r-grid", dest="r_grid", help="comma-separated rates")
    common.add_argument("--s", help="distortion moment order")
    common.add_argument("--samples", help="sampling budget (0 = command default)")
    common.add_argument("--centers", help="panel size (0 = command default)")
    common.add_argument("--seed", help="master seed (required; no clock default)")
    common.add_argument("--grid-n", dest="grid_n", help="path discretization override")
    common.add_argument("--estimator", choices=_ESTIMATORS, help="pricing route")
    common.add_argument("--mode", choices=_MODES, help="constants: fit family")
    common.add_argument("--kappa", help="coverage band half-width in (0,1)")
    common.add_argument("--a-grid", dest="a_grid", help="constants: horizon grid")
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", choices=_FORMATS, help="table format")
    for name, doc in (
        ("sbf", "centered small-ball curve on a radius grid"),
        ("rsbf", "random-center panel and its gauge summary"),
        ("quantize", "random-codebook distortion against the inverted gauge"),
        ("constants", "limiting constants from horizon or radius scaling"),
        ("verify-all", "run the inequality battery and report verdicts"),
    ):
        sub.add_parser(name, parents=[common], help=doc)
    pd = sub.add_parser("plotdata", help="reshape a finished run into plot-ready CSVs")
    pd.add_argument("--manifest", required=True,
                    help="manifest.json (or the directory holding it)")
    pd.add_argument("--out", help="where to write the figure tables")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return _emit_error("config", "invalid command line (see usage above)", 1)
    t0 = time.monotonic()
    try:
        if args.experiment == "plotdata":
            for path in cmd_plotdata(args.manifest, args.out):
                print(path)
            code = 0
        else:
            code = run_experiment(resolve_config(args))
    except ConfigurationError as exc:
        return _emit_error("config", str(exc), 1)
    except SmallballError as exc:
        return _emit_error(type(exc).__name__, str(exc), 2)
    except OSError as exc:
        return _emit_error("io", str(exc), 2)
    except Exception as exc:  # a fault of the program or the machine, not the config
        return _emit_error("internal", f"{type(exc).__name__}: {exc}", 2)
    sys.stderr.write(f"wall_time_s={time.monotonic() - t0:.1f}\n")
    return code


def _emit_error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}},
                                sort_keys=True) + "\n")
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
