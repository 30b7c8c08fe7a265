"""Layer spans for the traced benchmark run, recorded from outside smallball.

``Tracer.install`` replaces selected public functions of the package with
wrappers that record a span (name, start, end, parent) and a few work counts
read from the call's arguments and return value. Every module-level name
bound to the original function is rebound, so ``from .x import f`` copies
are traced too. Spans stay in memory; ``summary`` turns them into the
per-layer metrics and ``dump`` writes them once at the end.

Nothing in ``src/`` changes. A later change that moves spans into the
program can keep the metric names defined here.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

# spans under these never count as radius-inversion sweeps
_OWNED_SWEEPS = {"rsbf.sample_rsbf", "rsbf.gauge_stats",
                 "constants.lambda_hard", "constants.estimate_constant"}
# layers subtracted from a splitting run to leave its own bookkeeping
_LEAF_LAYERS = ("models.", "norms.", "transfer.")


def _normals(a, out):
    return {"normals": out.shape[0] * (out.shape[1] - 1) * (out.shape[2] if out.ndim == 3 else 1)}


def _nodes(a, out):
    v = a["values"]
    return {"nodes": v.shape[0] * (v.shape[1] if v.ndim > 1 else 1)}


def _sweep(a, out):
    return {"steps": len(a["band_lo"]) - 1, "cells": len(out[0])}


def _codebook(a, out):
    return {"codewords": len(out.entries)}


def _scan(a, out):
    test = a["test"]
    return {"draws": len(test), "pair_nodes": len(test) * a["codebook"].n * test.shape[1]}


def _ladder(a, out):
    return {"levels": len(out)}


def _curve(a, out):
    return {"stderrs": [e.stderr_log for e in out[0].estimates]}


def _bytes(a, out):
    return {"bytes": len(a["payload"])}


def _experiment(a, out):
    cfg = a["cfg"]
    return {"requested_draws": cfg.samples * len(cfg.r_grid) if cfg.experiment == "quantize" else 0}


# (module, attribute path, span name, work counter)
TARGETS = [
    ("smallball.models", "WienerPath.sample_values", "models.sample_values", _normals),
    ("smallball.norms", "eval_norm_batch", "norms.eval_norm_batch", _nodes),
    ("smallball.transfer", "band_log_profile", "transfer.band_log_profile", _sweep),
    ("smallball.quantization", "build_codebook", "quantization.build_codebook", _codebook),
    ("smallball.quantization", "nearest_distance", "quantization.nearest_distance", _scan),
    ("smallball.estimators", "make_ladder", "estimators.make_ladder", _ladder),
    ("smallball.estimators", "sbf_curve", "estimators.sbf_curve", _curve),
    ("smallball.rsbf", "sample_rsbf", "rsbf.sample_rsbf", None),
    ("smallball.rsbf", "gauge_stats", "rsbf.gauge_stats", None),
    ("smallball.constants", "lambda_hard", "constants.lambda_hard", None),
    ("smallball.constants", "estimate_constant", "constants.estimate_constant", None),
    ("smallball.cli", "render_table", "cli.render_table", None),
    ("smallball.cli", "atomic_write", "cli.atomic_write", _bytes),
    ("smallball.cli", "run_experiment", "cli.run_experiment", _experiment),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index (-1 for none), work dict]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, None])
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx][1:3] = (t0, t1)
            if counter is not None:
                spans[idx][4] = counter(sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def install(self) -> None:
        for mod_name, path, name, counter in TARGETS:
            owner = sys.modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("smallball"):
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapper)

    def dump(self, path: Path) -> None:
        rows = [{"name": n, "start_ns": a, "end_ns": b, "parent": p} for n, a, b, p, _ in self.spans]
        path.write_text(json.dumps(rows) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics; a rate whose denominator is zero reads 0."""
        spans = self.spans

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        def of(name):
            return [i for i, s in enumerate(spans) if s[0] == name]

        def secs(ids):
            return sum(spans[i][2] - spans[i][1] for i in ids) / 1e9

        def work(ids, key):
            return sum(spans[i][4][key] for i in ids)

        def rate(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        draws, norms, sweeps = of("models.sample_values"), of("norms.eval_norm_batch"), \
            of("transfer.band_log_profile")
        books, scans, ladders = of("quantization.build_codebook"), \
            of("quantization.nearest_distance"), of("estimators.make_ladder")
        splitting = set(of("estimators.sbf_curve"))

        normals, nodes = work(draws, "normals"), work(norms, "nodes")
        steps = work(sweeps, "steps")
        pair_nodes, scanned = work(scans, "pair_nodes"), work(scans, "draws")
        requested = work(of("cli.run_experiment"), "requested_draws")
        levels = work(ladders, "levels")
        leaf_under_splitting = [
            i for i, s in enumerate(spans)
            if s[0].startswith(_LEAF_LAYERS)
            and any(p in splitting for p in ancestors(i))
            and not any(spans[p][0].startswith(_LEAF_LAYERS) for p in ancestors(i))
        ]
        stderrs = [se for i in splitting for se in spans[i][4]["stderrs"]]
        return {
            "models.normals": normals,
            "models.sample_s": secs(draws),
            "models.ns_per_normal": rate(secs(draws), normals, 1e9),
            "norms.nodes": nodes,
            "norms.eval_s": secs(norms),
            "norms.ns_per_node": rate(secs(norms), nodes, 1e9),
            "transfer.sweeps": len(sweeps),
            "transfer.steps": steps,
            "transfer.cell_steps": sum(spans[i][4]["steps"] * spans[i][4]["cells"] for i in sweeps),
            "transfer.sweep_s": secs(sweeps),
            "transfer.us_per_step": rate(secs(sweeps), steps, 1e6),
            "quantization.codewords": work(books, "codewords"),
            "quantization.codebook_s": secs(books),
            "quantization.pair_nodes": pair_nodes,
            "quantization.scan_s": secs(scans),
            "quantization.ns_per_pair_node": rate(secs(scans), pair_nodes, 1e9),
            "quantization.useful_scan_ratio": rate(requested, scanned),
            "cli.inversion_sweeps": sum(
                1 for i in sweeps if not any(spans[p][0] in _OWNED_SWEEPS for p in ancestors(i))),
            "estimators.ladder_levels": levels,
            "estimators.splitting_s": secs(splitting),
            "estimators.splitting_self_s": secs(splitting) - secs(leaf_under_splitting),
            "estimators.s_per_level": rate(secs(splitting), levels),
            "estimators.se_median": statistics.median(stderrs) if stderrs else 0.0,
            "rsbf.panel_s": secs(of("rsbf.sample_rsbf")),
            "rsbf.gauge_s": secs(of("rsbf.gauge_stats")),
            "constants.hard_s": secs(of("constants.lambda_hard")),
            "constants.eps_fit_s": secs(of("constants.estimate_constant")),
            "cli.write_s": secs(of("cli.render_table")) + secs(of("cli.atomic_write")),
            "cli.bytes_written": work(of("cli.atomic_write"), "bytes"),
        }
