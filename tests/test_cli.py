import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smallball import cli, estimators, quantization, streams, transfer
from smallball.errors import ConfigurationError, DataError, PowerWarning, RangeError
from smallball.estimators import centered_depth, depth_floor, sbf_analytic
from smallball.models import BrownianBridge, Scalar, WienerPath
from smallball.norms import parse_norm
from smallball.streams import RandomStream, keyed_map


def ns(experiment, **kw):
    return argparse.Namespace(experiment=experiment, **kw)


# -- config resolution -----------------------------------------------------


def test_cli_overrides_config_file(tmp_path):
    f = tmp_path / "run.ini"
    f.write_text("seed = 5\nsamples = 111\neps = 1.0, 0.5\n")
    cfg = cli.resolve_config(ns("sbf", config=str(f), samples="222"))
    assert cfg.seed == 5
    assert cfg.samples == 222
    assert cfg.eps == (1.0, 0.5)


def test_config_file_sections_share_one_namespace(tmp_path):
    f = tmp_path / "run.ini"
    f.write_text("[a]\nseed = 5\n[b]\nseed = 6\n")
    with pytest.raises(ConfigurationError, match="twice"):
        cli.resolve_config(ns("sbf", config=str(f)))


def test_json_config_file(tmp_path):
    f = tmp_path / "run.json"
    f.write_text(json.dumps({"seed": 3, "eps": [0.25, 1.0, 0.5], "model": "scalar"}))
    cfg = cli.resolve_config(ns("sbf", config=str(f)))
    assert cfg.seed == 3
    assert cfg.model == "scalar"
    assert cfg.eps == (1.0, 0.5, 0.25)  # normalized decreasing


def test_resolve_config_rejections(tmp_path):
    with pytest.raises(ConfigurationError, match="seed is required"):
        cli.resolve_config(ns("sbf", model="scalar"))
    with pytest.raises(ConfigurationError, match="integer"):
        cli.resolve_config(ns("sbf", seed="five"))
    with pytest.raises(ConfigurationError, match="bad numeric list"):
        cli.resolve_config(ns("sbf", seed="1", eps="1.0,zebra"))
    f = tmp_path / "run.ini"
    f.write_text("seed = 1\nbanana = 2\n")
    with pytest.raises(ConfigurationError, match="unknown config key"):
        cli.resolve_config(ns("sbf", config=str(f)))
    f2 = tmp_path / "run2.ini"
    f2.write_text("seed = 1\nexperiment = rsbf\n")
    with pytest.raises(ConfigurationError, match="subcommand"):
        cli.resolve_config(ns("sbf", config=str(f2)))
    with pytest.raises(ConfigurationError, match="not found"):
        cli.resolve_config(ns("sbf", config=str(tmp_path / "absent.ini")))


def test_grid_normalization_and_defaults():
    cfg = cli.resolve_config(ns("quantize", seed="1", r_grid="8, 4, 8"))
    assert cfg.r_grid == (4.0, 8.0)  # deduplicated, increasing
    assert cfg.centers == 160 and cfg.samples == 512  # command defaults
    sbf = cli.resolve_config(ns("sbf", seed="1", model="scalar"))
    assert sbf.eps == (1.0, 0.5, 0.25)
    wiener = cli.resolve_config(ns("sbf", seed="1"))
    assert wiener.eps == (0.5, 0.4, 0.3)


def test_validate_catches_bad_settings():
    base = dict(experiment="sbf", seed=1)
    for bad in (
        dict(format="yaml"),
        dict(estimator="psychic"),
        dict(mode="sideways"),
        dict(s=0.0),
        dict(kappa=1.0),
        dict(samples=-5),
        dict(eps=(0.5, 0.0)),
        dict(eps=(0.3, 0.5)),
        dict(eps=(math.inf, 0.5)),
        dict(r_grid=(4.0, 2.0)),
        dict(r_grid=(-1.0, 2.0)),
        dict(a_grid=(2.0, 2.0)),
    ):
        with pytest.raises(ConfigurationError):
            cli.ExperimentConfig(**base, **bad).validate()
    with pytest.raises(ConfigurationError, match="r-grid"):
        cli.ExperimentConfig(experiment="quantize", seed=1).validate()


def test_config_hash_semantics():
    cfg = cli.resolve_config(ns("sbf", seed="1", model="scalar"))
    assert cli.config_hash(cfg) == cli.config_hash(replace(cfg, out="elsewhere"))
    assert cli.config_hash(cfg) != cli.config_hash(replace(cfg, seed=2))
    assert "out" not in cfg.public_dict()


def test_resolve_model_grid_override():
    cfg = cli.resolve_config(ns("sbf", seed="1", grid_n="64"))
    model = cli._resolve_model(cfg)
    assert isinstance(model, WienerPath) and model.n_steps == 64
    scalar_cfg = cli.resolve_config(ns("sbf", seed="1", model="scalar", grid_n="64"))
    with pytest.raises(ConfigurationError):
        cli._resolve_model(scalar_cfg)


# -- serialization ---------------------------------------------------------


def test_cell_formatting_round_trips():
    assert cli._cell(None) == ""
    assert cli._cell(True) == "true" and cli._cell(False) == "false"
    assert cli._cell(math.nan) == "nan"
    assert cli._cell(math.inf) == "inf" and cli._cell(-math.inf) == "-inf"
    for x in (0.1, 1.0 / 3.0, 1e-300, 4.052499530615389):
        assert float(cli._cell(x)) == x


def test_render_table_csv_and_json():
    columns = ["a", "b", "c"]
    rows = [{"a": 1, "b": 0.1, "c": None}, {"a": 2, "b": True, "c": "x"}]
    blob = cli.render_table(columns, rows, "csv")
    assert blob.decode().splitlines() == ["a,b,c",
                                          "1,0.10000000000000001,",
                                          "2,true,x"]
    assert b"\r" not in blob
    data = json.loads(cli.render_table(columns, rows, "json"))
    assert data["columns"] == columns
    assert data["rows"][0] == {"a": 1, "b": 0.1, "c": None}


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "table.csv"
    cli.atomic_write(target, b"hello\n")
    assert target.read_bytes() == b"hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


# -- end-to-end runs ----------------------------------------------------------


def run_cfg(tmp_path, name, **kw):
    out = tmp_path / name
    cfg = cli.resolve_config(ns(kw.pop("experiment", "sbf"), out=str(out), **kw))
    code = cli.run_experiment(cfg)
    return code, out, cfg


def test_sbf_scalar_end_to_end(tmp_path, capsys):
    code, out, cfg = run_cfg(tmp_path, "r1", model="scalar", seed="7", eps="1.0,0.5")
    assert code == 0
    assert (out / "sbf.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifact_version"] == cli.ARTIFACT_VERSION
    assert manifest["experiment"] == "sbf"
    assert manifest["config"] == cfg.public_dict()
    assert manifest["config_hash"] == cli.config_hash(cfg)
    assert manifest["tables"] == {"sbf": "sbf.csv"}
    assert manifest["summary"] == {"pass": 0, "fail": 0, "informational": 0}
    assert "manifest.json" in capsys.readouterr().out
    header, first, second = (out / "sbf.csv").read_text().splitlines()
    assert header.startswith("model,norm,eps,phi")
    assert first.split(",")[2] == "1"  # eps column, largest radius first
    # the analytic scalar value is frozen by the estimator tests; here we
    # only pin the serialization (17 significant digits, exact re-parse)
    phi = float(first.split(",")[3])
    assert phi == pytest.approx(0.38171514630212616, rel=1e-15)


def test_rerun_is_byte_identical(tmp_path):
    _, out1, _ = run_cfg(tmp_path, "a", experiment="rsbf", model="scalar", seed="11",
                         eps="1.0,0.5", samples="20000", centers="32", estimator="mc")
    _, out2, _ = run_cfg(tmp_path, "b", experiment="rsbf", model="scalar", seed="11",
                         eps="1.0,0.5", samples="20000", centers="32", estimator="mc")
    for name in ("rsbf_samples.csv", "rsbf_gauge.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_worker_count_never_changes_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("SMALLBALL_WORKERS", "1")
    _, out1, _ = run_cfg(tmp_path, "w1", experiment="rsbf", model="scalar", seed="13",
                         eps="1.0,0.5", samples="20000", centers="32", estimator="mc")
    monkeypatch.setenv("SMALLBALL_WORKERS", "5")
    _, out2, _ = run_cfg(tmp_path, "w5", experiment="rsbf", model="scalar", seed="13",
                         eps="1.0,0.5", samples="20000", centers="32", estimator="mc")
    for name in ("rsbf_samples.csv", "rsbf_gauge.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("experiment, extra, tables", [
    ("sbf", {}, ("sbf.csv",)),
    ("rsbf", {"centers": "4"}, ("rsbf_samples.csv", "rsbf_gauge.csv")),
])
def test_splitting_bytes_do_not_depend_on_the_pool_width(tmp_path, monkeypatch,
                                                         experiment, extra, tables):
    # splitting is the route that runs replicas on the pool
    blobs = []
    for workers in ("1", "3"):
        monkeypatch.setenv("SMALLBALL_WORKERS", workers)
        _, out, _ = run_cfg(tmp_path, f"{experiment}-w{workers}", experiment=experiment,
                            model="wiener:n=64", norm="lp:p=2", eps="0.3,0.2",
                            estimator="splitting", seed="17", **extra)
        blobs.append([(out / name).read_bytes() for name in tables + ("manifest.json",)])
    assert blobs[0] == blobs[1]


QUANTIZE_SMALL = {"r_grid": "2,5", "samples": "200", "centers": "8"}


@pytest.mark.parametrize("experiment, extra, tables", [
    ("quantize", QUANTIZE_SMALL | {"norm": "sup"}, ("quantize.csv", "quantize_gauge.csv")),
    ("quantize", QUANTIZE_SMALL | {"norm": "lp:p=2"}, ("quantize.csv",)),
    ("constants", {"mode": "both", "a_grid": "1,2", "centers": "4"},
     ("constants.csv", "constants_series.csv")),
])
def test_pooled_sweeps_and_codebooks_do_not_change_bytes(tmp_path, monkeypatch,
                                                          experiment, extra, tables):
    # codebook batches, transfer panels, hard-series horizons and eps_fit
    # radii run on the pool
    blobs = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMALLBALL_WORKERS", workers)
        code, out, _ = run_cfg(tmp_path, f"{experiment}-w{workers}", experiment=experiment,
                               model="wiener:n=32", seed="29", **extra)
        assert code in (0, 3)
        blobs.append([(out / name).read_bytes() for name in tables + ("manifest.json",)])
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_run_holds_one_blas_thread(tmp_path, monkeypatch, workers):
    # from before the first sweep to the end of the command, pooled or not,
    # and back to the count it found on an error exit too
    log = []
    monkeypatch.setattr(streams, "_openblas_threads",
                        lambda: (lambda: 2, lambda n: log.append(("threads", n))))
    real = transfer._sweep_edges

    def recorded(*args):
        log.append("sweep")
        return real(*args)

    monkeypatch.setattr(transfer, "_sweep_edges", recorded)
    monkeypatch.setenv("SMALLBALL_WORKERS", workers)
    argv = ["rsbf", "--model", "wiener:n=32", "--centers", "8", "--eps", "0.6,0.5",
            "--seed", "3", "--out"]
    assert cli.main(argv + [str(tmp_path / "ok")]) == 0
    assert "sweep" in log
    assert log[0] == ("threads", 1) and log[-1] == ("threads", 2)
    assert log.count(("threads", 1)) == log.count(("threads", 2)) == 1

    def failing(*args):
        log.append("sweep")
        raise RuntimeError("a failing sweep")

    log.clear()
    monkeypatch.setattr(transfer, "_sweep_edges", failing)
    assert cli.main(argv + [str(tmp_path / "err")]) == 2
    assert log[0] == ("threads", 1) and log[-1] == ("threads", 2) and "sweep" in log
    assert log.count(("threads", 1)) == log.count(("threads", 2)) == 1


def test_json_format_run(tmp_path):
    code, out, _ = run_cfg(tmp_path, "j", model="scalar", seed="7", eps="1.0",
                           format="json")
    assert code == 0
    data = json.loads((out / "sbf.json").read_text())
    assert data["columns"][0] == "model"
    assert data["rows"][0]["eps"] == 1.0


# -- exit codes ---------------------------------------------------------------


def test_main_happy_path(tmp_path, capsys):
    code = cli.main(["sbf", "--seed", "5", "--model", "scalar",
                     "--out", str(tmp_path / "m")])
    assert code == 0
    assert "wall_time_s=" in capsys.readouterr().err


@pytest.mark.parametrize("argv, table", [
    (["sbf", "--model", "scalar", "--estimator", "mc", "--eps", "10"], "sbf.csv"),
    (["rsbf", "--model", "scalar", "--estimator", "mc", "--eps", "9,8", "--centers", "4"],
     "rsbf_samples.csv"),
])
def test_main_all_hits_mc_is_exit_0(tmp_path, argv, table):
    # radii so wide that every sample hits: the plug-in stderr is 0, which
    # the estimate type reserves for analytic estimates
    out = tmp_path / "h"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        code = cli.main(argv + ["--samples", "1000", "--seed", "1", "--out", str(out)])
    assert code == 0
    header, *rows = [line.split(",") for line in (out / table).read_text().splitlines()]
    assert rows
    for row in rows:
        cell = dict(zip(header, row))
        assert cell["bound"] == "false"
        assert 0.0 < float(cell["stderr"]) < math.inf
        assert math.isfinite(float(cell["phi" if "phi" in cell else "ell"]))
    # a full ball has cost +0; no table may carry a signed zero
    for written in out.glob("*.csv"):
        for line in written.read_text().splitlines():
            assert "-0" not in line.split(","), written.name


def test_censored_panel_writes_no_average(tmp_path):
    # every center of this panel has zero hits: four bound rows, whose costs
    # are only lower bounds, so the gauge must not average them
    out = tmp_path / "c"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        code = cli.main(["rsbf", "--model", "wiener:n=16", "--norm", "sup:a=0,b=0.5",
                         "--eps", "0.05", "--centers", "4", "--estimator", "mc",
                         "--samples", "1000", "--seed", "1", "--out", str(out)])
    assert code == 0
    header, *rows = [line.split(",") for line in (out / "rsbf_samples.csv").read_text()
                     .replace('"sup:a=0,b=0.5"', "sup").splitlines()]
    assert len(rows) == 4 and all(dict(zip(header, r))["bound"] == "true" for r in rows)
    header, row = [line.split(",") for line in (out / "rsbf_gauge.csv").read_text()
                   .replace('"sup:a=0,b=0.5"', "sup").splitlines()]
    gauge = dict(zip(header, row))
    for col in ("mean", "mean_se", "median", "median_lo", "median_hi", "iqr", "stddev",
                "rel_iqr", "moment_p1", "moment_p2"):
        assert gauge[col] == "nan", col


def test_main_config_errors(tmp_path, capsys):
    assert cli.main(["sbf", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"]["kind"] == "config"

    assert cli.main(["sbf", "--model", "scalar"]) == 1
    err = capsys.readouterr().err
    assert "seed" in json.loads(err.splitlines()[-1])["error"]["message"]

    assert cli.main(["plotdata", "--manifest", str(tmp_path / "nowhere")]) == 1


def test_main_runtime_error_is_exit_2(tmp_path, monkeypatch, capsys):
    def boom(cfg, stream):
        raise DataError("midway failure")

    monkeypatch.setitem(cli._COMMANDS, "sbf", boom)
    code = cli.main(["sbf", "--seed", "5", "--model", "scalar",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    report = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert report["error"]["kind"] == "DataError"


@pytest.mark.parametrize("fault, name", [
    (MemoryError("Unable to allocate 64.0 GiB"), "MemoryError"),
    (np.linalg.LinAlgError("Singular matrix"), "LinAlgError"),
    (ValueError("operands could not be broadcast together"), "ValueError"),
    (None, "FloatingPointError"),  # raised in a pool worker
])
def test_main_unexpected_exception_is_internal_exit_2(tmp_path, monkeypatch, capsys,
                                                      fault, name):
    def task(t):
        if t == 1:
            raise FloatingPointError("overflow in worker")
        return t

    def boom(cfg):
        if fault is None:
            return keyed_map(task, [0, 1, 2], workers=2)
        raise fault

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(["sbf", "--seed", "5", "--model", "scalar",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["error"]["kind"] == "internal"
    assert report["error"]["message"].startswith(name + ": ")


def test_failed_verdict_is_exit_3(tmp_path, monkeypatch, capsys):
    def fake(cfg, stream):
        verdicts = [{"report": "demo", "claim": "must-hold", "passed": False,
                     "observed": 2.0, "threshold": 1.0, "note": "synthetic"}]
        return {"demo": (["v"], [{"v": 1}])}, verdicts

    monkeypatch.setitem(cli._COMMANDS, "sbf", fake)
    cfg = cli.resolve_config(ns("sbf", seed="1", model="scalar",
                                out=str(tmp_path / "f")))
    assert cli.run_experiment(cfg) == 3
    manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
    assert manifest["summary"]["fail"] == 1
    assert "FAIL demo/must-hold" in capsys.readouterr().out


# -- plotdata -----------------------------------------------------------------


def check_fig(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,y_lo,y_hi,series"
    for line in lines[1:]:
        x, y, lo, hi, series = line.split(",")
        assert float(lo) <= float(y) <= float(hi)
        assert series
    return lines


def test_plotdata_from_rsbf_run(tmp_path):
    _, out, _ = run_cfg(tmp_path, "r", experiment="rsbf", model="scalar", seed="17",
                        eps="1.0,0.5", samples="20000", centers="32")
    figs = cli.cmd_plotdata(str(out), str(tmp_path / "figs"))
    names = {p.name for p in figs}
    assert "fig_gauge_vs_eps.csv" in names
    assert "fig_scaled_gauge_vs_eps.csv" in names
    for p in figs:
        lines = check_fig(p)
        assert len(lines) > 1


def test_plotdata_gives_bound_rows_their_own_open_series(tmp_path):
    # no hit at eps 1e-4: the cost is only known to be at least phi
    out = tmp_path / "b"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        assert cli.main(["sbf", "--model", "scalar", "--eps", "1,0.0001", "--estimator", "mc",
                         "--samples", "100", "--seed", "1", "--out", str(out)]) == 0
    cli.cmd_plotdata(str(out), None)
    rows = [line.split(",") for line in check_fig(out / "fig_gauge_vs_eps.csv")[1:]]
    assert [r[4] for r in rows] == ["centered", "centered-bound"]
    x, y, lo, hi, _ = rows[1]
    assert float(x) == 1e-4 and lo == y and hi == "inf"
    assert float(rows[0][2]) < float(rows[0][1]) < float(rows[0][3])


def test_plotdata_skips_censored_gauge_points(tmp_path):
    # every center is a zero-hit bound at eps 0.05, none at eps 0.5
    out = tmp_path / "c"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        assert cli.main(["rsbf", "--model", "wiener:n=16", "--norm", "sup:a=0,b=0.5",
                         "--eps", "0.5,0.05", "--centers", "4", "--estimator", "mc",
                         "--samples", "1000", "--seed", "1", "--out", str(out)]) == 0
    figs = cli.cmd_plotdata(str(out), None)
    assert {p.name for p in figs} == {"fig_gauge_vs_eps.csv", "fig_scaled_gauge_vs_eps.csv"}
    for p in figs:
        rows = [line.split(",") for line in check_fig(p)[1:]]
        assert rows and all(float(r[0]) == 0.5 for r in rows)
        assert "nan" not in p.read_text()


def test_plotdata_from_constants_run(tmp_path):
    code, out, _ = run_cfg(tmp_path, "c", experiment="constants", model="wiener:n=32",
                           seed="19", a_grid="1,2", centers="4")
    assert code == 0
    figs = cli.cmd_plotdata(str(out / "manifest.json"), None)
    names = {p.name for p in figs}
    assert "fig_rate_vs_a.csv" in names
    lines = check_fig(out / "fig_rate_vs_a.csv")
    assert any("rate-hard" in line for line in lines[1:])


def test_quantize_scans_each_rate_once(tmp_path, monkeypatch):
    calls = []
    real = cli.sample_nearest

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_nearest", counted)
    code, out, _ = run_cfg(tmp_path, "q1", experiment="quantize", model="wiener:n=32",
                           seed="23", r_grid="2,4", samples="512", centers="32")
    assert code in (0, 3)
    assert calls == [2.0, 4.0]
    header, *rows = (out / "quantize.csv").read_text().splitlines()
    assert any(dict(zip(header.split(","), r.split(",")))["coverage_rate"] for r in rows)


def tables_digest(out: Path) -> str:
    """sha256 over a run's output files, as bench/run.py digests them."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_quantize_sweeps_each_centered_radius_once(tmp_path, monkeypatch):
    # the quantize-sup benchmark run at its seed 0, and the digest of its tables
    argv = ["quantize", "--model", "wiener:n=256", "--norm", "sup", "--r-grid", "4,8",
            "--s", "2", "--seed", "3", "--out", str(tmp_path / "q")]
    radii = []
    real = estimators.log_mass

    def counted(model, norm_spec, centers, eps):
        radii.append(eps)
        return real(model, norm_spec, centers, eps)

    monkeypatch.setattr(estimators, "log_mass", counted)
    assert cli.main(argv) == 0
    # both depth inversions start from the bracket ends 50 and depth_floor
    assert {50.0, depth_floor(WienerPath(256), parse_norm("sup"))} <= set(radii)
    assert len(radii) == len(set(radii))
    assert tables_digest(tmp_path / "q") == (
        "d9d52bdf26af4ce9cec22e9bf2eed5e36d64a7fb333495f6266e88c648e0a916")


def test_constants_both_tables_are_pinned(tmp_path):
    # the constants-both benchmark run at its seed 0: free-start tube sweeps
    # on the pool, and the digest of its tables
    argv = ["constants", "--mode", "both", "--centers", "24", "--seed", "5",
            "--out", str(tmp_path / "c")]
    assert cli.main(argv) == 0
    assert tables_digest(tmp_path / "c") == (
        "1c9aaf2b5452a9c071cd26b35c2ce5e3af314039bd76b98cc9348eafd6aab5d2")


def test_quantize_draws_codebooks_over_the_memory_budget(tmp_path, monkeypatch):
    argv = ["quantize", "--model", "wiener:n=16", "--norm", "lp:p=2", "--r-grid", "6",
            "--samples", "128", "--seed", "4", "--out"]
    assert cli.main(argv + [str(tmp_path / "free")]) == 0
    # floor(e^6) = 403 words of 17 float32 nodes: one byte short of one codebook
    monkeypatch.setattr(quantization, "MEMORY_BUDGET", 403 * 17 * 4 - 1)
    with pytest.raises(ConfigurationError, match="budget"):
        quantization.build_codebook(WienerPath(16), 6.0, RandomStream(4))
    assert cli.main(argv + [str(tmp_path / "capped")]) == 0
    assert tables_digest(tmp_path / "capped") == tables_digest(tmp_path / "free")


def test_eps_for_depth_inverts_to_tight_tolerance():
    calls = []

    def depth(e):
        calls.append(e)
        return 2.0 / e**2

    assert cli._eps_for_depth(depth, 8.0) == pytest.approx(0.5, rel=1e-13)
    assert len(calls) < 80
    with pytest.raises(RangeError):
        cli._eps_for_depth(depth, 1e-6)


def test_eps_for_depth_starts_at_the_first_finite_radius():
    # the wiener:n=256 sup depth is +inf below a quarter cell; the inversion
    # must never ask for it, and only the bracket check may land on the flat
    # wide end, where each sweep spans thousands of cells
    model = WienerPath(n_steps=256)
    spec = parse_norm("sup")
    depth = centered_depth(model, spec)
    lo = depth_floor(model, spec)
    assert math.isfinite(depth(lo))
    assert depth(lo / (1.0 + 2.0**-20) * (1.0 - 2.0**-20)) == math.inf
    for target in (0.5, 9.8):
        calls = []

        def logged(e):
            calls.append((e, depth(e)))
            return calls[-1][1]

        eps = cli._eps_for_depth(logged, target, lo)
        assert depth(eps) == pytest.approx(target, rel=1e-9)
        assert all(math.isfinite(d) for _, d in calls)
        assert sum(e >= 5.0 for e, _ in calls) <= 1


def _inversions(depth_fn, targets, lo=1e-8):
    """What _eps_for_depth hands to the root finder, for each target."""
    return [(lambda v, t=t: depth_fn(v**-0.5) - t, 50.0**-2, lo**-2) for t in targets]


def test_brentq_port_equals_scipy_on_the_depths_it_inverts():
    from scipy.optimize import brentq  # the reference the port follows step for step

    wiener = WienerPath(n_steps=256)
    sup = parse_norm("sup")
    cases = (_inversions(centered_depth(wiener, sup), (0.5, 2.0, 9.8, 30.0),
                         depth_floor(wiener, sup))
             + _inversions(centered_depth(Scalar(), sup), (0.1, 1.0, 5.0))
             + _inversions(lambda e: sbf_analytic(BrownianBridge(n_steps=64), sup, e).phi,
                           (0.5, 4.0, 20.0)))
    for f, a, b in cases:
        got = cli._brentq(f, a, b)
        assert type(got) is float
        assert got == brentq(f, a, b, xtol=cli.BRENT_XTOL, rtol=cli.BRENT_RTOL)


def test_brentq_port_equals_scipy_on_random_monotone_functions():
    from scipy.optimize import brentq

    rng = np.random.default_rng(2024)
    for _ in range(3000):
        a, b = np.sort(rng.uniform(-5.0, 5.0, 2))
        root, power, wiggle = rng.uniform(a - 0.5, b + 0.5), rng.uniform(0.2, 5.0), rng.normal()

        def f(x):
            return math.copysign(abs(x - root) ** power, x - root) + 0.01 * wiggle * math.tanh(x)

        try:
            want = brentq(f, a, b, xtol=cli.BRENT_XTOL, rtol=cli.BRENT_RTOL)
        except ValueError as exc:  # no sign change: the port refuses alike
            with pytest.raises(ValueError, match="different signs"):
                cli._brentq(f, a, b)
            assert "different signs" in str(exc)
            continue
        assert cli._brentq(f, a, b) == want


def test_brentq_port_errors():
    with pytest.raises(ValueError, match="NaN"):
        cli._brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        cli._brentq(lambda x: x + 2.0, 0.0, 1.0)
    # a root at 0 under an absolute tolerance of 1e-300 takes about 1,000 halvings
    with pytest.raises(RuntimeError, match="after 100 iterations"):
        cli._brentq(lambda x: math.copysign(abs(x) ** 0.1, x), -1.0, 3.0)
    depth = centered_depth(Scalar(), parse_norm("sup"))
    with pytest.raises(RangeError, match="outside"):  # the ends do not bracket the target
        cli._eps_for_depth(depth, 1e4)


def test_cold_import_loads_neither_scipy_optimize_nor_scipy_special(tmp_path):
    # the sup quantize run inverts its depth curve and pools the gauge
    # inverse without either module; a scalar sbf run loads scipy.special
    # on first use and writes the frozen value of test_sbf_scalar_end_to_end
    script = (
        "import json, sys\n"
        "import smallball.cli as cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code] + [m in sys.modules for m in "
        "('scipy.optimize', 'scipy.special')]))\n"
    )
    runs = {
        "quantize": ["quantize", "--model", "wiener:n=64", "--norm", "sup",
                     "--r-grid", "2,4", "--seed", "3"],
        "sbf": ["sbf", "--model", "scalar", "--eps", "1.0,0.5", "--seed", "7"],
    }
    loaded = {}
    for name, argv in runs.items():
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(out)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        loaded[name] = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["quantize"][1:] == [False, False]
    assert loaded["quantize"][0] in (0, 3)
    assert loaded["sbf"] == [0, False, True]
    first = (tmp_path / "sbf" / "sbf.csv").read_text().splitlines()[1]
    assert float(first.split(",")[3]) == pytest.approx(0.38171514630212616, rel=1e-15)


def test_distortion_match_needs_the_growth_hypothesis(tmp_path):
    # the scalar depth grows like log(1/eps), outside the claim's hypothesis;
    # the Brownian sup depth grows like eps^-2 and is decided
    passed = {}
    for model in ("scalar", "wiener:n=32"):
        code, out, _ = run_cfg(tmp_path, model.split(":")[0], experiment="quantize",
                               model=model, seed="3", r_grid="1,2")
        assert code in (0, 3)
        manifest = json.loads((out / "manifest.json").read_text())
        passed[model] = [v["passed"] for v in manifest["verdicts"]
                         if v["claim"] == "distortion-gauge-match"]
    assert passed["scalar"] == [None]
    assert passed["wiener:n=32"] in ([True], [False])


def test_verify_all_runs_on_a_grid_with_fewer_steps_than_knots(tmp_path):
    # the membership certificate takes one knot per step below 32 steps
    out = tmp_path / "v"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowerWarning)
        code = cli.main(["verify-all", "--model", "wiener:n=16", "--samples", "2000",
                         "--seed", "1", "--out", str(out)])
    assert code in (0, 3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(v["claim"] == "log-lipschitz" for v in manifest["verdicts"])


def test_verify_all_skips_doubling_upper_on_a_finite_spectrum(tmp_path):
    # a k-coordinate depth grows like k log(1/eps): its doubling ratios sit
    # near 1, and the two-scale upper claim is not made for it
    out = tmp_path / "f"
    code = cli.main(["verify-all", "--model", "finite:lambdas=1/0.5/0.25", "--seed", "3",
                     "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    claims = {v["claim"] for v in manifest["verdicts"]}
    assert "doubling-lower" in claims
    assert "doubling-upper" not in claims
    assert code == 0


def test_splitting_refuses_replicas_over_the_memory_budget(tmp_path, capsys):
    # 128 centers of wiener:n=1024 hold 770 MiB of buffers per live replica
    code = cli.main(["rsbf", "--model", "wiener:n=1024", "--norm", "lp:p=2",
                     "--estimator", "splitting", "--centers", "128", "--eps", "0.3",
                     "--seed", "1", "--out", str(tmp_path / "m")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "config"
    assert "MiB budget" in error["message"]
    assert not (tmp_path / "m" / "manifest.json").exists()


@pytest.mark.parametrize("argv, supported", [
    (["rsbf", "--model", "wiener:n=64"], "transfer, mc, splitting"),
    (["verify-all", "--model", "bridge:n=32"], "mc, splitting"),
])
def test_panel_asked_for_a_missing_closed_form_is_refused(tmp_path, capsys, argv, supported):
    # a requested route is never swapped for another one
    code = cli.main(argv + ["--estimator", "analytic", "--seed", "1",
                            "--out", str(tmp_path / "m")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith("no analytic route for shifted balls of ")
    assert error["message"].endswith("under sup; supported: " + supported)
    assert not (tmp_path / "m" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["quantize", "--model", "wiener:n=64", "--r-grid", "1,2"],
    ["constants", "--model", "wiener:n=64", "--a-grid", "1,2"],
])
@pytest.mark.parametrize("from_file", [False, True])
def test_estimator_is_refused_where_it_is_not_read(tmp_path, capsys, argv, from_file):
    if from_file:
        f = tmp_path / "run.ini"
        f.write_text("estimator = analytic\n")
        extra = ["--config", str(f)]
    else:
        extra = ["--estimator", "mc"]
    code = cli.main(argv + extra + ["--seed", "3", "--out", str(tmp_path / "m")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith(f"{argv[0]} does not read the estimator")
    assert not (tmp_path / "m").exists()
    # auto, spelled out or from a file, is the default run
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv + ["--seed", "3"]))
    f = tmp_path / "auto.ini"
    f.write_text("estimator = auto\n")
    auto = cli.resolve_config(cli.build_parser().parse_args(
        argv + ["--seed", "3", "--config", str(f)]))
    assert cli.config_hash(auto) == cli.config_hash(cfg)


def test_scalar_rsbf_rows_are_exact(tmp_path):
    code, out, _ = run_cfg(tmp_path, "s", experiment="rsbf", model="scalar", seed="11",
                           eps="1.0,0.5", centers="30")
    assert code == 0
    header, *rows = [line.split(",") for line in (out / "rsbf_samples.csv").read_text()
                     .splitlines()]
    assert len(rows) == 60
    for row in rows:
        cell = dict(zip(header, row))
        assert (cell["method"], cell["stderr"], cell["bound"]) == ("analytic", "0", "false")


def test_plotdata_from_quantize_run(tmp_path):
    code, out, _ = run_cfg(tmp_path, "q", experiment="quantize", model="wiener:n=32",
                           seed="23", r_grid="2,4", samples="512", centers="32")
    assert code in (0, 3)  # the tiny-run verdict may land either way
    figs = cli.cmd_plotdata(str(out), None)
    names = {p.name for p in figs}
    assert "fig_distortion_vs_r.csv" in names
    lines = check_fig(out / "fig_distortion_vs_r.csv")
    assert any("distortion" in line for line in lines[1:])
