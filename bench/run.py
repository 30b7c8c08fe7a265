"""smallball benchmark: four CLI workloads, timed end to end, traced per layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src`` goes on the path of each
child interpreter, nothing is installed. Each operation is one smallball
invocation in a fresh interpreter with at most nproc BLAS/OpenMP threads.
Operations repeat in whole rounds while another round still fits in S
seconds (always at least one). After timing, each operation's tables pass
the output checks in ``checks.py``, and every operation of a run must write
byte-identical tables.

--trace 0 reports the end-to-end metrics: wall_s (median time of the
experiment call), setup_s (median import time of fresh interpreters),
peak_rss_mb. --trace 1 runs each round twice, plain then traced, and reports
the per-layer metrics plus trace.overhead_s (traced minus plain wall time).
The last stdout line is the JSON result; the same result, the environment
and the table hashes go to bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = BENCH_DIR / "out"
SETUP_PROBES = 2  # fresh interpreters per run that only import, besides each operation's own
OP_TIMEOUT_S = 160
SEED_STRIDE = 1000  # --seed n runs the CLI at base_seed + 1000 n


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    base_seed: int
    n_steps: int  # the model grid, which the checks' references need


WORKLOADS = {
    # sweep-heavy: bisection inverting the depth curve plus a 160-center transfer panel
    "quantize-sup": Workload(("quantize", "--model", "wiener:n=256", "--norm", "sup",
                              "--r-grid", "4,8", "--s", "2"), 3, 256),
    # scan-heavy: 22,026-word nearest-codeword scan at r=10, no sweep
    "quantize-lp": Workload(("quantize", "--model", "wiener:n=256", "--norm", "lp:p=2",
                             "--r-grid", "5,10", "--s", "2"), 3, 256),
    # splitting: draws, norm evaluations and ladder bookkeeping, no sweep and no scan
    "sbf-split": Workload(("sbf", "--model", "wiener:n=1024", "--norm", "lp:p=2",
                           "--eps", "0.3,0.2,0.15,0.1", "--estimator", "splitting"), 11, 1024),
    # long free-start sweeps on wide grids, two-resolution extrapolation
    "constants-both": Workload(("constants", "--mode", "both", "--centers", "24"), 5, 256),
}


def check_context(wl: Workload) -> dict:
    """Fresh context for the output checks of one run."""
    return {"dt": 1.0 / wl.n_steps, "n_steps": wl.n_steps}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def run_child(src: Path, result: Path, log: Path, extra: list[str]) -> dict | None:
    """Run child.py; its result dict, or None if it failed or timed out."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--src", str(src),
           "--result", str(result)] + extra
    with log.open("w") as fh:
        try:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                  env=child_env(), timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not result.is_file():
        return None
    return json.loads(result.read_text())


def tables_digest(tables_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(tables_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def operation(name: str, wl: Workload, seed: int, src: Path, op_dir: Path,
              traced: bool, ctx: dict) -> dict:
    """One invocation plus its output checks."""
    op_dir.mkdir(parents=True)
    argv = list(wl.argv) + ["--seed", str(wl.base_seed + SEED_STRIDE * seed),
                            "--out", str(op_dir / "tables")]
    extra = (["--trace", str(op_dir / "spans.json")] if traced else []) + ["--"] + argv
    res = run_child(src, op_dir / "child.json", op_dir / "child.log", extra)
    op = {"dir": op_dir.name, "child": res, "failures": {}}
    if res is None or res["exit_code"] != 0:
        op["failures"] = {"exit": ["the experiment did not exit 0"]}
        return op
    try:
        manifest, tables = checks.load_outputs(op_dir / "tables")
    except (OSError, ValueError, KeyError) as exc:
        op["failures"] = {"tables": [f"unreadable output: {exc}"]}
        return op
    op["failures"] = {k: v for k, v in checks.run_checks(name, manifest, tables, ctx).items() if v}
    op["digest"] = tables_digest(op_dir / "tables")
    return op


def run_workload(name: str, seed: int, seconds: int, trace: bool, src: Path) -> dict:
    wl = WORKLOADS[name]
    run_dir = OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = check_context(wl)
    ops: list[dict] = []
    started = time.monotonic()
    rounds = 0
    while True:
        ops.append(operation(name, wl, seed, src, run_dir / f"round{rounds}", False, ctx))
        if trace:
            ops.append(operation(name, wl, seed, src, run_dir / f"round{rounds}-traced", True, ctx))
        rounds += 1
        elapsed = time.monotonic() - started
        if elapsed + elapsed / rounds > seconds:
            break
    probes = []
    for k in range(SETUP_PROBES):
        res = run_child(src, run_dir / f"setup{k}.json", run_dir / f"setup{k}.log",
                        ["--setup-only"])
        if res is not None:
            probes.append(res["setup_s"])

    done = [op["child"] for op in ops if op["child"] is not None]
    failed = sum(1 for op in ops if op["failures"])
    digests = {op.get("digest") for op in ops}
    plain = [c for c in done if "layers" not in c]
    traced = [c for c in done if "layers" in c]
    metrics = {}
    if trace and plain and traced:
        metrics = {k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                       - statistics.median(p["wall_s"] for p in plain))
    elif not trace and plain:
        metrics = {"wall_s": statistics.median(p["wall_s"] for p in plain),
                   "setup_s": statistics.median([p["setup_s"] for p in plain] + probes),
                   "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    units = unit_table(trace)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "argv": list(wl.argv), "cli_seed": wl.base_seed + SEED_STRIDE * seed,
              "rounds": rounds, "env": done[0]["env"] if done else None,
              "setup_probes": probes, "digests": sorted(d for d in digests if d),
              "failures": {op["dir"]: op["failures"] for op in ops if op["failures"]},
              "result": result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def unit_table(trace: bool) -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    src = Path.cwd() / "src"
    if not (src / "smallball" / "cli.py").is_file():
        print("bench: no src/smallball here; run from the root of a smallball checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), src) for n in names]
    for rec in records:
        print(json.dumps({"workload": rec["workload"], "env": rec["env"],
                          "digests": rec["digests"], "failures": rec["failures"]}, sort_keys=True))
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
