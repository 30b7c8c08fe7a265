"""The benchmark tracer (bench/tracing.py) still finds every function it
wraps, and the wrapped layers still count work on a small splitting run, a
small quantize run and a stored codebook (``quantize`` draws its codewords
inside the scan, so only the library builds one). A rename or a bypassed
call would otherwise leave ``bench/run.py --trace 1`` reporting zeros
without an error."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys, warnings
sys.path[:0] = [{src!r}, {bench!r}]
warnings.simplefilter("ignore")
import smallball.cli as cli
import smallball.quantization as quantization
import tracing
from smallball.models import WienerPath
from smallball.streams import RandomStream

tracer = tracing.Tracer()
tracer.install()
unwrapped = []
for mod_name, path, name, _ in tracing.TARGETS:
    owner = sys.modules[mod_name]
    for part in path.split("."):
        owner = getattr(owner, part)
    if not hasattr(owner, "__wrapped__"):
        unwrapped.append(name)
codes = [
    cli.main(["sbf", "--model", "wiener:n=32", "--norm", "lp:p=2", "--eps", "0.5,0.3",
              "--estimator", "splitting", "--seed", "1", "--out", {sbf_out!r}]),
    cli.main(["quantize", "--model", "wiener:n=32", "--norm", "sup", "--r-grid", "2,3",
              "--samples", "128", "--centers", "8", "--seed", "1", "--out", {q_out!r}]),
]
quantization.build_codebook(WienerPath(n_steps=32), 2.0, RandomStream(1))
print(json.dumps({{"codes": codes, "unwrapped": unwrapped, "layers": tracer.summary()}}))
"""


def test_tracer_wraps_every_target_and_counts_work(tmp_path):
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"),
                           sbf_out=str(tmp_path / "sbf"), q_out=str(tmp_path / "quantize"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["unwrapped"] == []
    assert result["codes"][0] == 0 and result["codes"][1] in (0, 3)
    layers = result["layers"]
    for key in ("models.normals", "norms.nodes", "estimators.ladder_levels",
                "quantization.codewords", "quantization.pair_nodes", "transfer.sweeps",
                "cli.inversion_sweeps"):
        assert layers[key] > 0, key
