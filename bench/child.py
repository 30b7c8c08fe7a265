"""One benchmark operation in a fresh interpreter.

    python3 bench/child.py --src SRC --result FILE [--setup-only] [--trace SPANS]
        -- <smallball arguments>

Times the import of ``smallball.cli`` up to a built parser (set-up), then,
unless ``--setup-only``, one ``smallball.cli.main`` call (wall time), and
writes both with the peak resident set size and the library versions to
FILE as JSON. ``--trace SPANS`` wraps the package's layer functions first,
adds the per-layer summary to FILE and writes the raw spans to SPANS.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (after T0 so set-up time covers only the package)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    import smallball.cli as cli

    cli.build_parser()
    result = {"setup_s": time.perf_counter() - T0}
    if not args.setup_only:
        import numpy
        import scipy

        result["env"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
                         "machine": platform.machine()}
        tracer = None
        if args.trace:
            import tracing  # a sibling file: the script's directory is on sys.path

            tracer = tracing.Tracer()
            tracer.install()
        t, c = time.perf_counter(), time.process_time()
        result["exit_code"] = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t
        result["cpu_s"] = time.process_time() - c
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.dump(Path(args.trace))
    Path(args.result).write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
