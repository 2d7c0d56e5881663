"""One round of a workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload NAME --out DIR --t0 T [--trace] [--setup-only]

T is the CLOCK_MONOTONIC time at which run.py started this process, so
set-up time runs from process start to the first experiment call: the
interpreter, `import memsnn` and `load_config`.  The workload's operations
then run in order through `memsnn.harness.main`, each writing to DIR/<label>.
The last line of standard output is one JSON object with the timings.
"""
import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from memsnn import harness
    harness.load_config()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    from workloads import WORKLOADS
    ops = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = None
    run_main = harness.main
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    exit_codes, op_wall = {}, {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for label, argv in ops:
        call = tracer.span("experiment." + label, run_main) if tracer else run_main
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                exit_codes[label] = call([*argv, "--out", str(out / label)])
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            exit_codes[label] = None
        op_wall[label] = time.perf_counter() - t
    result.update(wall_s=time.perf_counter() - wall0, cpu_s=time.process_time() - cpu0,
                  peak_rss_mb=peak_rss_mb(),
                  exit_codes=exit_codes, op_wall_s=op_wall)

    from memsnn import _kernels
    import numpy
    result["env"] = {"backend": "numba" if _kernels.HAVE_NUMBA else "python",
                     "python": sys.version.split()[0], "numpy": numpy.__version__}
    if tracer:
        tracer.save(out / "trace.npz")
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


def peak_rss_mb():
    """High-water resident set of this process image.  ru_maxrss is not
    used: across exec it keeps the high-water mark of the forking parent."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
