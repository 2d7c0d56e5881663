"""Benchmark of the memsnn simulator, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the simulator is imported from
`src/`, so there is nothing to build.  The workloads are in workloads.py.
A run repeats rounds of the workload for about S seconds, each in a fresh
interpreter (worker.py) and each after a set-up probe, a fresh interpreter
that only sets up.  After every round the outputs of each operation are
checked (checks.py), and after the last one each checker must reject a
perturbed copy of its outputs.

With --trace 0 the run reports the end-to-end metrics, as medians over its
rounds and set-ups.  With --trace 1 it adds one traced round and reports the
per-layer metrics of that round plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Every experiment is deterministic at its default configuration, so the seed
changes no input; it is recorded with the run.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per process: the simulator is single-threaded, and a BLAS pool
# would only add threads that compete for the two cores.  A fixed hash seed
# gives every worker the same set and dict layouts.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["PYTHONHASHSEED"] = "0"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# every worker must end before this, so that a hung round still lets the run
# exit (non-zero) within three minutes
DEADLINE = time.monotonic() + 170.0


def git_sha():
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(workload, out, *flags):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--out", str(out), "--t0", repr(time.monotonic()), *flags]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(flags)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_round(workload, out, *flags):
    """One round in a fresh directory; returns (worker result, failed labels)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = start_worker(workload, out, *flags)
    failed = []
    for label, _ in WORKLOADS[workload]:
        code = result["exit_codes"][label]
        problems = ([f"raised or exited {code}"] if code != 0
                    else checks.check(label, out / label, out))
        for p in problems:
            print(f"{label}: {p}", file=sys.stderr)
        if problems:
            failed.append(label)
    return result, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "memsnn" / "__init__.py").is_file():
        print(f"no memsnn sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    # Whole rounds, each after a set-up probe, while a round's midpoint is
    # expected before S: the host's speed drifts over seconds, so set-up is
    # sampled throughout the run rather than in one burst.
    rounds, setups, failed = [], [], []
    t_start = time.monotonic()
    while True:
        setups.append(start_worker(args.workload, out, "--setup-only")["setup_s"])
        result, bad = run_round(args.workload, out / "round")
        rounds.append(result)
        setups.append(result["setup_s"])
        failed += bad
        elapsed = time.monotonic() - t_start
        if elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
            break
    wall = statistics.median(r["wall_s"] for r in rounds)

    traced = None
    if args.trace:
        traced, bad = run_round(args.workload, out / "traced", "--trace")
        failed += bad

    selftest = []
    for label, _ in WORKLOADS[args.workload]:
        if label not in failed:
            selftest += checks.self_test(label, out / "round" / label, out / "selftest")
    for problem in selftest:
        print(problem, file=sys.stderr)

    if traced:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "rounds": len(rounds), **rounds[0]["env"],
           "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0))}
    record = {"env": env, "setup_s": setups, "rounds": rounds, "traced": traced,
              "metrics": metrics}
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    for label, _ in WORKLOADS[args.workload]:
        secs = statistics.median(r["op_wall_s"][label] for r in rounds)
        print(f"op {label}: {secs:.3f} s median over {len(rounds)} rounds")
    n_ops = len(WORKLOADS[args.workload])
    print(json.dumps({"correct": not selftest,
                      "attempted": n_ops * (len(rounds) + (1 if traced else 0)),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
