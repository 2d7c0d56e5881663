"""Smoke test of one traced benchmark round.  The worker and its tracer read
names from the package (`_kernels.HAVE_NUMBA` and the kernel aliases,
`SynapseAssembly.apply_differential`, the wrapped methods), so a change that
drops one fails here, not only when the benchmark runs."""
import json
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def test_traced_stdp_windows_round(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "stdp-windows", "--trace",
         "--t0", repr(time.monotonic()), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_codes"] and set(result["exit_codes"].values()) == {0}, proc.stderr
    for name in ("network.frames", "synapse.drive_calls", "synapse.program_to_weight_calls"):
        assert result["layers"][name][0] > 0, name
