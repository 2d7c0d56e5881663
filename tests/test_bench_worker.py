"""Smoke test of one traced benchmark round of each workload.  The worker
and its tracer read names from the package (`_kernels.HAVE_NUMBA` and the
kernel aliases, `SynapseAssembly.apply_differential`, the wrapped methods),
so a change that drops one fails here, not only when the benchmark runs."""
import json
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def traced_round(tmp_path, workload):
    """The layer metrics of one traced round of `workload`, whose every
    operation exits 0."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--trace",
         "--t0", repr(time.monotonic()), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_codes"] and set(result["exit_codes"].values()) == {0}, proc.stderr
    return result["layers"]


def test_traced_stdp_windows_round(tmp_path):
    layers = traced_round(tmp_path, "stdp-windows")
    for name in ("network.frames", "synapse.drive_calls", "synapse.program_to_weight_calls"):
        assert layers[name][0] > 0, name


def test_traced_pattern_learn_round(tmp_path):
    # 300 epochs of 10 frames each, at zero and at midpoint init
    assert traced_round(tmp_path, "pattern-learn")["network.frames"][0] == 6000


def test_traced_device_sweeps_round(tmp_path):
    layers = traced_round(tmp_path, "device-sweeps")
    for name in ("device.hysteresis_sweep_s", "harness.csv_bytes"):
        assert layers[name][0] > 0, name
