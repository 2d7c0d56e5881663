"""The benchmark's workloads: each is a fixed list of experiment invocations.

An operation is one `memsnn.harness.main` call.  Its label names the output
directory it writes and the checker that reads it (see checks.py).  Every
experiment runs at the default configuration and is deterministic, so the
lists take no seed.
"""

WORKLOADS = {
    # The acceptance-gate pair: the network engine (run_frame -> drive ->
    # segment RK4) carries most of the time; closed-loop programming runs
    # only in the midpoint init.  The midpoint check compares with the zero
    # run, so zero comes first.
    "pattern-learn": (
        ("pattern-learn-zero", ("pattern-learn", "--init", "zero")),
        ("pattern-learn-midpoint", ("pattern-learn", "--init", "midpoint")),
    ),
    # 52 closed-loop programmings, one Python call per micro-pulse, and the
    # only run of the VTEAM branch kernels; engine frames are a small share.
    "stdp-windows": (
        ("stdp-window", ("stdp-window",)),
        ("stdp-window-vteam", ("stdp-window-vteam",)),
    ),
    # No network: single-device sine sweeps, long fixed-step
    # apply_differential segments and the largest CSV.
    "device-sweeps": (
        ("hysteresis", ("hysteresis",)),
        ("switch-rate", ("switch-rate",)),
        ("synapse-pd", ("synapse-pd",)),
        ("weak-strong-calibration", ("weak-strong-calibration",)),
    ),
}
