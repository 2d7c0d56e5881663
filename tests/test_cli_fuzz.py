"""Property test of the CLI over the config schema: for every key, a drawn
value, valid or not, in a drawn experiment that reads the key exits 0, 2 or
3 without a traceback and inside a deadline (MacIver, Hatfield-Dodds et al.,
"Hypothesis: A new approach to property-based testing", JOSS 2019)."""
import contextlib
import io
import signal
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from memsnn.device import WindowSpec  # noqa: E402
from memsnn.harness import EXPERIMENTS, PARSERS, SCHEMA, main  # noqa: E402
from test_network import deadline  # noqa: E402

# every run starts from these small budgets; a drawn value may replace one
BUDGET = {"pattern.epochs": 1, "stdp.max_offset": 1, "stdp.settle_frames": 2,
          "hysteresis.pinched_cycles": 1, "hysteresis.hard_cycles": 1,
          "hysteresis.hard_freq": 10.0, "pd.cycles": 1}

# keys whose valid values are a few names, or must stay cheap to run
CHOICES = {
    "device.kind": ("proposed", "vteam"),
    "device.window.kind": WindowSpec.KINDS,
    "vteam.window.kind": WindowSpec.KINDS,
    "synapse.polarity": ("excitatory", "inhibitory"),
    "pattern.init": ("zero", "midpoint"),
    "pattern.epochs": ("0", "2"),
    "stdp.max_offset": ("0", "1"),
    "clock.dt": ("0.01", "0.001", "2e-05", "1e-05", "5e-06"),  # divisors of the 10 ms slot
}

# drawn for every key, most telling first: out of most ranges, not finite,
# or unparsable
INVALID = ("0", "-1", "3e-05", "nan", "inf", "-inf", "x", "")

# experiments that read a group's keys beyond load; the others read all
READERS = {"pd": ("synapse-pd",), "hysteresis": ("hysteresis",), "switchrate": ("switch-rate",),
           "calibration": ("weak-strong-calibration",),
           "stdp": ("stdp-window", "stdp-window-vteam"), "pattern": ("pattern-learn",),
           "stimulus": ("pattern-learn",), "network": ("pattern-learn",)}


def _valid(key):
    default, parser = SCHEMA[key]
    base = BUDGET.get(key, default)
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    if parser is int:
        return st.integers(-2, 2).map(lambda d: str(base + d))
    if parser is PARSERS[float]:
        return st.sampled_from((-1.0, 0.5, 2.0)).map(lambda f: repr(base * f))
    if parser is PARSERS[tuple[int, ...]]:
        return st.lists(st.integers(-1, 9), max_size=5).map(
            lambda pres: ",".join(map(str, pres)))
    pairs = st.tuples(st.integers(-1, 9), st.integers(-1, 10))
    return st.lists(pairs, max_size=4).map(
        lambda ps: ",".join(f"{pre}:{frame}" for pre, frame in ps))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("key", sorted(SCHEMA))
@settings(max_examples=6, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_0_2_or_3_without_traceback(key, data):
    experiment = data.draw(st.sampled_from(READERS.get(key.split(".")[0], EXPERIMENTS)))
    value = data.draw(st.one_of(st.sampled_from(INVALID), _valid(key)))
    argv = [experiment]
    for item in [f"{k}={v}" for k, v in BUDGET.items()] + [f"{key}={value}"]:
        argv += ["--set", item]
    err = io.StringIO()
    # 5 s: every drawn run takes well under 1 s, so a hang or a loop that
    # runs out its budget (closed-loop programming has 5 s of pulses) fails
    with tempfile.TemporaryDirectory() as out, deadline(5.0), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv + ["--out", out])
    hypothesis.event(f"exit {rc}")
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
