import os
import signal
import subprocess
import sys
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import memsnn
from memsnn import _kernels as K
from memsnn.device import MemristorParams, MemristorState, VteamParams, dwdt
from memsnn.errors import ConfigError
from memsnn.harness import (EXPERIMENTS, GROUPS, RUNNERS, SCHEMA, ExperimentSpec,
                            SwitchRateParams, load_config, main, run_experiment,
                            run_hysteresis, run_switch_rate, validate_config, vteam_variant,
                            write_csv)
from memsnn.network import StimulusParams
from memsnn.params import Params
from memsnn.synapse import SynapseConfig
from test_network import deadline


def test_empty_config_gives_stock_constants(tmp_path):
    f = tmp_path / "empty.cfg"
    f.write_text("")
    cfg = load_config(f)
    assert cfg["device.r_on"] == 100.0
    assert cfg["device.r_off"] == 16000.0
    assert cfg["device.mu_v"] == 1e-14
    assert cfg["device.a0"] == 40.0
    assert cfg["device.i0"] == 1e-3
    assert cfg["device.q"] == 3
    assert cfg["lif.v_th"] == -0.45
    assert cfg["lif.r_in"] == 100e3
    assert cfg["lif.r_ref"] == 900e3
    assert cfg["lif.c"] == 1e-6
    assert cfg["lif.v_cc"] == 2.0
    assert cfg["clock.base_freq"] == 100.0
    assert cfg["synapse.r1"] == 16000.0
    assert cfg["synapse.gain_a"] == 1.1


def test_config_file_and_overrides(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("# comment\ndevice.q = 2\nsynapse.gain_a = 1.0\n")
    cfg = load_config(f, overrides=("device.q=4",))
    assert cfg["device.q"] == 4
    assert cfg["synapse.gain_a"] == 1.0


def test_invariant_violation_quotes_rule(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("device.r_on = 20000\n")
    with pytest.raises(ConfigError, match="0 < r_on < r_off"):
        load_config(f)


def test_unknown_key_named(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("device.resistance = 12\n")
    with pytest.raises(ConfigError, match="device.resistance"):
        load_config(f)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentSpec(name="frobnicate").validate()


def _slope_from_csv(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return np.polyfit(np.log(data["i"]), np.log(np.abs(data["rate"])), 1)[0]


def test_switch_rate_experiment_and_q_override(tmp_path):
    files = run_experiment(ExperimentSpec(name="switch-rate", out_dir=str(tmp_path / "a")))
    csv = [f for f in files if f.name == "switch_rate.csv"][0]
    assert _slope_from_csv(csv) == pytest.approx(5.0, abs=0.05)

    files2 = run_experiment(ExperimentSpec(name="switch-rate", out_dir=str(tmp_path / "b"),
                                           overrides=("device.q=2",)))
    csv2 = [f for f in files2 if f.name == "switch_rate.csv"][0]
    assert _slope_from_csv(csv2) == pytest.approx(3.0, abs=0.05)


def test_rerun_identical_hashes(tmp_path):
    spec1 = ExperimentSpec(name="switch-rate", out_dir=str(tmp_path / "r1"))
    spec2 = ExperimentSpec(name="switch-rate", out_dir=str(tmp_path / "r2"))
    run_experiment(spec1)
    run_experiment(spec2)
    m1 = (tmp_path / "r1" / "manifest").read_text().splitlines()
    m2 = (tmp_path / "r2" / "manifest").read_text().splitlines()
    assert [l for l in m1 if l.startswith("sha256")] == [l for l in m2 if l.startswith("sha256")]


@pytest.mark.parametrize("name", ["stdp-window", "weak-strong-calibration"])
def test_rerun_into_one_directory_writes_the_same_bytes(tmp_path, name):
    """A run into a directory that holds an earlier run's outputs writes
    them anew: the same bytes, manifest included, also where the files left
    there are longer than the new ones."""
    assert main([name, "--out", str(tmp_path)]) == 0
    first = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert "manifest" in first and len(first) > 1
    for f in tmp_path.iterdir():
        f.write_bytes(first[f.name] * 3)
    for _ in range(2):
        assert main([name, "--out", str(tmp_path)]) == 0
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == first


def test_csv_format(tmp_path):
    files = run_experiment(ExperimentSpec(name="switch-rate", out_dir=str(tmp_path)))
    raw = files[0].read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8").splitlines()
    assert text[0] == "i,rate"
    value = text[1].split(",")[1]
    digits = value.replace("-", "").replace(".", "").replace("e", "").replace("+", "")
    assert len(digits) <= 10  # 9 significant digits plus exponent bookkeeping


def test_manifest_config_reproduces_the_run(tmp_path):
    # at 9 significant digits the manifest would record 0.15: 601 rows, not 605
    assert main(["synapse-pd", "--out", str(tmp_path / "a"),
                 "--set", "pd.phase_seconds=0.1500000001"]) == 0
    manifest = (tmp_path / "a" / "manifest").read_text()
    assert "pd.phase_seconds = 0.1500000001\n" in manifest
    (tmp_path / "run.cfg").write_text(manifest.split("\n\n")[1])  # the config lines
    assert main(["synapse-pd", "--out", str(tmp_path / "b"),
                 "--config", str(tmp_path / "run.cfg")]) == 0
    assert (tmp_path / "b" / "manifest").read_text() == manifest


def test_manifest_lists_resolved_config_and_hashes(tmp_path):
    run_experiment(ExperimentSpec(name="switch-rate", out_dir=str(tmp_path)))
    manifest = (tmp_path / "manifest").read_text()
    assert "experiment = switch-rate" in manifest
    assert "device.r_on = 100" in manifest
    assert "sha256" in manifest


def test_cli_exit_codes(tmp_path):
    assert main(["switch-rate", "--out", str(tmp_path / "ok")]) == 0
    assert main(["switch-rate", "--out", str(tmp_path / "bad"),
                 "--set", "device.r_on=99999999"]) == 2


def test_cli_dt_must_divide_slot(tmp_path):
    assert main(["switch-rate", "--out", str(tmp_path), "--dt", "3e-5"]) == 2


BAD_PATHS = {
    # a directory, a file that is not UTF-8, a file where the output
    # directory goes: each once raised out of main with a traceback
    "config-is-a-directory": (lambda tmp: tmp, "--config", "cannot read config file"),
    "config-not-utf8": (lambda tmp: tmp / "latin1.cfg", "--config", "as UTF-8 text"),
    "out-is-a-file": (lambda tmp: tmp / "latin1.cfg", "--out", "cannot make output directory"),
}


@pytest.mark.parametrize("case", sorted(BAD_PATHS))
def test_cli_bad_path_exits_2_naming_it(tmp_path, capsys, case):
    where, flag, rule = BAD_PATHS[case]
    (tmp_path / "latin1.cfg").write_bytes("device.q = 3  # exposant \xe9\n".encode("latin-1"))
    path = where(tmp_path)
    argv = ["switch-rate", flag, str(path)]
    if flag == "--config":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot ") and rule in err and str(path) in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_cli_simulation_fault_exit_code(tmp_path, monkeypatch):
    import memsnn.harness as h
    from memsnn.errors import SimulationFault

    def boom(cfg, outdir):
        raise SimulationFault("non-finite state at frame 3, slot 1")

    monkeypatch.setitem(h.RUNNERS, "switch-rate", boom)
    assert main(["switch-rate", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("override", ["switchrate.i_max=1e300", "device.mu_v=1e300"])
def test_switch_rate_rate_overflow_exits_3(tmp_path, capsys, override):
    # the power law, or a product of finite constants, overflows; both once
    # wrote inf / nan rates with exit 0
    assert main(["switch-rate", "--out", str(tmp_path), "--set", override]) == 3
    assert capsys.readouterr().err.startswith("simulation fault: ")
    assert not list(tmp_path.glob("*.csv"))


def test_calibration_saturated_pulse_exits_3(tmp_path, capsys):
    # at q = 1 both pulses drive the weight from 0.366 to the far corner
    # 1.093; this once wrote ratio 1 with exit 0.  A 1 s strong pulse ends
    # 4.7e-11 short of the corner, where one more dt moves it 1.1e-14; this
    # once wrote ratio 0.363 with exit 0.
    for i, override in enumerate(("device.q=1", "calibration.pulse_seconds=1")):
        out = tmp_path / str(i)
        assert main(["weak-strong-calibration", "--out", str(out), "--set", override]) == 3
        assert "saturates the weight" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


def test_pattern_learn_cli_short_run(tmp_path):
    rc = main(["pattern-learn", "--out", str(tmp_path), "--epochs", "3"])
    assert rc == 0
    weights = (tmp_path / "weights.csv").read_text().splitlines()
    assert weights[0] == "epoch," + ",".join(f"psi_{i}" for i in range(1, 10))
    assert len(weights) == 4
    post = (tmp_path / "post_log.csv").read_text().splitlines()
    assert post[0] == "frame,t,fired"
    assert len(post) == 31
    events = (tmp_path / "post_events.csv").read_text().splitlines()
    assert events[0] == "frame,t,v_mp_at_edge,fired"


def _negated(cell):
    return cell[1:] if cell.startswith("-") else "-" + cell


# run -> (its arguments, the CSV compared, an excitatory row -> its inhibitory
# twin's row); the midpoint run raises the threshold so that the excitatory
# post, which fires in the first epoch, stays as silent as the inhibitory one
TWIN_RUNS = {
    "synapse-pd": (["synapse-pd"], "synapse_pd.csv",
                   lambda t, m1, m2, m3, m4, psi: [t, m2, m1, m1, m2, _negated(psi)]),
    "synapse-pd-vteam": (["synapse-pd", "--set", "device.kind=vteam"], "synapse_pd.csv",
                         lambda t, m1, m2, m3, m4, psi: [t, m2, m1, m1, m2, _negated(psi)]),
    "calibration": (["weak-strong-calibration"], "calibration.csv",
                    lambda name, v: [name, v if name == "ratio" else _negated(v)]),
    "pattern-learn-zero": (["pattern-learn", "--epochs", "3", "--init", "zero"], "weights.csv",
                           lambda epoch, *psi: [epoch, *map(_negated, psi)]),
    "pattern-learn-midpoint": (["pattern-learn", "--epochs", "3", "--init", "midpoint",
                                "--set", "lif.v_th=-5"], "weights.csv",
                               lambda epoch, *psi: [epoch, *map(_negated, psi)]),
}


@pytest.mark.parametrize("run", sorted(TWIN_RUNS))
def test_inhibitory_run_is_the_excitatory_twin(tmp_path, run):
    """An inhibitory bridge is its excitatory twin read with a negative sign:
    under the same drives its psi columns are the excitatory ones negated and
    its M1..M4 are the twin's (M2, M1, M1, M2), digit for digit.  The
    inhibitory calibration once exited 2, programming to +0.5."""
    args, name, twin = TWIN_RUNS[run]
    rows = {}
    for polarity in ("excitatory", "inhibitory"):
        out = tmp_path / polarity
        assert main([*args, "--set", f"synapse.polarity={polarity}", "--out", str(out)]) == 0
        lines = (out / name).read_text().splitlines()
        rows[polarity] = [line.split(",") for line in lines]
    exc, inh = rows["excitatory"], rows["inhibitory"]
    assert inh[0] == exc[0] and len(inh) == len(exc) > 2
    assert inh[1:] == [twin(*row) for row in exc[1:]]
    if run == "calibration":
        assert [v for _, v in inh[1:]] == ["-0.0745832557", "-0.00239974603", "0.0321753993"]


def test_experiments_take_no_fixed_step_rk4(tmp_path, capsys, monkeypatch):
    """Every experiment runs on the error-controlled kernels alone, at a
    small budget: the fixed-step branch driver and its RK4 step are the
    tests' oracle, so here they raise."""
    def oracle_only(*args):
        raise AssertionError("fixed-step RK4 outside the test oracle")

    for name in ("branch_step", "dopant_branch_rk4", "vteam_branch_rk4"):
        monkeypatch.setattr(K, name, oracle_only)
    budget = {"stdp-window": ["--set", "stdp.max_offset=1"],
              "stdp-window-vteam": ["--set", "stdp.max_offset=1"],
              "pattern-learn": ["--epochs", "2", "--init", "zero"]}
    runs = [(name, budget.get(name, [])) for name in EXPERIMENTS]
    runs.append(("pattern-learn", ["--epochs", "2", "--init", "midpoint"]))
    for i, (name, extra) in enumerate(runs):
        assert main([name, "--out", str(tmp_path / str(i)), *extra]) == 0, \
            capsys.readouterr().err


def test_vteam_variant_preset():
    cfg = load_config(None)
    v = vteam_variant(cfg)
    assert v["device.kind"] == "vteam"
    assert v["synapse.r1"] == v["vteam.r_off"] == 8000.0
    assert v["synapse.gain_a"] == 1.7
    assert v["clock.base_freq"] == 1000.0
    assert v["trace.tau"] == 0.010


def test_hysteresis_experiment_writes_both_series(tmp_path):
    files = run_experiment(ExperimentSpec(name="hysteresis", out_dir=str(tmp_path)))
    names = sorted(f.name for f in files)
    assert names == ["hysteresis_hard.csv", "hysteresis_pinched.csv"]
    data = np.genfromtxt(files[0], delimiter=",", names=True)
    assert set(data.dtype.names) == {"t", "v", "i", "w", "R"}


BAD_VALUES = [
    ("synapse-pd", "pd.sample_dt=0", "pd.sample_dt > 0"),
    ("pattern-learn", "pattern.epochs=-1", "pattern.epochs >= 0"),
    ("switch-rate", "switchrate.i_min=0", "0 < switchrate.i_min < switchrate.i_max"),
    ("switch-rate", "switchrate.i_max=1e-5", "0 < switchrate.i_min < switchrate.i_max"),
    ("switch-rate", "device.kind=vteam", "switch-rate models the current-driven device"),
    ("pattern-learn", "network.n_pre=4", "every stimulus pre index in [0, network.n_pre)"),
    ("hysteresis", "hysteresis.w0=1", "hysteresis.w0 in the device state range [0, 1e-08]"),
    ("stdp-window", "stdp.settle_frames=-5", "stdp.settle_frames >= 1"),
    # once ran and wrote a window whose later spike never fired
    ("stdp-window", "stdp.settle_frames=0", "stdp.settle_frames >= 1"),
    ("switch-rate", "switchrate.points=-1", "switchrate.points >= 1"),
    ("switch-rate", "switchrate.w_frac=2", "0 <= switchrate.w_frac <= 1"),
    ("hysteresis", "hysteresis.pinched_freq=0", "hysteresis.pinched_freq > 0"),
    ("hysteresis", "hysteresis.hard_freq=0", "hysteresis.hard_freq > 0"),
    ("hysteresis", "hysteresis.pinched_cycles=-1", "hysteresis.pinched_cycles >= 0"),
    # once a numpy MemoryError traceback (149 GiB of sweep samples)
    ("hysteresis", "hysteresis.pinched_freq=1e-6",
     "hysteresis.pinched_cycles / hysteresis.pinched_freq / clock.dt <= 10000000"),
    ("weak-strong-calibration", "calibration.pulse_seconds=0", "calibration.pulse_seconds > 0"),
    ("weak-strong-calibration", "lif.v_cc=0", "lif.v_cc > 0"),
    ("stdp-window", "stdp.max_offset=-1", "stdp.max_offset >= 0"),
    # non-finite floats are refused by the parser, naming the key
    ("synapse-pd", "pd.sample_dt=nan", "bad value for 'pd.sample_dt': 'nan'"),
    ("switch-rate", "clock.dt=nan", "bad value for 'clock.dt': 'nan'"),
    ("switch-rate", "clock.base_freq=nan", "bad value for 'clock.base_freq': 'nan'"),
    ("synapse-pd", "pd.cycles=-1", "pd.cycles >= 0"),
    ("synapse-pd", "pd.phase_seconds=-1", "pd.phase_seconds > 0"),
    ("synapse-pd", "pd.sample_dt=1e-12", "pd.sample_dt >= clock.dt"),  # once hung
    # every group is checked at load, whichever experiment runs
    ("switch-rate", "lif.c=0", "lif.c > 0"),
    ("switch-rate", "lif.v_th=0.5", "lif.v_th < 0"),
    ("switch-rate", "vteam.alpha_on=0", "vteam.alpha_on must be an integer >= 1"),
    ("switch-rate", "hysteresis.sample_every=0", "hysteresis.sample_every >= 1"),
    ("switch-rate", "stimulus.pattern_frame=10", "scheduled frame 10 outside epoch of 10"),
    ("stdp-window", "network.n_pre=0", "network.n_pre >= 1"),
    ("pattern-learn", "stimulus.epoch_frames=0", "stimulus.epoch_frames >= 1"),
    # from 1e14 Hz a slot is at most 1e-9 dt, which rounds to 0 within the
    # divisibility check: both once ran, the pattern leaving every weight at rest
    ("stdp-window", "clock.base_freq=1e15",
     "at least one clock.dt per slot: clock.dt <= 1 / clock.base_freq"),
    ("pattern-learn", "clock.base_freq=1e14",
     "at least one clock.dt per slot: clock.dt <= 1 / clock.base_freq"),
    ("stdp-window", "clock.dt=3e-5", "clock.dt must divide the slot width"),
]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("experiment, override, rule", BAD_VALUES,
                         ids=[override for _, override, _ in BAD_VALUES])
def test_cli_bad_value_exits_2_naming_rule(tmp_path, capsys, experiment, override, rule):
    # pd.sample_dt = 0 once looped forever, growing memory
    with deadline(10.0):
        rc = main([experiment, "--out", str(tmp_path), "--set", override])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: {rule}")
    assert not list(tmp_path.glob("*.csv"))


# the keys whose field carries no `key()` rule, each with what checks it
UNRULED_KEYS = {
    "device.r_on": MemristorParams.validate, "device.r_off": MemristorParams.validate,
    **{f"vteam.{name}": VteamParams.validate
       for name in ("v_on", "v_off", "k_on", "k_off", "w_on", "w_off", "r_on", "r_off")},
    "synapse.r2": SynapseConfig.validate,
    "stimulus.pattern_frame": StimulusParams.validate,
    "stimulus.pattern_pres": validate_config, "stimulus.noise_map": validate_config,
    "switchrate.i_min": SwitchRateParams.validate, "switchrate.i_max": SwitchRateParams.validate,
    "hysteresis.w0": run_hysteresis,
    "hysteresis.pinched_amplitude": "any finite value runs",
    "hysteresis.hard_amplitude": "any finite value runs",
}


def test_every_config_key_has_a_rule_or_a_named_checker():
    """Walking the fields of GROUPS finds every key, and the keys without a
    `key()` rule are exactly UNRULED_KEYS, each named with the class's own
    `validate()` or the function that checks it.  A key added without a rule
    fails here instead of silently taking any value."""
    walked, unruled = set(), set()

    def walk(cls, prefix):
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            dotted = f"{prefix}.{f.name}"
            if is_dataclass(hints[f.name]):
                walk(hints[f.name], dotted)
            elif dotted in SCHEMA:
                walked.add(dotted)
                if "rule" not in f.metadata:
                    unruled.add(dotted)

    for cls, prefix in GROUPS.items():
        walk(cls, prefix)
    assert walked == set(SCHEMA)
    assert unruled == set(UNRULED_KEYS)
    assert Params.validate not in UNRULED_KEYS.values()


def test_vteam_window_manifest_records_variant(tmp_path):
    assert main(["stdp-window-vteam", "--out", str(tmp_path),
                 "--set", "stdp.max_offset=0"]) == 0
    manifest = set((tmp_path / "manifest").read_text().splitlines())
    assert set(vteam_variant(load_config(None, ["stdp.max_offset=0"])).lines()) <= manifest
    assert {"device.kind = vteam", "clock.base_freq = 1000", "clock.dt = 1e-06",
            "trace.tau = 0.01"} <= manifest
    # the runner refuses the base configuration rather than run the dopant
    # device under the _vteam file names
    with pytest.raises(ConfigError):
        RUNNERS["stdp-window-vteam"](load_config(None), tmp_path / "base")


def test_hysteresis_honours_vteam_device(tmp_path):
    assert main(["hysteresis", "--out", str(tmp_path), "--set", "device.kind=vteam",
                 "--set", "hysteresis.w0=1.5e-9", "--set", "hysteresis.hard_freq=10"]) == 0
    cfg = load_config(None)
    for name in ("hysteresis_pinched.csv", "hysteresis_hard.csv"):
        data = np.genfromtxt(tmp_path / name, delimiter=",", names=True)
        # R(w0) of the threshold device at mid-range; the dopant device gives 13615
        assert data["R"][0] == pytest.approx(4500.0, rel=1e-12)
        assert np.all((data["R"] >= cfg["vteam.r_on"]) & (data["R"] <= cfg["vteam.r_off"]))
        assert np.ptp(data["w"]) > 0.0


# each bridge experiment's argv, with the group whose window it reads
BRIDGE_RUNS = [(("synapse-pd",), "device"), (("weak-strong-calibration",), "device"),
               (("stdp-window",), "device"), (("stdp-window-vteam",), "vteam"),
               (("pattern-learn", "--epochs", "1", "--init", "zero"), "device"),
               (("pattern-learn", "--epochs", "1", "--init", "midpoint"), "device"),
               (("pattern-learn", "--epochs", "1", "--set", "device.kind=vteam"), "vteam")]


@pytest.mark.parametrize("kind", ["joglekar", "prodromakis", "strukov"])
def test_bridge_refuses_a_window_zero_at_both_bounds(tmp_path, capsys, kind):
    """These windows are zero at both state bounds, where a fresh bridge
    starts, so its devices could never move: every bridge experiment exits
    2 quoting the rule, at both inits, and writes no CSV.  The single-device
    sweep still runs."""
    for i, (argv, group) in enumerate(BRIDGE_RUNS):
        out = tmp_path / str(i)
        rc = main([*argv, "--set", f"{group}.window.kind={kind}", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {group}.window.kind must be nonzero at the state bounds")
        assert not list(out.glob("*.csv"))
    assert main(["hysteresis", "--set", f"device.window.kind={kind}",
                 "--out", str(tmp_path / "sweep")]) == 0


# small budgets for every experiment; pattern-learn takes --epochs
SMALL = ["--set", "hysteresis.pinched_cycles=1", "--set", "hysteresis.hard_cycles=1",
         "--set", "hysteresis.hard_freq=10", "--set", "pd.cycles=1",
         "--set", "stdp.max_offset=1", "--set", "stdp.settle_frames=2"]

NO_NUMPY_RUN = """
import sys
from memsnn.harness import EXPERIMENTS, main
runs = [[name] for name in EXPERIMENTS if name != "pattern-learn"]
runs += [["pattern-learn", "--epochs", "2", "--init", init] for init in ("zero", "midpoint")]
for k, argv in enumerate(runs):
    if main(argv + sys.argv[2:] + ["--out", f"{sys.argv[1]}/{k}"]) != 0:
        sys.exit(f"{argv} failed")
print(len(runs), "numpy" in sys.modules)
"""


def test_runtime_imports_only_the_standard_library(tmp_path):
    """The package runs without numpy: a fresh interpreter that imports the
    harness and runs all 7 experiments (pattern-learn at both inits) has not
    imported it.  A subprocess, since the tests themselves import numpy."""
    env = {**os.environ, "PYTHONPATH": str(Path(memsnn.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RUN, str(tmp_path), *SMALL],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "8 False"  # runs, numpy imported


def numpy_switch_rate(cfg, outdir):
    """`run_switch_rate` with its currents and fractions spaced by numpy,
    as they were before the package dropped it: the oracle of its spacing."""
    params = cfg.group(MemristorParams)
    sr = cfg.group(SwitchRateParams)
    w = sr.w_frac * params.d
    currents = np.geomspace(sr.i_min, sr.i_max, sr.points)
    write_csv(outdir / "switch_rate.csv", "i,rate",
              [(i, dwdt(params, MemristorState(w=w), i)) for i in currents.tolist()])
    signed = np.concatenate([-currents[::6][::-1], currents[::6]]).tolist()
    write_csv(outdir / "switch_rate_surface.csv", "w_over_d,i,rate",
              [(frac, i, dwdt(params, MemristorState(w=frac * params.d), i))
               for frac in np.linspace(0.0, 1.0, 21).tolist() for i in signed])


def test_switch_rate_csvs_equal_numpy_spacing(tmp_path):
    """switch-rate's log-spaced currents and linear fractions give the CSVs
    that np.geomspace and np.linspace give, over a seeded grid of current
    ranges, point counts (1 and 2 included) and device.q."""
    rng = np.random.default_rng(22)
    ours, theirs = tmp_path / "ours", tmp_path / "numpy"
    ours.mkdir()
    theirs.mkdir()
    for k in range(200):
        i_min = 10.0 ** rng.uniform(-8.0, -2.0)
        points = (1, 2, 61, int(rng.integers(3, 200)))[k % 4]
        cfg = load_config(None, [f"switchrate.i_min={i_min!r}",
                                 f"switchrate.i_max={i_min * 10.0 ** rng.uniform(0.01, 4.0)!r}",
                                 f"switchrate.points={points}",
                                 f"device.q={int(rng.integers(1, 6))}"])
        run_switch_rate(cfg, ours)
        numpy_switch_rate(cfg, theirs)
        for name in ("switch_rate.csv", "switch_rate_surface.csv"):
            assert (ours / name).read_bytes() == (theirs / name).read_bytes(), (k, name)
