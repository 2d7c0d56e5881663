import signal
import sys

import numpy as np
import pytest

from memsnn.errors import ConfigError
from memsnn.harness import (RUNNERS, ExperimentSpec, load_config, main, run_experiment,
                            vteam_variant)
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
    ("stdp-window", "stdp.settle_frames=-5", "stdp.settle_frames >= 0"),
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


def test_plot_without_matplotlib_fails_before_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError
    assert main(["switch-rate", "--out", str(tmp_path), "--plot"]) == 2
    assert capsys.readouterr().err.startswith("config error: plot output requires matplotlib")
    assert not list(tmp_path.glob("*.csv"))


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
