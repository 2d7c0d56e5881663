import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from memsnn.errors import ConfigError, SimulationFault
from memsnn.harness import load_config, network_config, vteam_variant
from memsnn.network import (Network, NetworkConfig, StimulusProgram,
                            default_pattern_stimulus, pattern_learning,
                            run_simulation, stability_epoch, stdp_window)
from memsnn.synapse import SynapseAssembly, SynapseConfig


def make_config(n_pre=1, polarity="excitatory", **kw):
    return NetworkConfig(n_pre=n_pre, synapse=SynapseConfig(polarity=polarity), **kw)


def test_idle_frames_leave_weights_bit_identical():
    net = Network(make_config(n_pre=3))
    w0 = net.weights()
    net.posts[0].state.v_mp = -0.2
    for _ in range(4):
        net.run_frame()
    assert net.weights() == w0
    assert net.posts[0].state.v_mp == pytest.approx(-0.2 * math.exp(-0.12 / 0.9), rel=1e-9)


def test_transmitted_spike_charges_membrane():
    cfg = make_config(n_pre=1)
    net = Network(cfg)
    net.synapses[0].program_to_weight(0.5, 1e-3, dt=cfg.dt)
    psi = net.synapses[0].weight()
    rep = net.run_frame(forced_pre=(0,))
    assert rep.pre_fired == (0,)
    # RC oracle: v_out = psi*2V held for the 10 ms slot, then 20 ms of leak
    v_in = psi * 2.0
    after_slot = -9e5 * (v_in / 1e5) * (1 - math.exp(-0.01 / 0.9))
    expect = after_slot * math.exp(-0.02 / 0.9)
    assert net.posts[0].state.v_mp == pytest.approx(expect, rel=1e-2)


def test_lone_pre_spike_causes_weak_drift_only():
    cfg = make_config(n_pre=1)
    net = Network(cfg)
    net.synapses[0].program_to_weight(0.5, 1e-3, dt=cfg.dt)
    psi0 = net.synapses[0].weight()
    net.run_frame(forced_pre=(0,))
    for _ in range(10):
        net.run_frame()
    drift = net.synapses[0].weight() - psi0
    # spike rail, its own PWM, and trace tails: a few weak-pulse increments
    assert 0.0 < drift < 0.02


def test_forced_post_fire_is_edge_synchronous():
    net = Network(make_config(n_pre=1))
    rep = net.run_frame(forced_post=(0,))
    assert rep.post_fired == (0,)
    assert net.posts[0].state.q2


def test_run_simulation_empty_program():
    cfg = make_config(n_pre=2)
    res = run_simulation(cfg, StimulusProgram.empty(epoch_frames=5, n_epochs=3))
    assert res.first_fire_epoch is None
    assert all(row[3] == 0 for row in res.post_log)
    assert np.all(res.weights_per_epoch == res.weights_per_epoch[0])


def test_run_simulation_deterministic():
    cfg = make_config(n_pre=2)
    stim = StimulusProgram(schedule=((0, 0), (3, 1)), epoch_frames=5, n_epochs=4)
    a = run_simulation(cfg, stim)
    b = run_simulation(cfg, stim)
    assert np.array_equal(a.weights_per_epoch, b.weights_per_epoch)
    assert a.post_log == b.post_log


def test_dt_halving_changes_weights_below_tenth_percent():
    stim = StimulusProgram(schedule=((0, 0), (2, 1)), epoch_frames=4, n_epochs=6)
    a = run_simulation(make_config(n_pre=2, dt=1e-5), stim)
    b = run_simulation(make_config(n_pre=2, dt=5e-6), stim)
    assert np.max(np.abs(a.weights_per_epoch - b.weights_per_epoch)) < 1e-3


@pytest.mark.parametrize("variant", [lambda cfg: cfg, vteam_variant], ids=["proposed", "vteam"])
def test_engine_matches_fixed_step_oracle(variant, monkeypatch):
    """The engine, whose segments go through the error-controlled `drive`,
    against the same program with every segment stepped by the fixed-step
    reference `apply_differential`.  The post fires naturally right after a
    pre spike (causal pair), then is forced two frames before the next one
    (anti-causal pair)."""
    cfg = network_config(variant(load_config(None)), n_pre=1)

    def run():
        net = Network(cfg)
        net.synapses[0].program_to_weight(0.5, tolerance=1e-3, dt=cfg.dt)
        net.posts[0].state.v_mp = cfg.lif_v_th + 0.002  # one transmit from threshold
        fires, weights = [], []
        for frame in range(12):
            rep = net.run_frame(forced_pre=(0,) if frame in (0, 7) else (),
                                forced_post=(0,) if frame == 5 else ())
            fires.append((rep.pre_fired, rep.post_fired))
            weights.append(rep.weights[0])
        return fires, np.array(weights)

    fires, weights = run()
    monkeypatch.setattr(SynapseAssembly, "drive", SynapseAssembly.apply_differential)
    ref_fires, ref_weights = run()
    assert fires == ref_fires
    assert [f for f, (_, post) in enumerate(fires) if post] == [1, 5]
    assert np.ptp(ref_weights) > 1e-3  # the pairs move the weight
    assert np.max(np.abs(weights - ref_weights)) < 1e-9


def test_stimulus_program_validation():
    with pytest.raises(ConfigError):
        StimulusProgram(schedule=((12, 0),), epoch_frames=10).validate()


def test_window_quantized_in_subframe_phase():
    cfg = make_config(n_pre=1)
    base = stdp_window(cfg, [1, -2], phase_slot=None)
    for phase in (0, 1, 2):
        rows = stdp_window(cfg, [1, -2], phase_slot=phase)
        for r, rb in zip(rows, base):
            assert r[2] == rb[2]  # bitwise equal


def test_window_hebbian_signs():
    cfg = make_config(n_pre=1)
    rows = dict((r[0], r[2]) for r in stdp_window(cfg, [-2, -1, 0, 1, 2]))
    assert rows[1] > 0.0 and rows[2] > 0.0
    assert rows[-1] < 0.0 and rows[-2] < 0.0
    assert abs(rows[0]) <= 0.1 * min(abs(rows[1]), abs(rows[-1]))


def test_window_antihebbian_exact_mirror():
    exc = stdp_window(make_config(n_pre=1, polarity="excitatory"), [-2, 0, 1])
    inh = stdp_window(make_config(n_pre=1, polarity="inhibitory"), [-2, 0, 1])
    for (off_e, _, de), (off_i, _, di) in zip(exc, inh):
        assert off_e == off_i
        assert di == pytest.approx(-de, rel=1e-9, abs=1e-15)


def test_post_fires_frame_after_pattern_once_trained():
    cfg = make_config(n_pre=9)
    stim = default_pattern_stimulus(n_epochs=40)
    res = pattern_learning(cfg, stim, init="midpoint")
    fires = [row[0] for row in res.post_log if row[3] == 1]
    assert fires, "trained network must fire"
    for frame in fires:
        assert frame % stim.epoch_frames == 1  # frame right after the pattern


def test_pattern_learning_rejects_bad_init():
    with pytest.raises(ConfigError):
        pattern_learning(make_config(n_pre=9), default_pattern_stimulus(1), init="random")


def test_stability_epoch_detects_settling():
    flat = np.ones((60, 2))
    ramp = np.vstack([np.linspace(0, 1, 30), np.linspace(0, 1, 30)]).T
    w = np.vstack([ramp, np.ones((30, 2))])
    assert stability_epoch(flat) == 19
    s = stability_epoch(w)
    assert s is not None and 25 <= s <= 50
    assert stability_epoch(np.vstack([np.linspace(0, 5, 60), np.linspace(0, 5, 60)]).T) is None


def test_debug_rows_strong_segments_only_in_programming_slots():
    cfg = make_config(n_pre=1)
    net = Network(cfg, collect_debug=True)
    net.synapses[0].program_to_weight(0.5, 1e-3, dt=cfg.dt)
    net.run_frame(forced_pre=(0,))
    net.run_frame(forced_post=(0,))
    net.run_frame()
    assert len(net.debug_rows) == 9  # three slots per frame
    for frame, slot, *_rest, strong in net.debug_rows:
        if slot == 0:
            assert strong == 0.0
    # the causal pair put a strong stretch in slot 1 of the second frame
    strong_slot1 = [r for r in net.debug_rows if r[0] == 1 and r[1] == 1][0][6]
    assert strong_slot1 > 0.0


def test_fault_reports_frame_context():
    from memsnn.errors import SimulationFault
    net = Network(make_config(n_pre=1))
    net.run_frame()
    net.synapses[0].w[0] = float("nan")
    with pytest.raises(SimulationFault, match="frame 1"):
        net.run_frame()


@contextmanager
def deadline(seconds):
    """Interrupt the block with TimeoutError after `seconds` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("forced_pre, where", [((0,), "slot 0"), ((), "slot 1")])
def test_nan_state_under_drive_faults_promptly(forced_pre, where):
    # frame 0 fires the pre, so frame 1 carries its trace PWM in slot 1
    net = Network(make_config(n_pre=1))
    net.run_frame(forced_pre=(0,))
    net.synapses[0].w[0] = float("nan")
    with deadline(10.0), pytest.raises(SimulationFault,
                                       match=f"frame 1: {where}, synapse 0: non-finite"):
        net.run_frame(forced_pre=forced_pre)


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(n_pre=0).validate()
    with pytest.raises(ConfigError):
        NetworkConfig(dt=3e-5).validate()  # does not divide the 10 ms slot
