import ast
import math
import signal
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from memsnn import _kernels as K
from memsnn import harness, network
from memsnn.errors import ConfigError, SimulationFault
from memsnn.harness import load_config, main, network_config, vteam_variant
from memsnn.network import (Network, NetworkConfig, StimulusParams, StimulusProgram,
                            pattern_learning, run_simulation, stability_epoch, stdp_window)
from memsnn.neuron import LifNeuron
from memsnn.plasticity import ClockParams
from memsnn.synapse import SynapseAssembly, SynapseConfig
from test_synapse import counted_drives, counting, piecewise

STOCK = load_config(None)
SETTLE = STOCK["stdp.settle_frames"]


def make_config(n_pre=1, polarity="excitatory", **kw):
    return NetworkConfig(n_pre=n_pre, synapse=SynapseConfig(polarity=polarity), **kw)


def test_frames_advance_one_frame_width_each():
    net = Network(make_config(n_pre=1, clock=ClockParams(base_freq=100.0)))
    reports = [net.run_frame() for _ in range(3)]
    assert [r.frame for r in reports] == [0, 1, 2]
    assert [r.t for r in reports] == pytest.approx([0.0, 0.03, 0.06])


def test_idle_frames_leave_weights_bit_identical():
    net = Network(make_config(n_pre=3))
    w0 = net.weights()
    net.post.state.v_mp = -0.2
    for _ in range(4):
        net.run_frame()
    assert net.weights() == w0
    assert net.post.state.v_mp == pytest.approx(-0.2 * math.exp(-0.12 / 0.9), rel=1e-9)


def test_transmitted_spike_charges_membrane():
    cfg = make_config(n_pre=1)
    net = Network(cfg)
    net.synapses[0].program_to_weight(0.5, 1e-3, dt=cfg.clock.dt)
    psi = net.synapses[0].weight()
    rep = net.run_frame(forced_pre=(0,))
    assert rep.pre_fired == (0,)
    # RC oracle: v_out = psi*2V held for the 10 ms slot, then 20 ms of leak
    v_in = psi * 2.0
    after_slot = -9e5 * (v_in / 1e5) * (1 - math.exp(-0.01 / 0.9))
    expect = after_slot * math.exp(-0.02 / 0.9)
    assert net.post.state.v_mp == pytest.approx(expect, rel=1e-2)


def test_lone_pre_spike_causes_weak_drift_only():
    cfg = make_config(n_pre=1)
    net = Network(cfg)
    net.synapses[0].program_to_weight(0.5, 1e-3, dt=cfg.clock.dt)
    psi0 = net.synapses[0].weight()
    net.run_frame(forced_pre=(0,))
    for _ in range(10):
        net.run_frame()
    drift = net.synapses[0].weight() - psi0
    # spike rail, its own PWM, and trace tails: a few weak-pulse increments
    assert 0.0 < drift < 0.02


def test_forced_post_fire_is_edge_synchronous():
    net = Network(make_config(n_pre=1))
    rep = net.run_frame(forced_post=True)
    assert rep.post_fired
    assert net.post.state.q2


def test_run_simulation_empty_program():
    cfg = make_config(n_pre=2)
    res = run_simulation(cfg, StimulusProgram.empty(epoch_frames=5, n_epochs=3))
    assert res.first_fire_epoch is None and res.stability_epoch is None
    assert res.pattern_pres == () and res.noise_pres == (0, 1)
    assert all(row[3] == 0 for row in res.post_log)
    assert np.all(np.asarray(res.weights_per_epoch) == res.weights_per_epoch[0])


def test_run_simulation_deterministic():
    cfg = make_config(n_pre=2)
    stim = StimulusProgram(schedule=((0, 0), (3, 1)), epoch_frames=5, n_epochs=4)
    a = run_simulation(cfg, stim)
    b = run_simulation(cfg, stim)
    assert np.array_equal(a.weights_per_epoch, b.weights_per_epoch)
    assert a.post_log == b.post_log
    # the pres of the first scheduled frame are the pattern
    assert a.pattern_pres == (0,) and a.noise_pres == (1,)


def test_dt_halving_changes_weights_below_tenth_percent():
    stim = StimulusProgram(schedule=((0, 0), (2, 1)), epoch_frames=4, n_epochs=6)
    a = run_simulation(make_config(n_pre=2, clock=ClockParams(dt=1e-5)), stim)
    b = run_simulation(make_config(n_pre=2, clock=ClockParams(dt=5e-6)), stim)
    assert np.max(np.abs(np.asarray(a.weights_per_epoch)
                         - np.asarray(b.weights_per_epoch))) < 1e-3


@pytest.mark.parametrize("variant", [lambda cfg: cfg, vteam_variant], ids=["proposed", "vteam"])
def test_engine_matches_fixed_step_oracle(variant, monkeypatch):
    """The engine, whose frames go through the error-controlled `frame`,
    against the same program with every segment stepped by the fixed-step
    reference `apply_differential`.  The post fires naturally right after a
    pre spike (causal pair), then is forced two frames before the next one
    (anti-causal pair)."""
    cfg = network_config(variant(load_config(None)), n_pre=1)

    def run():
        net = Network(cfg)
        net.synapses[0].program_to_weight(0.5, tolerance=1e-3, dt=cfg.clock.dt)
        net.post.state.v_mp = cfg.lif.v_th + 0.002  # one transmit from threshold
        fires, weights = [], []
        for frame in range(12):
            rep = net.run_frame(forced_pre=(0,) if frame in (0, 7) else (),
                                forced_post=frame == 5)
            fires.append((rep.pre_fired, rep.post_fired))
            weights.append(rep.weights[0])
        return fires, np.array(weights)

    fires, weights = run()
    monkeypatch.setattr(SynapseAssembly, "drive", SynapseAssembly.apply_differential)
    monkeypatch.setattr(SynapseAssembly, "frame", piecewise(SynapseAssembly.apply_differential))
    ref_fires, ref_weights = run()
    assert fires == ref_fires
    assert [f for f, (_, post) in enumerate(fires) if post] == [1, 5]
    assert np.ptp(ref_weights) > 1e-3  # the pairs move the weight
    assert np.max(np.abs(weights - ref_weights)) < 1e-9


def test_stimulus_program_validation():
    with pytest.raises(ConfigError):
        StimulusProgram(schedule=((12, 0),), epoch_frames=10).validate()
    # an epoch without frames has no weights to report, even unscheduled
    for frames in (0, -4):
        with pytest.raises(ConfigError, match="epoch_frames >= 1"):
            run_simulation(make_config(n_pre=1), StimulusProgram.empty(frames, n_epochs=3))


def test_window_quantized_in_subframe_phase():
    cfg = make_config(n_pre=1)
    base = stdp_window(cfg, [1, -2], SETTLE, phase_slot=None)
    for phase in (0, 1, 2):
        rows = stdp_window(cfg, [1, -2], SETTLE, phase_slot=phase)
        for r, rb in zip(rows, base):
            assert r[2] == rb[2]  # bitwise equal


@pytest.mark.parametrize("slot", [3, -1])
def test_load_slot_outside_the_frame_is_refused(slot):
    """A trigger load after a slot the frame does not have raises
    ConfigError naming the rule: it once loaded nothing, and the window
    read zero at every offset."""
    with pytest.raises(ConfigError, match=r"load_slot in \{0, 1, 2\}"):
        stdp_window(make_config(n_pre=1), [-1, 1], 5, phase_slot=slot)
    net = Network(make_config(n_pre=1))
    with pytest.raises(ConfigError, match=r"load_slot in \{0, 1, 2\}"):
        net.run_frame(load_pre=(0,), load_slot=slot)
    assert net.frame == 0


def test_window_hebbian_signs():
    cfg = make_config(n_pre=1)
    rows = dict((r[0], r[2]) for r in stdp_window(cfg, [-2, -1, 0, 1, 2], SETTLE))
    assert rows[1] > 0.0 and rows[2] > 0.0
    assert rows[-1] < 0.0 and rows[-2] < 0.0
    assert abs(rows[0]) <= 0.1 * min(abs(rows[1]), abs(rows[-1]))


def test_window_refuses_no_settling_frame():
    """The run ends settle_frames frames after the later spike's frame
    begins: with none it never fired, and the -2, 0, +2 rows read -0.0016,
    0 and 0.0045 against -0.024, 0.0039 and 0.032."""
    with pytest.raises(ConfigError, match="settle_frames >= 1"):
        stdp_window(make_config(n_pre=1), [-2, 0, 2], settle_frames=0)


def test_window_antihebbian_exact_mirror():
    exc = stdp_window(make_config(n_pre=1, polarity="excitatory"), [-2, 0, 1], SETTLE)
    inh = stdp_window(make_config(n_pre=1, polarity="inhibitory"), [-2, 0, 1], SETTLE)
    for (off_e, _, de), (off_i, _, di) in zip(exc, inh):
        assert off_e == off_i
        assert di == pytest.approx(-de, rel=1e-9, abs=1e-15)


def test_post_fires_frame_after_pattern_once_trained():
    cfg = make_config(n_pre=9)
    stim = StimulusParams().program(n_epochs=40)
    res = pattern_learning(cfg, stim, init="midpoint")
    fires = [row[0] for row in res.post_log if row[3] == 1]
    assert fires, "trained network must fire"
    for frame in fires:
        assert frame % stim.epoch_frames == 1  # frame right after the pattern


def test_zero_init_zeroes_either_polarity():
    """The zero init drives both polarities toward their zero-weight corner:
    the inhibitory weights are the exact negatives of the excitatory ones."""
    stim = StimulusProgram.empty(STOCK["stimulus.epoch_frames"], n_epochs=1)
    exc = np.asarray(pattern_learning(make_config(n_pre=2), stim, init="zero").final_weights)
    inh = np.asarray(pattern_learning(make_config(n_pre=2, polarity="inhibitory"), stim,
                                      init="zero").final_weights)
    assert np.all(exc > 0.0) and np.all(exc < 0.01)
    assert list(inh) == list(-exc)


@pytest.mark.parametrize("init", ["zero", "midpoint"])
def test_zero_epoch_run_reports_the_init_weights(init, tmp_path):
    """With no epoch run, the final weights are the ones the init left (about
    0.0034 and 0.5), not 0, and weights.csv still names all nine columns."""
    cfg = make_config(n_pre=9)
    res = pattern_learning(cfg, StimulusParams().program(n_epochs=0), init=init)
    first = SynapseAssembly.fresh(cfg.synapse)
    if init == "zero":
        first.drive(-4.0, cfg.clock.dt, duration=1.0)
    else:
        first.program_to_weight(0.5, tolerance=0.01, dt=cfg.clock.dt)
    assert len(res.weights_per_epoch) == 0
    assert main(["pattern-learn", "--epochs", "0", "--init", init, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "weights.csv").read_text() == (
        "epoch," + ",".join(f"psi_{i}" for i in range(1, 10)) + "\n")
    assert list(res.final_weights) == [first.weight()] * 9
    assert first.weight() == pytest.approx(0.0034 if init == "zero" else 0.5, abs=0.01)


def test_short_pattern_run_stage_evaluations(monkeypatch):
    """A 20-epoch zero-init 3x3 run evaluates the rate law at most 1/1.5 as
    often as RK4 step doubling did, which took 14 180 evaluations here (12
    per attempted step): Dormand-Prince 5(4) takes 6 per attempted step,
    its first stage being the last one of the step before.  Integrating
    each drive piece apart took 8 513; a frame's pieces of one drive sign
    joined into one span take 7 665.  A count, not a time."""
    calls = counting(monkeypatch)
    pattern_learning(network_config(load_config(None)), StimulusParams().program(20),
                     init="zero")
    assert 0 < calls[0] <= 7665 <= 14180 / 1.5


def test_lockstep_synapses_integrate_once(monkeypatch):
    """Two pres that always fire together keep bitwise-equal weights, and
    the second synapse costs no stage evaluation of the rate law: the
    engine steps the lockstep pair once, on the first synapse."""
    steps = {}
    calls = counting(monkeypatch)
    step_frame = SynapseAssembly.frame

    def tagged_frame(syn, *args, **kwargs):
        si, before = net.synapses.index(syn), calls[0]
        result = step_frame(syn, *args, **kwargs)
        steps[si] = steps.get(si, 0) + calls[0] - before
        return result

    monkeypatch.setattr(SynapseAssembly, "frame", tagged_frame)
    net = Network(make_config(n_pre=2))
    for syn in net.synapses:
        syn.program_to_weight(0.3, tolerance=1e-3, dt=net.config.clock.dt)
    psi0 = net.weights()
    steps.clear()
    for frame in range(30):
        rep = net.run_frame(forced_pre=(0, 1) if frame % 3 == 0 else ())
        assert rep.weights[0] == rep.weights[1]
    assert rep.weights != psi0
    assert steps.get(0, 0) > 0 and steps.get(1, 0) == 0


def test_lockstep_groups_split_when_inputs_diverge():
    """Pres 0 and 1 fire together, then 0 fires alone.  Their weights are
    bitwise equal while they are in lockstep and differ afterwards, and
    synapse 1's weights are those of a network where pre 1 fires alone, so
    stepping a group once gives each member what stepping it would.  Every
    state stays a (w1, w2) tuple, and synapses in one state whose pres hold
    different traces step apart."""
    def run(schedule):
        net = Network(make_config(n_pre=3))
        for syn in net.synapses:
            syn.program_to_weight(0.3, tolerance=1e-3, dt=net.config.clock.dt)
        weights = []
        for frame in range(8):
            rep = net.run_frame(forced_pre=schedule.get(frame, ()))
            assert all(type(syn.w) is tuple and len(syn.w) == 2 for syn in net.synapses)
            assert not rep.post_fired
            weights.append(rep.weights)
        return weights

    weights = run({0: (0, 1), 4: (0,)})
    alone = run({0: (1,)})
    assert all(w[0] == w[1] != w[2] for w in weights[:4])
    assert all(w[0] != w[1] for w in weights[4:])
    assert [w[1] for w in weights] == [w[1] for w in alone]
    # one state, different traces: different PWM widths, so no one group
    net = Network(make_config(n_pre=2))
    net.pre_traces[0] = net.config.trace.v_p
    rep = net.run_frame()
    assert rep.weights[0] != rep.weights[1]


def test_short_pattern_run_drive_calls(monkeypatch):
    """A 20-epoch zero-init 3x3 run steps each lockstep group once per
    frame, and sets up one synapse for all nine: at most 1 700 `drive`
    calls, where stepping every synapse took 3 008, and since a frame is
    one `frame` call, 557 of them and the one zero-init `drive`, itself a
    one-piece `frame`.  A count, not a time."""
    drives = counted_drives(monkeypatch)
    frames = counted_drives(monkeypatch, "frame")
    pattern_learning(network_config(load_config(None)), StimulusParams().program(20),
                     init="zero")
    assert drives[0] == 1 and drives[0] + frames[0] <= 1700
    assert frames[0] == 558


def test_short_pattern_run_weight_calls(monkeypatch):
    """A 20-epoch zero-init 3x3 run takes each epoch's weights from its last
    frame: at most 1 100 `weight` calls, where reading every weight again
    after each epoch took 1 271.  A count, not a time."""
    calls = [0]
    weight = SynapseAssembly.weight

    def counted_weight(syn):
        calls[0] += 1
        return weight(syn)

    monkeypatch.setattr(SynapseAssembly, "weight", counted_weight)
    pattern_learning(network_config(load_config(None)), StimulusParams().program(20),
                     init="zero")
    assert 0 < calls[0] <= 1100


def reported(monkeypatch):
    """Record every FrameReport of the runs that follow, floats as hex."""
    reports = []
    run_frame = Network.run_frame

    def recorded(net, *args, **kwargs):
        rep = run_frame(net, *args, **kwargs)
        reports.append((rep.frame, rep.t.hex(), rep.pre_fired, rep.post_fired,
                        rep.post_v_mp_at_edge.hex(), [w.hex() for w in rep.weights]))
        return rep

    monkeypatch.setattr(Network, "run_frame", recorded)
    return reports


@pytest.mark.parametrize("init", ["zero", "midpoint"])
def test_memo_bound_changes_cost_not_results(init, monkeypatch):
    """A memo emptied at every frame start keeps only the lockstep groups of
    one frame: 20-epoch runs report bit for bit what the default memo does.
    The zero-init run costs more stage evaluations without its repeats
    across frames; the midpoint run repeats no frame in its first 20
    epochs, so it costs the same."""
    calls, reports = counting(monkeypatch), reported(monkeypatch)
    costs, runs = [], []
    for bound in (network.MEMO_ENTRIES, 0):
        monkeypatch.setattr(network, "MEMO_ENTRIES", bound)
        calls[0] = 0
        reports.clear()
        pattern_learning(network_config(STOCK), StimulusParams().program(20), init=init)
        costs.append(calls[0])
        runs.append(list(reports))
    assert len(runs[0]) == 200 and runs[0] == runs[1]
    assert costs[1] > costs[0] if init == "zero" else costs[1] == costs[0]


def test_memo_keys_on_the_post_inputs(monkeypatch):
    """A synapse in the state and under the pre input of a memo entry, but
    under another post trace or post fire, is stepped, not taken from the
    memo: the post PWM width depends on both.  Under the entry's own inputs
    it is taken from the memo, and costs no `frame`."""
    cfg = make_config(n_pre=1)
    programmed = SynapseAssembly.fresh(cfg.synapse)
    programmed.program_to_weight(0.5, tolerance=1e-3, dt=cfg.clock.dt)
    drives = counted_drives(monkeypatch, "frame")

    def frame(memo, post_trace=0.0, forced_post=False):
        net = Network(cfg, memo)
        net.synapses[0].w = programmed.w
        net.post_trace = post_trace
        drives[0] = 0
        return net.run_frame(forced_pre=(0,), forced_post=forced_post).weights[0], drives[0]

    memo = {}
    entry, cost = frame(memo)
    assert cost > 0 and frame(memo) == (entry, 0)
    for inputs in ({"post_trace": cfg.trace.v_p}, {"forced_post": True}):
        weight, cost = frame(memo, **inputs)
        assert cost > 0 and weight != entry
        assert (weight, cost) == frame({}, **inputs)
    assert len(memo) == 3


def counted_in_frames(monkeypatch, calls):
    """The part of the counter `calls` spent inside `Network.run_frame`, so
    a window's closed-loop programming is left out."""
    in_frames = [0]
    run_frame = Network.run_frame

    def counted(net, *args, **kwargs):
        before = calls[0]
        try:
            return run_frame(net, *args, **kwargs)
        finally:
            in_frames[0] += calls[0] - before

    monkeypatch.setattr(Network, "run_frame", counted)
    return in_frames


def test_window_offsets_share_one_memo(monkeypatch):
    """The networks of a window's offsets share one memo, so a window over
    offsets 1-6 gives bit for bit the six single-offset windows, and its
    frames cost fewer stage evaluations than theirs: each offset repeats the
    frames of the shorter ones up to its post spike."""
    in_frames = counted_in_frames(monkeypatch, counting(monkeypatch))
    cfg = make_config(n_pre=1)
    offsets = list(range(1, 7))
    rows = stdp_window(cfg, offsets, SETTLE)
    shared, in_frames[0] = in_frames[0], 0
    single = [row for off in offsets for row in stdp_window(cfg, [off], SETTLE)]
    assert [(o, t.hex(), d.hex()) for o, t, d in rows] == [
        (o, t.hex(), d.hex()) for o, t, d in single]
    assert 0 < shared < in_frames[0]


def polarity_pair(cfg, n_pre):
    exc = network_config(cfg, n_pre=n_pre)
    return exc, replace(exc, synapse=replace(exc.synapse, polarity="inhibitory"))


def hexed(rows):
    return [(o, t.hex(), d.hex()) for o, t, d in rows]


@pytest.mark.parametrize("phase_slot", [None, 0, 1, 2])
@pytest.mark.parametrize("case", ["dopant", "vteam", "self-firing post"])
def test_window_polarities_share_one_memo(case, phase_slot, monkeypatch):
    """Memo entries are excitatory-frame, so the inhibitory window computed
    on the excitatory window's memo, or the excitatory on the inhibitory's,
    equals each computed on a memo of its own, bit for bit.  At the defaults
    the second window steps no frame.  At lif.v_th=-0.01 the excitatory post
    fires by itself in frame 2 and the inhibitory one does not: there the
    keys differ and the second window steps frames of its own."""
    cfg = load_config(None, ["lif.v_th=-0.01"] if case == "self-firing post" else [])
    cfg = vteam_variant(cfg) if case == "vteam" else cfg
    settle = cfg["stdp.settle_frames"]
    offsets = [-2, -1, 0, 1, 2]
    pair = polarity_pair(cfg, n_pre=1)
    drives = counted_in_frames(monkeypatch, counted_drives(monkeypatch, "frame"))
    alone = [hexed(stdp_window(c, offsets, settle, phase_slot)) for c in pair]
    for order in (pair, pair[::-1]):
        memo = {}
        first = stdp_window(order[0], offsets, settle, phase_slot, memo)
        drives[0] = 0
        second = stdp_window(order[1], offsets, settle, phase_slot, memo)
        assert [hexed(first), hexed(second)] == (alone if order is pair else alone[::-1])
        assert (drives[0] > 0) == (case == "self-firing post")


@pytest.mark.parametrize("name", ["stdp-window", "stdp-window-vteam"])
def test_window_experiment_programs_once(name, tmp_path, monkeypatch):
    """A window experiment programs one synapse and starts both polarities'
    windows from its state: the windows equal windows that each program
    their own start, bit for bit, for both device kinds."""
    programs = [0]
    program = SynapseAssembly.program_to_weight

    def counted(*args, **kwargs):
        programs[0] += 1
        return program(*args, **kwargs)

    windows = []
    window = network.stdp_window

    def recorded(*args, **kwargs):
        windows.append(hexed(window(*args, **kwargs)))
        return windows[-1]

    monkeypatch.setattr(SynapseAssembly, "program_to_weight", counted)
    monkeypatch.setattr(harness, "stdp_window", recorded)
    assert main([name, "--out", str(tmp_path)]) == 0
    assert programs[0] == 1 and len(windows) == 2
    cfg = vteam_variant(STOCK) if name == "stdp-window-vteam" else STOCK
    offsets = range(-cfg["stdp.max_offset"], cfg["stdp.max_offset"] + 1)
    alone = [hexed(window(c, offsets, cfg["stdp.settle_frames"]))
             for c in polarity_pair(cfg, n_pre=1)]
    assert programs[0] == 3 and windows == alone


def test_polarities_on_one_memo_weigh_exact_negatives(monkeypatch):
    """An excitatory and an inhibitory 3-pre network under one forced pre
    and post schedule: run on one memo, in either order, every frame's
    weights are exact negatives, and the network that runs second takes
    every frame from the memo and makes no `frame` call."""
    schedule = [((f % 3,) if f % 4 else (0, 2), f % 5 == 2) for f in range(40)]
    drives = counted_drives(monkeypatch, "frame")
    pair = polarity_pair(STOCK, n_pre=3)
    for order in (pair, pair[::-1]):
        memo, runs = {}, []
        for ncfg in order:
            net = Network(ncfg, memo)
            drives[0] = 0
            runs.append([net.run_frame(forced_pre=pre, forced_post=post)
                         for pre, post in schedule])
        assert drives[0] == 0
        exc, inh = runs if order is pair else runs[::-1]
        assert [r.post_fired for r in exc] == [r.post_fired for r in inh] == [
            post for _, post in schedule]
        assert [[(-w).hex() for w in r.weights] for r in exc] == [
            [w.hex() for w in r.weights] for r in inh]
        assert all(w > 0.0 for r in exc for w in r.weights)
        assert exc[-1].weights != exc[0].weights


@pytest.mark.parametrize("init", ["zero", "midpoint"])
@pytest.mark.parametrize("kind, epochs", [("zha", 300), ("biolek", 40), ("none", 40)])
def test_dopant_bridge_keeps_its_total_depth(kind, epochs, init, monkeypatch):
    """From the fresh corner w1 + w2 = D holds under every window a bridge
    accepts, since each is symmetric under x -> 1 - x with the drive
    reversed, and the engine integrates w1 alone: w2 is exactly D - w1
    after every frame of a pattern run.  It makes the bridge current
    independent of the weight."""
    cfg = network_config(load_config(None, [f"device.window.kind={kind}"]))
    lo, hi = cfg.synapse.device.state_range
    off, frames = [0], [0]
    run_frame = Network.run_frame

    def checked(net, *args, **kwargs):
        rep = run_frame(net, *args, **kwargs)
        frames[0] += 1
        off[0] += sum(w2 != (lo + hi) - w1 for w1, w2 in (syn.w for syn in net.synapses))
        return rep

    monkeypatch.setattr(Network, "run_frame", checked)
    res = pattern_learning(cfg, StimulusParams().program(epochs), init=init)
    assert frames[0] == 10 * epochs and res.first_fire_epoch is not None
    assert off[0] == 0


def test_pattern_learning_rejects_bad_init():
    with pytest.raises(ConfigError):
        pattern_learning(make_config(n_pre=9), StimulusParams().program(1), init="random")


def numpy_stability_epoch(weights, window=20, tol=0.005):
    """`stability_epoch` as it was written with numpy: the oracle of the
    pure-Python one, whose column sums must add in numpy's axis-0 order."""
    n = weights.shape[0]
    if n < window:
        return None
    stable = np.zeros(n, dtype=bool)
    for e in range(window - 1, n):
        mean = weights[e - window + 1:e + 1].mean(axis=0)
        stable[e] = bool(np.all(np.abs(weights[e] - mean) <= tol))
    last_bad = -1
    for e in range(window - 1, n):
        if not stable[e]:
            last_bad = e
    first = last_bad + 1
    if first >= n:
        return None
    return max(first, window - 1)


def test_stability_epoch_matches_numpy_oracle():
    """Seeded weight walks whose steps shrink at drawn rates settle at many
    epochs, or never: the pure-Python epoch equals the numpy one on each.
    A deviation of exactly tol is stable, with tol one ulp smaller it is not,
    fewer epochs than the window have no stable epoch, and the window's sums
    add in epoch order."""
    rng = np.random.default_rng(22)
    seen = set()
    for _ in range(1000):
        n = int(rng.integers(0, 120))
        scale = rng.uniform(1e-3, 2e-2) * np.exp(-np.arange(n) / rng.uniform(5.0, 60.0))
        # two or more columns: numpy sums a single column pairwise
        walk = np.cumsum(rng.standard_normal((n, int(rng.integers(2, 10)))) * scale[:, None],
                         axis=0)
        epoch = stability_epoch([tuple(row) for row in walk.tolist()])
        assert epoch == numpy_stability_epoch(walk)
        seen.add(epoch)
    assert None in seen and len(seen) > 20
    rows = [(0.0, 0.5)] * 19 + [(0.25, 0.5)]  # n == window
    tol = 0.25 - 0.25 / 20
    for t, expected in ((tol, 19), (math.nextafter(tol, 0.0), None)):
        assert stability_epoch(rows, tol=t) == expected
        assert numpy_stability_epoch(np.array(rows), tol=t) == expected
    assert stability_epoch(rows[:19], tol=tol) is None
    # the 1e-16s vanish one at a time against 1.0, in epoch order, so the
    # mean is 0.05 exactly; summed in any other order they would not
    rows = [(1.0, 0.0)] + [(1e-16, 0.0)] * 18 + [(0.0, 0.0)]
    assert stability_epoch(rows, tol=0.05) == 19
    assert numpy_stability_epoch(np.array(rows), tol=0.05) == 19


def test_stability_epoch_detects_settling():
    flat = np.ones((60, 2))
    ramp = np.vstack([np.linspace(0, 1, 30), np.linspace(0, 1, 30)]).T
    w = np.vstack([ramp, np.ones((30, 2))])
    assert stability_epoch(flat) == 19
    s = stability_epoch(w)
    assert s is not None and 25 <= s <= 50
    assert stability_epoch(np.vstack([np.linspace(0, 5, 60), np.linspace(0, 5, 60)]).T) is None


def test_post_sums_its_inputs_in_synapse_order(monkeypatch):
    """`LifNeuron.integrate` sums input by input, so the fire log depends on
    the order: slot 0 hands it the transmitted outputs of a 3-pre network
    with distinct weights in synapse index order."""
    cfg = make_config(n_pre=3)
    net = Network(cfg)
    expected = []
    for syn, target in zip(net.synapses, (0.2, 0.8, 0.5)):
        syn.program_to_weight(target, tolerance=0.01, dt=cfg.clock.dt)
        twin = SynapseAssembly.fresh(cfg.synapse)
        twin.w = syn.w
        expected.append(twin.transmit(cfg.lif.v_cc, cfg.clock.dt, duration=cfg.clock.slot_width))
    assert len(set(expected)) == 3
    seen = []
    integrate = LifNeuron.integrate
    monkeypatch.setattr(LifNeuron, "integrate",
                        lambda self, inputs, dt: seen.append(list(inputs)) or integrate(
                            self, inputs, dt))
    net.run_frame(forced_pre=(0, 1, 2))
    assert seen[0] == expected


def recorded_frames(monkeypatch):
    """Record the pieces of every `SynapseAssembly.frame` call."""
    calls = []
    frame = SynapseAssembly.frame

    def recorded(syn, pieces, dt):
        calls.append(list(pieces))
        return frame(syn, pieces, dt)

    monkeypatch.setattr(SynapseAssembly, "frame", recorded)
    return calls


def test_slot0_piece_is_weighted_and_biases_state(monkeypatch):
    """A firing pre's frame opens with its slot-0 piece, a +v_cc drive over
    the slot: the post takes weight * v_cc, the weight read before the
    frame steps, and the piece biases the bridge as any drive of that
    amplitude does (a weak read-induced drift, about +0.0024 from weight
    0.5).  Without a pre fire the frame has no slot-0 piece and the post
    takes 0."""
    cfg = make_config(n_pre=1)
    v_cc, slot, dt = cfg.lif.v_cc, cfg.clock.slot_width, cfg.clock.dt
    net = Network(cfg)
    psi0 = net.synapses[0].program_to_weight(0.5, tolerance=1e-3, dt=dt)
    start = net.synapses[0].w
    seen = []
    integrate = LifNeuron.integrate
    monkeypatch.setattr(LifNeuron, "integrate",
                        lambda self, inputs, dt: seen.append(list(inputs)) or integrate(
                            self, inputs, dt))
    frames = recorded_frames(monkeypatch)
    rep = net.run_frame(forced_pre=(0,))
    [pieces] = frames
    assert seen[0] == [psi0 * v_cc] and pieces[0] == (slot, v_cc) and rep.weights[0] != psi0
    assert net.synapses[0].w == SynapseAssembly(cfg.synapse, start).frame(pieces, dt).w
    read = SynapseAssembly(cfg.synapse, start).frame(pieces[:1], dt).weight()
    assert read - psi0 == pytest.approx(0.0024, rel=0.25)
    frames.clear()
    net.run_frame()
    [pieces] = frames
    assert seen[3] == [0.0] and 0.0 < pieces[0][0] < slot  # the slot-1 trace PWM


@pytest.mark.parametrize("init", ["zero", "midpoint"])
def test_frame_is_at_most_two_segment_calls(init, monkeypatch):
    """On the manifold a frame miss makes at most two `_kernels.segment`
    calls, one per drive sign (an up span of slot 0 and the slot-1 pieces, a
    down span of the slot-2 pieces), and a `drive` makes one: a 20-epoch run
    and its init.  The composition is synapse.py's: network.py never imports
    `_kernels`."""
    calls, per_call = [0], []
    segment = K.segment

    def counted(*args):
        calls[0] += 1
        return segment(*args)

    def per(method):
        step = getattr(SynapseAssembly, method)

        def wrapped(syn, *args, **kwargs):
            before = calls[0]
            result = step(syn, *args, **kwargs)
            per_call.append((method, args, calls[0] - before))
            return result

        monkeypatch.setattr(SynapseAssembly, method, wrapped)

    monkeypatch.setattr(K, "segment", counted)
    per("frame")
    per("drive")
    pattern_learning(network_config(STOCK), StimulusParams().program(20), init=init)
    frames = [(args[0], n) for method, args, n in per_call if method == "frame"]
    drives = [n for method, _, n in per_call if method == "drive"]
    assert drives and all(n == 1 for n in drives)
    assert len(frames) > 500 and any(n == 2 for _, n in frames)
    assert all(n <= len({v > 0.0 for _, v in pieces}) <= 2 for pieces, n in frames)
    imports = [node for node in ast.walk(ast.parse(Path(network.__file__).read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [getattr(node, "module", None) or "" for node in imports] + [
        alias.name for node in imports for alias in node.names]
    assert "SynapseAssembly" in names and not any("_kernels" in name for name in names)


def test_fault_reports_frame_context():
    # a frame with no drive finds the state non-finite at its weight check
    net = Network(make_config(n_pre=1))
    net.run_frame()
    net.synapses[0].w = (float("nan"), net.synapses[0].w[1])
    with pytest.raises(SimulationFault,
                       match="frame 1: slot 2, synapse 0: non-finite synapse state"):
        net.run_frame()
    # each synapse steps its whole frame in index order: synapse 0's trace
    # PWM in slot 1 faults before synapse 1's transmission in slot 0
    net = Network(make_config(n_pre=2))
    net.run_frame(forced_pre=(0,))
    for syn in net.synapses:
        syn.w = (float("nan"), syn.w[1])
    with pytest.raises(SimulationFault, match="frame 1: slot 1, synapse 0: non-finite"):
        net.run_frame(forced_pre=(1,))
    # a fault inside a lockstep group names the group's lowest index
    net = Network(make_config(n_pre=3))
    net.run_frame()
    bad = (net.synapses[0].w[0], float("nan"))
    for syn in net.synapses[1:]:
        syn.w = bad  # one non-finite pair, shared by both
    with pytest.raises(SimulationFault, match="frame 1: slot 0, synapse 1: non-finite"):
        net.run_frame(forced_pre=(1, 2))


@pytest.mark.parametrize("frames, where", [
    ([((0,), True)], "frame 0: slot 0, synapse 0: device rate overflow under 2.0, 4.0 V"),
    ([((0,), False), ((), True)], "frame 1: slot 1, synapse 0: .* under 4.0, 2.0 V"),
    ([((), True), ((0,), False)], "frame 1: slot 2, synapse 0: .* under -4.0, -2.0 V"),
], ids=["up span from slot 0", "up span from slot 1", "down span"])
def test_span_fault_names_its_first_slot(frames, where):
    """On the manifold a frame's pieces of one drive sign are one span, so a
    fault names the first slot of the span, whichever of its pieces
    faults: slot 0 for a firing pre's up span, else slot 1, and slot 2 for
    the down span.  Here the 4 V overlaps overflow the Joule power law and
    the 2 V drives do not."""
    cfg = network_config(STOCK, n_pre=1)
    i = 2.0 / (cfg.synapse.device.r_on + cfg.synapse.device.r_off + cfg.synapse.r1)
    device = replace(cfg.synapse.device, i0=i / 3e61, a0=1e-3)  # (2 i0 3e61)^5 overflows
    net = Network(replace(cfg, synapse=replace(cfg.synapse, device=device)))
    with pytest.raises(SimulationFault, match=where):
        for pre, post in frames:
            net.run_frame(forced_pre=pre, forced_post=post)


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
    net.synapses[0].w = (float("nan"), net.synapses[0].w[1])
    with deadline(10.0), pytest.raises(SimulationFault,
                                       match=f"frame 1: {where}, synapse 0: non-finite"):
        net.run_frame(forced_pre=forced_pre)


@pytest.mark.parametrize("forced_pre", [(1,), (-1,)])
def test_pre_index_outside_network_rejected(forced_pre):
    with pytest.raises(ConfigError, match=r"pre index outside \[0, 1\)"):
        Network(make_config(n_pre=1)).run_frame(forced_pre=forced_pre)


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(n_pre=0).validate()
    with pytest.raises(ConfigError):
        NetworkConfig(n_pre=1, clock=ClockParams(dt=3e-5)).validate()  # does not divide 10 ms
    # the positivity rules come before the slot division
    with pytest.raises(ConfigError, match="base_freq > 0"):
        NetworkConfig(n_pre=1, clock=ClockParams(base_freq=0.0)).validate()
    with pytest.raises(ConfigError, match="dt > 0"):
        NetworkConfig(n_pre=1, clock=ClockParams(dt=0.0)).validate()
