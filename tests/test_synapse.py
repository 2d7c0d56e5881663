import math
from dataclasses import replace

import numpy as np
import pytest

from memsnn import _kernels as K
from memsnn.device import MemristorParams, MemristorState, SineDrive, hysteresis_sweep
from memsnn.errors import ConfigError, SimulationFault
from memsnn.harness import load_config, network_config, vteam_variant
from memsnn.plasticity import pwm_encode
from memsnn.synapse import (EXCITATORY, INHIBITORY, SynapseAssembly, SynapseConfig,
                            _branch, _orientations)

CFG_EXC = SynapseConfig(polarity=EXCITATORY)
CFG_INH = SynapseConfig(polarity=INHIBITORY)
DT = 1e-5
STOCK = load_config(None)
# the threshold-device circuit of the stdp-window-vteam experiment
CFG_VTEAM = network_config(vteam_variant(STOCK)).synapse
DRIVERS = (SynapseAssembly.apply_differential, SynapseAssembly.drive)


def assembly_at(config, m1, m2, m3, m4):
    """Build an assembly with given memristances (dopant-drift device)."""
    dev = config.device
    def w_of(r):
        return dev.d * (dev.r_off - r) / (dev.r_off - dev.r_on)
    return SynapseAssembly(config, (w_of(m1), w_of(m2), w_of(m3), w_of(m4)))


def nodal_weight(config, m1, m2, m3, m4, v_in=1.0):
    """Independent oracle: solve the bridge by nodal analysis.

    Excitatory branch 1 is A-M1-n1-M2-n2-R1-B with the tap at n1; branch 2 is
    A-M3-n3-R2-n4-M4-B with the tap at n4.  Inhibitory swaps the resistor
    positions and the taps accordingly.
    """
    g1, g2, g3, g4 = 1 / m1, 1 / m2, 1 / m3, 1 / m4
    gr1, gr2 = 1 / config.r1, 1 / config.r2
    if config.polarity == EXCITATORY:
        # unknowns n1, n2, n3, n4
        A = np.array([
            [g1 + g2, -g2, 0, 0],
            [-g2, g2 + gr1, 0, 0],
            [0, 0, g3 + gr2, -gr2],
            [0, 0, -gr2, gr2 + g4],
        ])
        b = np.array([g1 * v_in, 0.0, g3 * v_in, 0.0])
        n = np.linalg.solve(A, b)
        v_plus, v_minus = n[0], n[3]
    else:
        # branch 1: A-M1-n1-R1-n2-M2-B, tap n2; branch 2: A-M3-n3-M4-n4-R2-B, tap n3
        A = np.array([
            [g1 + gr1, -gr1, 0, 0],
            [-gr1, gr1 + g2, 0, 0],
            [0, 0, g3 + g4, -g4],
            [0, 0, -g4, g4 + gr2],
        ])
        b = np.array([g1 * v_in, 0.0, g3 * v_in, 0.0])
        n = np.linalg.solve(A, b)
        v_plus, v_minus = n[1], n[2]
    return config.gain_a * (v_plus - v_minus) / v_in


def test_weight_fresh_state():
    syn = SynapseAssembly.fresh(CFG_EXC)
    assert syn.resistances() == pytest.approx((16000.0, 100.0, 100.0, 16000.0))
    expected = 1.1 * (16100.0 / 32100.0 - 16000.0 / 32100.0)
    assert syn.weight() == pytest.approx(expected, rel=1e-12)


def test_weight_saturated_state():
    syn = assembly_at(CFG_EXC, 100.0, 16000.0, 16000.0, 100.0)
    expected = 1.1 * (32000.0 / 32100.0 - 100.0 / 32100.0)
    assert syn.weight() == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0931, abs=1e-4)


def test_weight_inhibitory_extreme():
    syn = assembly_at(CFG_INH, 16000.0, 100.0, 100.0, 16000.0)
    expected = 1.1 * (100.0 / 32100.0 - 32000.0 / 32100.0)
    assert syn.weight() == pytest.approx(expected, rel=1e-12)
    assert expected < -1.09


def test_weight_matches_nodal_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m = rng.uniform(100.0, 16000.0, 4)
        for cfg in (CFG_EXC, CFG_INH):
            syn = assembly_at(cfg, *m)
            oracle = nodal_weight(cfg, *m)
            assert syn.weight() == pytest.approx(oracle, rel=1e-12)


def test_apply_zero_is_identity():
    for config in (CFG_EXC, CFG_VTEAM):
        for step in DRIVERS:
            syn = SynapseAssembly.fresh(config)
            w0 = tuple(syn.w)
            step(syn, 0.0, DT, duration=0.01)
            assert tuple(syn.w) == w0


def test_apply_nonfinite_faults():
    for config in (CFG_EXC, CFG_VTEAM):
        syn = SynapseAssembly.fresh(config)
        for step in DRIVERS:
            for v, dt in ((float("inf"), DT), (float("nan"), DT), (4.0, 0.0), (4.0, -DT)):
                with pytest.raises(SimulationFault):
                    step(syn, v, dt)


def test_monotone_potentiation():
    for config, dt, pulse in ((CFG_EXC, DT, 5e-3), (CFG_VTEAM, 1e-6, 1e-4)):
        syn = SynapseAssembly.fresh(config)
        prev = syn.weight()
        for _ in range(30):
            syn.apply_differential(4.0, dt, duration=pulse)
            cur = syn.weight()
            assert cur > prev
            prev = cur


def test_soft_bound_near_range_top():
    # per-pulse weight gain shrinks monotonically in the upper range
    syn = SynapseAssembly.fresh(CFG_EXC)
    syn.program_to_weight(0.88, tolerance=1e-3, dt=DT)  # ~last 20% of range
    deltas = []
    for _ in range(12):
        before = syn.weight()
        syn.apply_differential(4.0, DT, duration=5e-3)
        deltas.append(syn.weight() - before)
    for a, b in zip(deltas, deltas[1:]):
        assert b <= a + 1e-12
    assert deltas[-1] < deltas[0]


def test_polarity_confinement_random_pulses():
    rng = np.random.default_rng(3)
    exc = SynapseAssembly.fresh(CFG_EXC)
    inh = SynapseAssembly.fresh(CFG_INH)
    for _ in range(1000):
        v = float(rng.choice([-4.0, -2.0, 2.0, 4.0]))
        dur = float(rng.uniform(1e-4, 2e-3))
        exc.apply_differential(v, 1e-4, duration=dur)
        inh.apply_differential(v, 1e-4, duration=dur)
        assert exc.weight() >= -1e-15
        assert inh.weight() <= 1e-15


def test_mirror_symmetry():
    rng = np.random.default_rng(11)
    exc = SynapseAssembly.fresh(CFG_EXC)
    inh = SynapseAssembly.fresh(CFG_INH)
    assert inh.weight() == pytest.approx(-exc.weight(), rel=1e-12)
    for _ in range(200):
        v = float(rng.choice([-4.0, -2.0, 2.0, 4.0]))
        dur = float(rng.uniform(1e-4, 2e-3))
        exc.apply_differential(v, 1e-4, duration=dur)
        inh.apply_differential(v, 1e-4, duration=dur)
        assert inh.weight() == pytest.approx(-exc.weight(), rel=1e-9, abs=1e-15)


def test_linear_region_proportionality():
    base = SynapseAssembly.fresh(CFG_EXC)
    base.program_to_weight(0.5, tolerance=1e-3, dt=DT)
    one = base.copy()
    one.apply_differential(4.0, DT, duration=2e-3)
    two = base.copy()
    two.apply_differential(4.0, DT, duration=4e-3)
    d1 = one.weight() - base.weight()
    d2 = two.weight() - base.weight()
    assert d2 / d1 == pytest.approx(2.0, rel=0.05)


def test_weak_strong_calibration():
    base = SynapseAssembly.fresh(CFG_EXC)
    psi0 = base.program_to_weight(0.5, tolerance=1e-3, dt=DT)
    strong = base.copy()
    strong.apply_differential(4.0, DT, duration=0.01)
    weak = base.copy()
    weak.apply_differential(2.0, DT, duration=0.01)
    d_strong = strong.weight() - psi0
    d_weak = weak.weight() - psi0
    assert d_strong == pytest.approx(0.07441, rel=0.15)
    assert d_weak == pytest.approx(0.0024, rel=0.25)
    assert d_weak / d_strong == pytest.approx(0.032, abs=0.01)


def test_transmit_is_weighted_and_biases_state():
    syn = SynapseAssembly.fresh(CFG_EXC)
    psi0 = syn.program_to_weight(0.5, tolerance=1e-3, dt=DT)
    v_out = syn.transmit(2.0, DT, duration=0.01)
    assert v_out == pytest.approx(psi0 * 2.0, rel=1e-12)
    assert syn.weight() - psi0 == pytest.approx(0.0024, rel=0.25)


def test_transmit_zero_input():
    syn = SynapseAssembly.fresh(CFG_EXC)
    w0 = tuple(syn.w)
    assert syn.transmit(0.0, DT, duration=0.01) == 0.0
    assert tuple(syn.w) == w0


def test_program_to_current_weight_is_noop():
    syn = SynapseAssembly.fresh(CFG_EXC)
    w0 = tuple(syn.w)
    achieved = syn.program_to_weight(syn.weight(), tolerance=1e-3, dt=DT)
    assert tuple(syn.w) == w0
    assert achieved == pytest.approx(syn.weight())


def test_program_to_zero_stalls_at_range_floor():
    syn = SynapseAssembly.fresh(CFG_EXC)
    syn.program_to_weight(0.5, tolerance=1e-3, dt=DT)
    achieved = syn.program_to_weight(0.0, tolerance=1e-4, dt=DT)
    fresh = SynapseAssembly.fresh(CFG_EXC).weight()
    assert achieved == pytest.approx(fresh, abs=1e-3)


def test_program_within_tolerance_verified_by_weight():
    syn = SynapseAssembly.fresh(CFG_EXC)
    achieved = syn.program_to_weight(0.5, tolerance=1e-3, dt=DT)
    assert abs(achieved - 0.5) <= 1e-3
    assert syn.weight() == achieved


def test_program_ends_at_a_pulse_that_crosses_the_band(monkeypatch):
    """At q = 1 one 10 us pulse moves the weight further than the 2e-3 wide
    band, so no pulse count lands in it.  Programming stops at the first
    pulse that crosses the band, keeps the side nearer the target, and the
    synapse holds that weight; it once pulsed back and forth for 5 s."""
    cfg = replace(CFG_EXC, device=replace(CFG_EXC.device, q=1))
    pulses = [0]
    pulse = SynapseAssembly.apply_differential

    def counted_pulse(*args):
        pulses[0] += 1
        return pulse(*args)

    monkeypatch.setattr(SynapseAssembly, "apply_differential", counted_pulse)
    syn = SynapseAssembly.fresh(cfg)
    achieved = syn.program_to_weight(0.5, tolerance=1e-3, dt=DT)
    assert pulses[0] == 2  # one short of the band, a jump to its edge, one across it
    assert syn.weight() == achieved
    crossed = syn.copy().apply_differential(4.0, DT).weight()
    assert achieved < 0.5 - 1e-3 and crossed > 0.5 + 1e-3
    assert abs(achieved - 0.5) <= abs(crossed - 0.5)


def test_program_unreachable_target_names_range():
    syn = SynapseAssembly.fresh(CFG_EXC)
    with pytest.raises(ConfigError, match="reachable range"):
        syn.program_to_weight(1.5)
    with pytest.raises(ConfigError, match="reachable range"):
        syn.program_to_weight(-0.5)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynapseConfig(r1=16000.0, r2=8000.0).validate()
    with pytest.raises(ConfigError):
        SynapseConfig(gain_a=0.0).validate()
    with pytest.raises(ConfigError):
        SynapseConfig(polarity="bidirectional").validate()


ENGINE_CONFIGS = {"proposed": STOCK, "vteam": vteam_variant(STOCK)}


@pytest.mark.parametrize("polarity", [EXCITATORY, INHIBITORY])
@pytest.mark.parametrize("kind", sorted(ENGINE_CONFIGS))
def test_drive_matches_fixed_step_oracle(kind, polarity):
    """The engine's error-controlled `drive` agrees with fixed-step
    `apply_differential` at the same dt, for every segment kind the engine
    emits: a weak +-v_cc rail over a whole slot, a strong +-2*v_cc overlap
    over a PWM width, and the 1 s zero-init drive (pattern-learn runs on the
    stock clock, so that one uses the stock dt)."""
    cfg = network_config(ENGINE_CONFIGS[kind], n_pre=1)
    sc = replace(cfg.synapse, polarity=polarity)
    sign = 1.0 if polarity == EXCITATORY else -1.0
    slot = 1.0 / cfg.clock.base_freq
    tp = cfg.trace
    width = pwm_encode(tp, tp.v_p * math.exp(-slot / tp.tau), slot, False)
    v_cc = cfg.lif.v_cc
    segments = [(v_cc, slot, cfg.clock.dt), (-v_cc, slot, cfg.clock.dt),
                (2 * v_cc, width, cfg.clock.dt), (-2 * v_cc, width, cfg.clock.dt),
                (-4.0, 1.0, network_config(STOCK).clock.dt)]
    base = SynapseAssembly.fresh(sc)
    base.program_to_weight(sign * 0.5, tolerance=1e-3, dt=cfg.clock.dt)
    psi0 = base.weight()
    for v, duration, dt in segments:
        ref = base.copy().apply_differential(v, dt, duration)
        got = base.copy().drive(v, dt, duration)
        assert ref.weight() != psi0  # every segment moves the state
        assert abs(got.weight() - ref.weight()) < 1e-9, (v, duration)


@pytest.mark.parametrize("polarity", [EXCITATORY, INHIBITORY])
@pytest.mark.parametrize("kind", sorted(ENGINE_CONFIGS))
def test_mirror_is_the_integrated_second_branch(kind, polarity, monkeypatch):
    """M3, M4 written as the mirror of branch 1 are bit for bit what
    integrating branch 2 (w3, w4, o3, o4, r2) through the same kernel driver
    gives: both drivers, weak +-v_cc and strong +-2*v_cc drives over a slot,
    and a 10 ms -4 V drive back toward the fresh corner, which lands the
    VTEAM devices that were off their bounds onto them (the dopant window
    keeps its devices inside)."""
    cfg = network_config(ENGINE_CONFIGS[kind], n_pre=1)
    sc = replace(cfg.synapse, polarity=polarity)
    sign = 1.0 if polarity == EXCITATORY else -1.0
    o3, o4 = _orientations(sc)[2:]
    lo, hi = sc.device.state_range
    calls = []
    for name in ("branch_step", "branch_segment"):
        def recorded(*args, _driver=getattr(K, name)):
            calls.append((_driver, args))
            return _driver(*args)
        monkeypatch.setattr(K, name, recorded)
    base = SynapseAssembly.fresh(sc)
    base.program_to_weight(sign * 0.5, tolerance=1e-3, dt=cfg.clock.dt)
    slot = 1.0 / cfg.clock.base_freq
    v_cc = cfg.lif.v_cc
    segments = [(v, slot) for v in (v_cc, -v_cc, 2 * v_cc, -2 * v_cc)] + [(-4.0, 0.01)]
    landed = 0
    for step in DRIVERS:
        for v, duration in segments:
            syn = base.copy()
            w = tuple(syn.w)
            calls.clear()
            _branch.cache_clear()  # (-2 * v_cc, slot) may repeat (-4 V, 10 ms)
            step(syn, v, cfg.clock.dt, duration)
            [(driver, args)] = calls
            params = args[11:]  # device constants after (..., o1, o2, r1, v)
            expected = driver(args[0], w[2], w[3], lo, hi, duration, cfg.clock.dt,
                              o3, o4, sc.r2, v, *params)
            assert tuple(syn.w[2:]) == expected, (step.__name__, v, duration)
            assert syn.w[2:] != list(w[2:])
            landed += any(not (lo < a < hi) and lo < b < hi for a, b in zip(syn.w, w))
    assert landed == (len(DRIVERS) if kind == "vteam" else 0)


@pytest.mark.parametrize("polarity", [EXCITATORY, INHIBITORY])
@pytest.mark.parametrize("kind", sorted(ENGINE_CONFIGS))
def test_device_members_set_corners_and_kernel_constants(kind, polarity, monkeypatch):
    """A fresh synapse reads exactly (R_OFF, R_ON, R_ON, R_OFF), mirrored
    for the inhibitory one, and the sine sweep and a drive hand the device's
    kernels the same rate law: one object, shared by equal device params."""
    cfg = network_config(ENGINE_CONFIGS[kind], n_pre=1)
    sc = replace(cfg.synapse, polarity=polarity)
    dev = sc.device
    syn = SynapseAssembly.fresh(sc)
    if polarity == EXCITATORY:
        assert syn.resistances() == (dev.r_off, dev.r_on, dev.r_on, dev.r_off)
    else:
        assert syn.resistances() == (dev.r_on, dev.r_off, dev.r_off, dev.r_on)
    model = "vteam" if kind == "vteam" else "dopant"
    seen = {"branch_rk4": set(), "sine_sweep": set()}
    # the law follows (w1, w2, h, o1, o2, r1, v) or (w0, ..., sample_every),
    # and the sweep's bounds and five output arrays follow it
    for name, end in (("branch_rk4", None), ("sine_sweep", -5)):
        def recorded(*args, _kernel=getattr(K, f"{model}_{name}"), _seen=seen[name], _end=end):
            _seen.add(args[7:_end])
            return _kernel(*args)
        monkeypatch.setattr(K, f"{model}_{name}", recorded)
    syn.drive(2 * cfg.lif.v_cc, cfg.clock.dt, 1.0 / cfg.clock.base_freq)
    lo, hi = dev.state_range
    hysteresis_sweep(dev, MemristorState(w=0.5 * (lo + hi)), SineDrive(1.0, 10.0),
                     1e-3, 1e-5, 10)
    [(rates,)] = seen["branch_rk4"]
    [(law, lo_seen, hi_seen)] = seen["sine_sweep"]
    assert rates is law.branch_rates and law is dev.law is replace(dev).law
    assert (lo_seen, hi_seen) == (lo, hi)


@pytest.mark.parametrize("config", [CFG_EXC, CFG_INH, CFG_VTEAM])
def test_unmirrored_state_faults(config):
    span = config.device.state_range[1] - config.device.state_range[0]
    for step in DRIVERS:
        syn = SynapseAssembly.fresh(config)
        syn.program_to_weight(0.5 if config.polarity == EXCITATORY else -0.5, dt=1e-6)
        syn.w[3] += 1e-12 * span
        w = tuple(syn.w)
        with pytest.raises(SimulationFault, match="unmirrored bridge state"):
            step(syn, 4.0, 1e-6, 1e-3)
        assert tuple(syn.w) == w


def test_drive_nonfinite_state_faults():
    syn = SynapseAssembly.fresh(CFG_EXC)
    syn.w[1] = float("nan")
    with pytest.raises(SimulationFault, match="non-finite device state"):
        syn.drive(4.0, DT, duration=0.01)


def test_drive_from_bound_resolves_crossing_to_opposite_bound():
    """A long first step from the fresh corner, where every device sits on a
    bound, must not carry a device across its whole range in one accepted
    step: its clamped result on the opposite bound once read as no error."""
    for duration, dt in ((0.01, 1e-6), (0.05, 1e-6), (1.0, DT)):
        ref = SynapseAssembly.fresh(CFG_VTEAM).apply_differential(4.0, dt, duration)
        got = SynapseAssembly.fresh(CFG_VTEAM).drive(4.0, dt, duration)
        assert abs(got.weight() - ref.weight()) < 1e-9, duration


def pulsewise_program(syn, target, tolerance, dt, level=4.0, max_seconds=5.0):
    """The closed-loop programming reference: one `apply_differential`
    micro-pulse and one weight readout per step, ending at the nearer side
    of a pulse that crosses the band."""
    sign_for_up = 1.0 if syn.config.polarity == EXCITATORY else -1.0
    psi = syn.weight()
    steps = 0
    max_steps = int(max_seconds / dt)
    while abs(psi - target) > tolerance and steps < max_steps:
        before = list(syn.w)
        syn.apply_differential(level * sign_for_up * (1.0 if target > psi else -1.0), dt)
        new_psi = syn.weight()
        if abs(new_psi - psi) < 1e-15:
            break
        if abs(new_psi - target) > tolerance and (new_psi > target) != (psi > target):
            if abs(new_psi - target) < abs(psi - target):
                return new_psi
            syn.w = before
            return psi
        psi = new_psi
        steps += 1
    return psi


@pytest.mark.parametrize("polarity", [EXCITATORY, INHIBITORY])
@pytest.mark.parametrize("kind", sorted(ENGINE_CONFIGS))
def test_program_matches_pulsewise_oracle(kind, polarity):
    """Event-located programming ends where the pulse-wise loop does: the
    weights agree within 1e-9, far below the weight change of one pulse, so
    the pulse counts agree.  The cases are programming up from the fresh
    corner, a downward re-program, and programming to 0, which stalls at the
    range floor.  max_seconds leaves room for the longest run (0.875).  At
    tolerance 1e-5 the band is narrower than one pulse, so most of those
    runs end at a pulse that crosses it."""
    cfg = network_config(ENGINE_CONFIGS[kind], n_pre=1)
    sc = replace(cfg.synapse, polarity=polarity)
    sign = 1.0 if polarity == EXCITATORY else -1.0
    max_seconds = 0.15 if kind == "proposed" else 0.05
    cases = [((), t, tol) for t in (0.25, 0.5, 0.875) for tol in (1e-2, 1e-3, 1e-5)]
    cases += [((0.5,), 0.2, 1e-3), ((0.5,), 0.0, 1e-4)]
    dt = cfg.clock.dt
    for before, target, tol in cases:
        ref = SynapseAssembly.fresh(sc)
        got = SynapseAssembly.fresh(sc)
        for t in before:
            pulsewise_program(ref, sign * t, 1e-3, dt, max_seconds=max_seconds)
            got.program_to_weight(sign * t, 1e-3, dt=dt, max_seconds=max_seconds)
        expected = pulsewise_program(ref, sign * target, tol, dt, max_seconds=max_seconds)
        achieved = got.program_to_weight(sign * target, tol, dt=dt, max_seconds=max_seconds)
        assert abs(achieved - expected) < 1e-9, (before, target, tol)
        assert abs(got.weight() - ref.weight()) < 1e-9, (before, target, tol)


def test_program_cost_is_a_fraction_of_the_pulses(monkeypatch):
    """Programming a fresh synapse to 0.5 takes under a tenth of the branch
    RK4 steps of the pulse-wise loop, which takes exactly one per pulse
    (branch 2 is the mirror of branch 1); a count, not a time."""
    calls = [0]
    pulses = [0]
    rk4 = K.dopant_branch_rk4
    pulse = SynapseAssembly.apply_differential

    def counted(*args):
        calls[0] += 1
        return rk4(*args)

    def counted_pulse(*args):
        pulses[0] += 1
        return pulse(*args)

    monkeypatch.setattr(K, "dopant_branch_rk4", counted)
    monkeypatch.setattr(SynapseAssembly, "apply_differential", counted_pulse)
    pulsewise_program(SynapseAssembly.fresh(CFG_EXC), 0.5, 1e-3, DT)
    oracle, n_pulses, calls[0] = calls[0], pulses[0], 0
    SynapseAssembly.fresh(CFG_EXC).program_to_weight(0.5, tolerance=1e-3, dt=DT)
    assert oracle == n_pulses
    assert calls[0] < oracle / 10


def test_drive_error_falls_with_segment_tolerance(monkeypatch):
    """The engine's error against the fixed-step reference shrinks as the
    segment tolerance does: a +4 V, 50 ms drive from the fresh corner."""
    ref = SynapseAssembly.fresh(CFG_EXC).apply_differential(4.0, DT, 0.05).weight()
    errors = []
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        monkeypatch.setattr(K, "SEGMENT_TOL", tol)
        errors.append(abs(SynapseAssembly.fresh(CFG_EXC).drive(4.0, DT, 0.05).weight() - ref))
    assert all(b < a for a, b in zip(errors, errors[1:])), errors


def counting(monkeypatch):
    """Replace the dopant branch RK4 step with a counting wrapper."""
    calls = [0]
    rk4 = K.dopant_branch_rk4

    def counted(*args):
        calls[0] += 1
        return rk4(*args)

    monkeypatch.setattr(K, "dopant_branch_rk4", counted)
    return calls


@pytest.mark.parametrize("kind", sorted(ENGINE_CONFIGS))
def test_cached_drive_is_the_integrated_drive(kind):
    """A drive from a cold cache, its cached replay and a direct driver call
    on branch 1 are bitwise equal, for both device kinds and both drivers."""
    cfg = network_config(ENGINE_CONFIGS[kind], n_pre=1)
    sc = cfg.synapse
    dev = sc.device
    lo, hi = dev.state_range
    o1, o2 = _orientations(sc)[:2]
    # a law built here, apart from the device's shared one
    window = K.window(dev.window.kind, dev.window.p, dev.window.j)
    if kind == "vteam":
        law = K.vteam_law(dev.v_on, dev.v_off, dev.k_on, dev.k_off, float(dev.alpha_on),
                          float(dev.alpha_off), dev.w_on, dev.w_off, dev.r_on, dev.r_off, window)
    else:
        law = K.dopant_law(dev.r_on, dev.r_off, dev.d, dev.mu_v, dev.a0, dev.i0, dev.q, window)
    assert law.branch_rates is not dev.law.branch_rates
    rk4 = K.vteam_branch_rk4 if kind == "vteam" else K.dopant_branch_rk4
    base = SynapseAssembly.fresh(sc)
    base.program_to_weight(0.5, tolerance=1e-3, dt=cfg.clock.dt)
    slot = 1.0 / cfg.clock.base_freq
    for step, driver in zip(DRIVERS, ("branch_step", "branch_segment")):
        _branch.cache_clear()
        cold = base.copy()
        step(cold, 2 * cfg.lif.v_cc, cfg.clock.dt, slot)
        hits = _branch.cache_info().hits
        warm = base.copy()
        step(warm, 2 * cfg.lif.v_cc, cfg.clock.dt, slot)
        assert _branch.cache_info().hits == hits + 1
        w1, w2 = getattr(K, driver)(rk4, base.w[0], base.w[1], lo, hi, slot, cfg.clock.dt,
                                    o1, o2, sc.r1, 2 * cfg.lif.v_cc, law.branch_rates)
        assert cold.w == warm.w == [w1, w2, w2, w1], step.__name__
        assert cold.w != base.w


def test_cache_key_covers_every_input(monkeypatch):
    """Changing any one input of a cached drive integrates again: the
    segment tolerance, the RK4 step, dt, duration, the voltage, the polarity
    (orientations), a device constant, the window kind and the window
    exponent each give a miss.  Equal but distinct device params share the
    law, so their drive is a hit."""
    calls = counting(monkeypatch)
    fresh = SynapseAssembly.fresh(CFG_EXC)

    def cost(config=CFG_EXC, v=4.0, dt=DT, duration=1e-3):
        calls[0] = 0
        SynapseAssembly(config, fresh.w).drive(v, dt, duration)
        return calls[0]

    assert cost() > 0
    assert cost() == 0
    dev = CFG_EXC.device
    other_device = replace(CFG_EXC, device=replace(dev, mu_v=1.01e-14))
    other_kind = replace(CFG_EXC, device=replace(dev, window=replace(dev.window, kind="biolek")))
    other_p = replace(CFG_EXC, device=replace(dev, window=replace(dev.window, p=5)))
    equal_device = replace(CFG_EXC, device=MemristorParams())
    assert equal_device.device == dev and equal_device.device is not dev
    assert cost(config=equal_device) == 0
    assert cost(dt=DT / 2) > 0
    assert cost(duration=2e-3) > 0
    assert cost(v=3.5) > 0
    assert cost(config=replace(CFG_EXC, polarity=INHIBITORY)) > 0
    assert cost(config=other_device) > 0
    assert cost(config=other_kind) > 0
    assert cost(config=other_p) > 0
    monkeypatch.setattr(K, "SEGMENT_TOL", 1e-10)
    assert cost() > 0
    monkeypatch.setattr(K, "SEGMENT_TOL", 1e-12)
    assert cost() == 0
    repatched = counting(monkeypatch)
    cost()
    assert repatched[0] > 0
