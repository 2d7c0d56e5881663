import functools
import math
import sys
import typing
from dataclasses import replace

import numpy as np
import pytest

from memsnn import _kernels as K
from memsnn.device import (MemristorParams, MemristorState, SineDrive, VteamParams,
                           WindowSpec, hysteresis_sweep)
from memsnn.errors import ConfigError, SimulationFault
from memsnn.harness import load_config, network_config, vteam_variant
from memsnn.plasticity import differential_frame, pwm_encode
from memsnn.synapse import EXCITATORY, INHIBITORY, SynapseAssembly, SynapseConfig

CFG_EXC = SynapseConfig(polarity=EXCITATORY)
CFG_INH = SynapseConfig(polarity=INHIBITORY)
DT = 1e-5
STOCK = load_config(None)
# the threshold-device circuit of the stdp-window-vteam experiment
CFG_VTEAM = network_config(vteam_variant(STOCK)).synapse
DRIVERS = (SynapseAssembly.apply_differential, SynapseAssembly.drive)


def assembly_at(config, m1, m2):
    """Build an assembly with physical memristances m1, m2 (and so m3 = m2,
    m4 = m1) of the dopant-drift device.  An inhibitory bridge is held as
    its excitatory twin, (w(m2), w(m1))."""
    dev = config.device
    def w_of(r):
        return dev.d * (dev.r_off - r) / (dev.r_off - dev.r_on)
    w = (w_of(m1), w_of(m2))
    return SynapseAssembly(config, w if config.polarity == EXCITATORY else w[::-1])


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
    syn = assembly_at(CFG_EXC, 100.0, 16000.0)
    expected = 1.1 * (32000.0 / 32100.0 - 100.0 / 32100.0)
    assert syn.weight() == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0931, abs=1e-4)


def test_weight_inhibitory_extreme():
    syn = assembly_at(CFG_INH, 16000.0, 100.0)
    expected = 1.1 * (100.0 / 32100.0 - 32000.0 / 32100.0)
    assert syn.weight() == pytest.approx(expected, rel=1e-12)
    assert expected < -1.09


def test_weight_matches_nodal_oracle():
    """The pair readout against the general four-resistance nodal solution
    of the mirrored bridge (m3 = m2, m4 = m1)."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m1, m2 = rng.uniform(100.0, 16000.0, 2)
        for cfg in (CFG_EXC, CFG_INH):
            syn = assembly_at(cfg, m1, m2)
            oracle = nodal_weight(cfg, m1, m2, m2, m1)
            assert syn.weight() == pytest.approx(oracle, rel=1e-12)


def test_apply_zero_is_identity():
    for config in (CFG_EXC, CFG_VTEAM):
        for step in DRIVERS:
            syn = SynapseAssembly.fresh(config)
            w0 = syn.w
            step(syn, 0.0, DT, duration=0.01)
            assert syn.w == w0


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
    w0 = syn.w
    assert syn.transmit(0.0, DT, duration=0.01) == 0.0
    assert syn.w == w0


def test_program_to_current_weight_is_noop():
    syn = SynapseAssembly.fresh(CFG_EXC)
    w0 = syn.w
    achieved = syn.program_to_weight(syn.weight(), tolerance=1e-3, dt=DT)
    assert syn.w == w0
    assert achieved == pytest.approx(syn.weight())


def counted_drives(monkeypatch, method="drive"):
    """Count the calls of `SynapseAssembly.drive`, or of its `method`."""
    drives = [0]
    drive = getattr(SynapseAssembly, method)

    def counted_drive(*args, **kwargs):
        drives[0] += 1
        return drive(*args, **kwargs)

    monkeypatch.setattr(SynapseAssembly, method, counted_drive)
    return drives


def piecewise(step):
    """A `SynapseAssembly.frame` that steps each piece with `step`, a
    method of `drive`'s signature, such as the fixed-step oracle."""
    def frame(syn, pieces, dt):
        for duration, v in pieces:
            step(syn, v, dt, duration)
        return syn

    return frame


def test_program_short_of_the_band_faults(monkeypatch):
    """A run that ends outside the band without crossing it raises
    SimulationFault naming the target and the weight reached.  Under the
    4 V pulses the VTEAM variant's devices stall in their dead zone at
    1.0860, short of targets 1.2 and 1.49 in its range [0.1, 1.5], after 23
    drives (the weight was once returned without an error); a budget of 10
    pulses ends short of 0.5 on the dopant bridge."""
    drives = counted_drives(monkeypatch)
    for target in (1.2, 1.49):
        drives[0] = 0
        syn = SynapseAssembly.fresh(CFG_VTEAM)
        with pytest.raises(SimulationFault,
                           match=rf"to weight {target:g} stopped at 1\.08601,"):
            syn.program_to_weight(target, tolerance=1e-3, dt=1e-6)
        assert drives[0] == 23
        assert syn.weight() == pytest.approx(1.0860, abs=5e-5)
    syn = SynapseAssembly.fresh(CFG_EXC)
    with pytest.raises(SimulationFault, match=r"to weight 0\.5 stopped at 0\.0"):
        syn.program_to_weight(0.5, tolerance=1e-3, dt=DT, max_seconds=10 * DT)
    ten_pulses = SynapseAssembly.fresh(CFG_EXC).drive(4.0, DT, 10 * DT).weight()
    assert syn.weight() == pytest.approx(ten_pulses, rel=1e-9)


def test_program_within_tolerance_verified_by_weight():
    syn = SynapseAssembly.fresh(CFG_EXC)
    achieved = syn.program_to_weight(0.5, tolerance=1e-3, dt=DT)
    assert abs(achieved - 0.5) <= 1e-3
    assert syn.weight() == achieved


def test_program_ends_at_a_pulse_that_crosses_the_band(monkeypatch):
    """At q = 1 one 10 us pulse moves the weight further than the 2e-3 wide
    band, so no pulse count lands in it.  Programming stops at the first
    pulse that crosses the band, keeps the side nearer the target, and the
    synapse holds that weight; it once pulsed back and forth for 5 s.  The
    search takes three drives: one pulse (short of the band), two more
    (they reach it), then the single pulse from the short state."""
    cfg = replace(CFG_EXC, device=replace(CFG_EXC.device, q=1))
    drives = counted_drives(monkeypatch)
    syn = SynapseAssembly.fresh(cfg)
    achieved = syn.program_to_weight(0.5, tolerance=1e-3, dt=DT)
    assert drives[0] == 3
    assert syn.weight() == achieved
    assert achieved == SynapseAssembly.fresh(cfg).drive(4.0, DT).weight()  # one pulse
    crossed = syn.copy().drive(4.0, DT).weight()
    assert achieved < 0.5 - 1e-3 and crossed > 0.5 + 1e-3
    assert abs(achieved - 0.5) <= abs(crossed - 0.5)


def test_program_unreachable_target_names_range():
    """The range spans the two corners: a target nearer 0 than the resting
    corner (0.0034 dopant, 0.100 VTEAM variant) is out of it, not a stall."""
    for config, targets in ((CFG_EXC, (1.5, -0.5, 0.0, 0.003)), (CFG_VTEAM, (1.51, 0.05))):
        for target in targets:
            with pytest.raises(ConfigError, match="reachable range"):
                SynapseAssembly.fresh(config).program_to_weight(target, dt=DT)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynapseConfig(r1=16000.0, r2=8000.0).validate()
    with pytest.raises(ConfigError):
        SynapseConfig(gain_a=0.0).validate()
    with pytest.raises(ConfigError):
        SynapseConfig(polarity="bidirectional").validate()


ENGINE_CONFIGS = {"proposed": STOCK, "vteam": vteam_variant(STOCK)}
# the segment driver `drive` takes from an on-manifold state: the dopant
# bridge conserves w1 + w2, so M1 is stepped alone at the law's span rates;
# VTEAM's does not, so the pair is stepped at its branch rates
SEGMENT_DRIVERS = {"proposed": "segment", "vteam": "branch_segment"}


def span_args(law, w1, lo, hi, dt, r_series, pieces):
    """The arguments of the one `_kernels.segment` call of a span: M1 from
    w1 over the scaled length S = sum |amp|*duration, floor S*dt/T for the
    pieces' duration T (both summed in piece order from 0.0), at the span
    rate of the first piece's drive sign."""
    span = total = 0.0
    for duration, v in pieces:
        span += law.manifold_speed(r_series, v) * duration
        total += duration
    return (w1, 0.0, span, span, span * dt / total, lo, hi, law.span_rates[pieces[0][1] > 0.0])


def segment_call(kind, law, w, lo, hi, duration, dt, o1, o2, r_series, v):
    """A direct call of the segment driver of `kind` on one constant drive,
    with the rates of `law`, as `drive` calls it: for the dopant bridge a
    one-piece span, M2 written as the mirror of M1."""
    if kind == "proposed":
        w1, _, _ = K.segment(*span_args(law, w[0], lo, hi, dt, r_series, ((duration, v),)))
        return w1, (lo + hi) - w1
    return K.branch_segment(*w, lo, hi, duration, dt, o1, o2, r_series, v, law.branch_rates)


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
    sign = sc.sign
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
    """Branch 2 wires M3 as M2 and M4 as M1 with r2 = r1, so it is branch 1
    with its devices swapped, and the pair (w1, w2) is the whole bridge
    state: each two-state driver on (w2, w1, o2, o1) returns the swap of its
    result on (w1, w2, o1, o2), bit for bit.  The dopant drive steps M1
    alone as a one-piece span and writes M2 as its mirror (lo + hi) - w1,
    so it has no second device to swap; the other steps take the two-state
    drivers.  Both drivers, weak +-v_cc and strong +-2*v_cc drives over a
    slot, and a 10 ms -4 V drive back toward the fresh corner, which lands
    the VTEAM devices that were off their bounds onto them (the dopant
    window keeps its devices inside)."""
    cfg = network_config(ENGINE_CONFIGS[kind], n_pre=1)
    sc = replace(cfg.synapse, polarity=polarity)
    sign = sc.sign
    o1, o2 = sc.device.ORIENTATIONS
    # the inhibitory bridge's inverted devices are this pair swapped, so it
    # is held as its excitatory twin
    assert (-o1, -o2) == (o2, o1)
    lo, hi = sc.device.state_range
    law, dt = sc.device.law, cfg.clock.dt
    calls = []
    for name in ("branch_step", "branch_segment", "segment"):
        def recorded(*args, _name=name, _driver=getattr(K, name)):
            result = _driver(*args)
            calls.append((_name, _driver, args, result))
            return result
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
            w = syn.w
            calls.clear()
            step(syn, v, dt, duration)
            [(name, driver, args, result)] = calls
            assert name == ("branch_step" if step is SynapseAssembly.apply_differential
                            else SEGMENT_DRIVERS[kind])
            if name == "segment":
                assert args == span_args(law, w[0], lo, hi, dt, sc.r1, ((duration, v),))
                assert syn.w == (result[0], (lo + hi) - result[0])
            else:
                # the fixed-step driver's RK4 step leads, the law's rates close
                lead, body = args[:-11], args[-11:]
                assert body[:10] == (*w, lo, hi, duration, dt, o1, o2, sc.r1, v)
                swapped = driver(*lead, w[1], w[0], lo, hi, duration, dt, o2, o1, sc.r2,
                                 *body[9:])
                assert [x.hex() for x in swapped] == [x.hex() for x in syn.w[::-1]], (
                    step.__name__, v, duration)
            assert syn.w != w
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
    sweep = f"{model}_sine_sweep"
    segment = SEGMENT_DRIVERS[kind]
    seen = {segment: set(), sweep: set()}
    # the law's span rate follows (w, t, t_end, h, dt, lo, hi), its branch
    # rates (w1, w2, lo, hi, duration, dt, o1, o2, r1, v); the law follows
    # (w0, ..., sample_every), then the sweep's bounds and five output arrays
    member = 7 if segment == "segment" else 10
    for name, start, end in ((segment, member, member + 1), (sweep, 7, -5)):
        def recorded(*args, _kernel=getattr(K, name), _seen=seen[name], _s=start, _e=end):
            _seen.add(args[_s:_e])
            return _kernel(*args)
        monkeypatch.setattr(K, name, recorded)
    syn.drive(2 * cfg.lif.v_cc, cfg.clock.dt, 1.0 / cfg.clock.base_freq)
    [(rates,)] = seen[segment]  # taken before the sweep, which steps with `segment` too
    lo, hi = dev.state_range
    hysteresis_sweep(dev, MemristorState(w=0.5 * (lo + hi)), SineDrive(1.0, 10.0),
                     1e-3, 1e-5, 10)
    [(law, lo_seen, hi_seen)] = seen[sweep]
    assert rates is (law.span_rates[1] if segment == "segment" else law.branch_rates)
    assert law is dev.law is replace(dev).law
    assert (lo_seen, hi_seen) == (lo, hi)


def test_drive_nonfinite_state_faults():
    syn = SynapseAssembly.fresh(CFG_EXC)
    syn.w = (syn.w[0], float("nan"))
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
    of a pulse that crosses the band.  None for a run that stalls or spends
    `max_seconds` short of the band."""
    sign_for_up = syn.config.sign
    psi = syn.weight()
    steps = 0
    max_steps = int(max_seconds / dt)
    while abs(psi - target) > tolerance and steps < max_steps:
        before = syn.w
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
    return psi if abs(psi - target) <= tolerance else None


@pytest.mark.parametrize("polarity", [EXCITATORY, INHIBITORY])
@pytest.mark.parametrize("kind", sorted(ENGINE_CONFIGS))
def test_program_matches_pulsewise_oracle(kind, polarity):
    """Event-located programming ends where the pulse-wise loop does: the
    weights agree within 1e-9, far below the weight change of one pulse, so
    the pulse counts agree.  The cases are programming up from the fresh
    corner, a downward re-program, and programming down to the range floor
    (`None`).  max_seconds leaves room for the longest run up (0.875).  At
    tolerance 1e-5 the band is narrower than one pulse, so most of those
    runs end at a pulse that crosses it.  The VTEAM devices land on the
    floor; the dopant devices approach it too slowly for the budget, so the
    loop ends short of the band and programming raises SimulationFault."""
    cfg = network_config(ENGINE_CONFIGS[kind], n_pre=1)
    sc = replace(cfg.synapse, polarity=polarity)
    sign = sc.sign
    max_seconds = 0.15 if kind == "proposed" else 0.05
    cases = [((), t, tol) for t in (0.25, 0.5, 0.875) for tol in (1e-2, 1e-3, 1e-5)]
    cases += [((0.5,), 0.2, 1e-3), ((0.5,), None, 1e-4)]
    floor = SynapseAssembly.fresh(sc).weight()  # the near end of weight_range
    dt = cfg.clock.dt
    for before, target, tol in cases:
        target = floor if target is None else sign * target
        ref = SynapseAssembly.fresh(sc)
        got = SynapseAssembly.fresh(sc)
        for t in before:
            pulsewise_program(ref, sign * t, 1e-3, dt, max_seconds=max_seconds)
            got.program_to_weight(sign * t, 1e-3, dt=dt, max_seconds=max_seconds)
        expected = pulsewise_program(ref, target, tol, dt, max_seconds=max_seconds)
        if expected is None:
            assert kind == "proposed" and target == floor
            with pytest.raises(SimulationFault, match="stopped at"):
                got.program_to_weight(target, tol, dt=dt, max_seconds=max_seconds)
        else:
            achieved = got.program_to_weight(target, tol, dt=dt, max_seconds=max_seconds)
            assert abs(achieved - expected) < 1e-9, (before, target, tol)
        assert abs(got.weight() - ref.weight()) < 1e-9, (before, target, tol)


def test_program_cost_is_a_fraction_of_the_pulses(monkeypatch):
    """Programming a fresh synapse to 0.5 takes under a tenth of the rate
    evaluations of the pulse-wise loop, which takes exactly one RK4 step of
    four stages per pulse (branch 2 is the mirror of branch 1); a count, not
    a time."""
    pulses = [0]
    pulse = SynapseAssembly.apply_differential

    def counted_pulse(*args):
        pulses[0] += 1
        return pulse(*args)

    calls = counting(monkeypatch)
    monkeypatch.setattr(SynapseAssembly, "apply_differential", counted_pulse)
    pulsewise_program(SynapseAssembly.fresh(CFG_EXC), 0.5, 1e-3, DT)
    oracle, n_pulses, calls[0] = calls[0], pulses[0], 0
    SynapseAssembly.fresh(CFG_EXC).program_to_weight(0.5, tolerance=1e-3, dt=DT)
    assert oracle == 4 * n_pulses
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


def counting(monkeypatch, nan_from=math.inf, bad=math.nan, once=False):
    """Count the stage evaluations of every device law: its `branch_rates`
    and the one-state rates (w, t): its `span_rates` and those its
    `sweep_rate` builds.  Each device class's `law` becomes one whose rates
    count, still one law per distinct set of constants.  Assemblies bind
    the law when built, so only those built after this call count.  From
    the `nan_from`-th evaluation on, every rate is `bad` (NaN by default);
    with `once`, only that evaluation is."""
    calls = [0]

    def counted(rates, bad_value):
        def rate(*args):
            calls[0] += 1
            hit = calls[0] == nan_from if once else calls[0] >= nan_from
            return bad_value if hit else rates(*args)
        return rate

    def counted_builder(build):
        return lambda *args: counted(build(*args), bad)

    for cls in (MemristorParams, VteamParams):
        @functools.lru_cache(maxsize=None)
        def law(params, _law=cls.law.fget):
            built = _law(params)
            return built._replace(
                branch_rates=counted(built.branch_rates, (bad, bad)),
                sweep_rate=counted_builder(built.sweep_rate),
                span_rates=built.span_rates and tuple(
                    counted(rate, bad) for rate in built.span_rates))

        monkeypatch.setattr(cls, "law", property(law))
    return calls


@pytest.mark.parametrize("kind", sorted(ENGINE_CONFIGS))
def test_drive_is_the_integrated_drive(kind):
    """A drive, its repeat and a direct driver call on branch 1 with a law
    built apart from the device's shared one are bitwise equal, for both
    device kinds, with the fixed-step driver and with the segment driver
    the drive takes (the one-state one for the dopant bridge)."""
    cfg = network_config(ENGINE_CONFIGS[kind], n_pre=1)
    sc = cfg.synapse
    dev = sc.device
    lo, hi = dev.state_range
    o1, o2 = dev.ORIENTATIONS
    # a law built here, apart from the device's shared one
    if kind == "vteam":
        window = K.window(dev.window.kind, dev.window.p, dev.window.j)
        law = K.vteam_law(dev.v_on, dev.v_off, dev.k_on, dev.k_off, float(dev.alpha_on),
                          float(dev.alpha_off), dev.w_on, dev.w_off, dev.r_on, dev.r_off, window)
    else:
        law = K.dopant_law(dev.r_on, dev.r_off, dev.d, dev.mu_v, dev.a0, dev.i0, dev.q,
                           dev.window.kind, dev.window.p, dev.window.j)
    assert law.branch_rates is not dev.law.branch_rates
    rk4 = dev.branch_rk4  # the fixed-step driver's step; the segment drivers take none
    base = SynapseAssembly.fresh(sc)
    base.program_to_weight(0.5, tolerance=1e-3, dt=cfg.clock.dt)
    slot = 1.0 / cfg.clock.base_freq
    args = (lo, hi, slot, cfg.clock.dt, o1, o2, sc.r1, 2 * cfg.lif.v_cc)
    direct = (K.branch_step(rk4, *base.w, *args, law.branch_rates),
              segment_call(kind, law, base.w, *args))
    for step, want in zip(DRIVERS, direct):
        first = base.copy()
        step(first, 2 * cfg.lif.v_cc, cfg.clock.dt, slot)
        again = base.copy()
        step(again, 2 * cfg.lif.v_cc, cfg.clock.dt, slot)
        assert first.w == again.w == want, step.__name__
        assert first.w != base.w


def recorded_spans(monkeypatch, counted=lambda rate: rate):
    """Record each `_kernels.segment` call of the frames that follow as its
    (args, result, steps): steps counts its accepted steps (one clamp each).
    The call runs at `counted(rate)` in place of its rate."""
    accepted, spans = [0], []
    clamp, segment = K._clamp, K.segment
    code = segment.__code__

    def counted_clamp(*args):
        accepted[0] += sys._getframe(1).f_code is code  # an accepted step
        return clamp(*args)

    def recorded(w, t, t_end, h, dt, lo, hi, rate, k1=None):
        accepted[0] = 0
        result = segment(w, t, t_end, h, dt, lo, hi, counted(rate), k1)
        spans.append(((w, t, t_end, h, dt, lo, hi, rate), result, accepted[0]))
        return result

    monkeypatch.setattr(K, "_clamp", counted_clamp)
    monkeypatch.setattr(K, "segment", recorded)
    return spans


@pytest.mark.parametrize("kind", ["zha", "biolek", "none"])
def test_one_state_segment_matches_the_two_state_one(kind, monkeypatch):
    """On the manifold w2 = D - w1 a drive is a one-piece span: one
    `_kernels.segment` call steps M1 alone, the pair stays on the manifold
    exactly, and it agrees with `branch_segment`: 4 000 seeded segments
    from either corner or a drawn state, at +-1, +-2 and +-4 V, of 1e-5 s
    to 0.1 s, under every window a bridge accepts.  The span steps in the
    scaled time |amp|*t, so its stage states round apart from the
    two-state driver's: where the two take the same number of stages they
    agree within 2e-15 D (1.2e-15 D measured).  Their error estimates
    round apart too, so a step near the tolerance may be accepted by one and
    rejected by the other; then both results are within the controller's
    tolerance of the solution.  That happens in at most 2 of each window's
    4 000 segments."""
    cfg = SynapseConfig(device=MemristorParams(window=WindowSpec(kind=kind)))
    dev, r1 = cfg.device, cfg.r1
    law, d = dev.law, dev.d
    o1, o2 = dev.ORIENTATIONS
    stages = [0, 0]

    def counted(rate):
        def rate_of(w, t):
            stages[0] += 1
            return rate(w, t)
        return rate_of

    def branch_rates(*args):
        stages[1] += 1
        return law.branch_rates(*args)

    spans = recorded_spans(monkeypatch, counted)
    rng = np.random.default_rng(24)
    moved = apart = 0
    for k in range(4000):
        w1 = (0.0, d)[k % 2] if k % 4 < 2 else float(rng.uniform(0.0, d))
        v = float(rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0]))
        duration = float(10.0 ** rng.uniform(-5.0, -1.0))
        stages[:] = [0, 0]
        spans.clear()
        got = SynapseAssembly(cfg, (w1, d - w1)).drive(v, DT, duration).w
        want = K.branch_segment(w1, d - w1, 0.0, d, duration, DT, o1, o2, r1, v,
                                branch_rates)
        [(args, _, _)] = spans
        assert args == span_args(law, w1, 0.0, d, DT, r1, ((duration, v),))
        assert got[1] == d - got[0], (w1, v, duration)
        same_steps = stages[0] == stages[1]
        apart += not same_steps
        bound = 2e-15 if same_steps else K.SEGMENT_TOL
        assert max(abs(a - b) for a, b in zip(got, want)) <= bound * d, (w1, v, duration)
        moved += got[0] != w1
    assert moved > 2500 and apart <= 2


@pytest.mark.parametrize("kind", ["zha", "biolek", "none"])
def test_span_frames_match_per_piece_drivers(kind, monkeypatch):
    """Seeded synapse frames under every window a bridge accepts: each
    (pre fired, post fired) pair, drawn trace widths, from either corner or
    a drawn state on the manifold.  `frame` takes each run of pieces of one
    drive sign as one span, a single `_kernels.segment` call on M1 (see
    `span_args`), and ends within 2e-12 D of the pieces stepped one by one
    by `branch_segment` and by the fixed-step oracle (measured: 6.6e-15 and
    3.8e-14 D for zha, 1.0e-13 and 9.5e-13 D for biolek, 1.7e-16 and
    1.5e-13 D for none).  The pair stays exactly on the manifold and both
    polarities step the same pair.  A span from a state on a bound accepts
    at most ceil(T/dt) steps, T the duration of its pieces: its step floor
    is S*dt/T in scaled time."""
    cfg = SynapseConfig(device=MemristorParams(window=WindowSpec(kind=kind)))
    dev, r1 = cfg.device, cfg.r1
    d, law = dev.d, dev.law
    o1, o2 = dev.ORIENTATIONS
    slot, v_cc = 0.01, 2.0
    spans = recorded_spans(monkeypatch)
    rng = np.random.default_rng(26)
    moved = 0
    for k in range(160):
        pre, post = bool(k & 1), bool(k & 2)
        w1 = (0.0, d)[k // 4 % 2] if k % 16 < 8 else float(rng.uniform(0.0, d))
        width_a = slot if pre else float(rng.uniform(0.0, slot))
        width_b = slot if post else float(rng.uniform(0.0, slot))
        slot1, slot2 = differential_frame(pre, post, width_a, width_b, v_cc, slot)
        pieces = [(slot, v_cc)] * pre + slot1 + slot2
        spans.clear()
        got = SynapseAssembly(cfg, (w1, d - w1)).frame(pieces, DT).w
        assert got[1] == d - got[0], k
        moved += got[0] != w1
        # one span per drive sign, in the order the signs first come
        signs = list(dict.fromkeys(v > 0.0 for _, v in pieces))
        assert len(spans) == len(signs), k
        w = w1
        for up, (args, result, steps) in zip(signs, spans):
            run = [(t, v) for t, v in pieces if (v > 0.0) == up]
            assert args == span_args(law, w, 0.0, d, DT, r1, run), k
            if w in (0.0, d):
                assert steps <= math.ceil(sum(t for t, _ in run) / DT), (k, steps)
            w = result[0]
        assert got[0] == w, k
        twin = SynapseAssembly(replace(cfg, polarity=INHIBITORY), (w1, d - w1))
        assert twin.frame(pieces, DT).w == got and twin.weight() == -SynapseAssembly(
            cfg, got).weight()
        per_piece, oracle = (w1, d - w1), SynapseAssembly(cfg, (w1, d - w1))
        for duration, v in pieces:
            per_piece = K.branch_segment(*per_piece, 0.0, d, duration, DT, o1, o2, r1, v,
                                         law.branch_rates)
            oracle.apply_differential(v, DT, duration)
        for want in (per_piece, oracle.w):
            assert max(abs(a - b) for a, b in zip(got, want)) <= 2e-12 * d, (k, want)
    assert moved > 120


def test_off_manifold_pair_takes_the_two_state_driver(monkeypatch):
    """A dopant pair off the manifold w2 = D - w1, by a whole share of the
    range or by one ulp, is integrated as a two-state branch: `drive` gives
    `branch_segment`'s result bit for bit and never calls the one-state
    driver.  The fixed-step oracle is two-state for every pair."""
    one_state = [0]
    segment = K.segment

    def counted(*args):
        one_state[0] += 1
        return segment(*args)

    monkeypatch.setattr(K, "segment", counted)
    dev = CFG_EXC.device
    d, law = dev.d, dev.law
    o1, o2 = dev.ORIENTATIONS
    pairs = [(0.3 * d, 0.3 * d), (0.0, 0.0), (d, d), (0.6 * d, math.nextafter(0.4 * d, d))]
    assert pairs[-1][1] != d - pairs[-1][0]
    for w in pairs:
        for v, duration in ((4.0, 0.01), (-2.0, 1e-3), (1.0, 0.05)):
            got = SynapseAssembly(CFG_EXC, w).drive(v, DT, duration).w
            want = K.branch_segment(*w, 0.0, d, duration, DT, o1, o2, CFG_EXC.r1, v,
                                    law.branch_rates)
            assert [x.hex() for x in got] == [x.hex() for x in want], (w, v)
            assert got != w
    assert one_state[0] == 0
    SynapseAssembly.fresh(CFG_EXC).drive(4.0, DT, 0.01)
    assert one_state[0] == 1


@pytest.mark.parametrize("kind", ["zha", "biolek", "none"])
def test_dopant_two_state_driver_swaps_with_its_devices(kind):
    """Off the manifold the dopant pair takes `branch_segment`, and there
    the inhibitory twin still rests on the swap: the driver on (w2, w1, o2,
    o1) returns the swap of its result on (w1, w2, o1, o2) bit for bit.
    Seeded pairs off w2 = D - w1, both on one bound or drawn, at +-1, +-2
    and +-4 V, of 1e-5 s to 1e-2 s, under every window a bridge accepts."""
    dev = MemristorParams(window=WindowSpec(kind=kind))
    law, d = dev.law, dev.d
    o1, o2 = dev.ORIENTATIONS
    rng = np.random.default_rng(27)
    moved = 0
    for k in range(300):
        w = (0.0, 0.0) if k % 8 == 0 else (d, d) if k % 8 == 1 else tuple(
            float(x) for x in rng.uniform(0.0, d, 2))
        assert w[1] != d - w[0]
        v = float(rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0]))
        duration = float(10.0 ** rng.uniform(-5.0, -2.0))
        got = K.branch_segment(*w, 0.0, d, duration, DT, o1, o2, CFG_EXC.r1, v,
                               law.branch_rates)
        swapped = K.branch_segment(w[1], w[0], 0.0, d, duration, DT, o2, o1, CFG_EXC.r1, v,
                                   law.branch_rates)
        assert [x.hex() for x in swapped] == [x.hex() for x in got[::-1]], (w, v, duration)
        moved += got != w
    assert moved > 250


def test_span_laws_list_orientation_plus_one_first():
    """`frame` steps M1 of a pair on the manifold at span rates signed for a
    device of orientation +1, and writes M2 as its mirror: so every device
    class a synapse accepts whose law has span rates lists orientation +1
    first."""
    classes = typing.get_args(typing.get_type_hints(SynapseConfig)["device"])
    spanned = [cls for cls in classes if cls().law.span_rates is not None]
    assert MemristorParams in spanned
    assert all(cls.ORIENTATIONS == (1.0, -1.0) for cls in spanned)


@pytest.mark.parametrize("device, fault", [({"i0": 1e-300}, "device rate overflow"),
                                           ({"mu_v": 1e300}, "non-finite device state")])
def test_drive_rate_overflow_faults(device, fault):
    """A Joule power a0*|i/i0|^(2q-1) that overflows, or a rate prefactor
    that does, raises SimulationFault from a pair on the manifold (one-state
    driver) and off it (two-state driver) alike."""
    cfg = replace(CFG_EXC, device=replace(CFG_EXC.device, **device))
    d = cfg.device.d
    for w in (cfg.device.corner_states, (0.3 * d, 0.3 * d)):
        with pytest.raises(SimulationFault, match=fault):
            SynapseAssembly(cfg, w).drive(4.0, DT, 0.01)
