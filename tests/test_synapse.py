import math
from dataclasses import replace

import numpy as np
import pytest

from memsnn.device import MemristorParams
from memsnn.errors import ConfigError, SimulationFault
from memsnn.harness import load_config, network_config, vteam_variant
from memsnn.plasticity import pwm_encode
from memsnn.synapse import EXCITATORY, INHIBITORY, SynapseAssembly, SynapseConfig

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
    slot = 1.0 / cfg.base_freq
    tp = cfg.trace
    width = pwm_encode(tp, tp.v_p * math.exp(-slot / tp.tau), slot, False)
    v_cc = cfg.v_cc
    segments = [(v_cc, slot, cfg.dt), (-v_cc, slot, cfg.dt),
                (2 * v_cc, width, cfg.dt), (-2 * v_cc, width, cfg.dt),
                (-sign * 4.0, 1.0, network_config(STOCK).dt)]
    base = SynapseAssembly.fresh(sc)
    base.program_to_weight(sign * 0.5, tolerance=1e-3, dt=cfg.dt)
    psi0 = base.weight()
    for v, duration, dt in segments:
        ref = base.copy().apply_differential(v, dt, duration)
        got = base.copy().drive(v, dt, duration)
        assert ref.weight() != psi0  # every segment moves the state
        assert abs(got.weight() - ref.weight()) < 1e-9, (v, duration)


def test_drive_nonfinite_state_faults():
    syn = SynapseAssembly.fresh(CFG_EXC)
    syn.w[1] = float("nan")
    with pytest.raises(SimulationFault, match="non-finite device state"):
        syn.drive(4.0, DT, duration=0.01)
