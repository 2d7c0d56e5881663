"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are fixed here, not tuned elsewhere."""
import math
import time

import numpy as np
import pytest

from memsnn.device import (MemristorParams, MemristorState, SineDrive,
                           dwdt, hysteresis_sweep)
from memsnn.harness import calibration_values, load_config, network_config, vteam_variant
from memsnn.network import (NetworkConfig, StimulusParams, pattern_learning,
                            run_simulation, stdp_window, StimulusProgram)
from memsnn.synapse import SynapseAssembly, SynapseConfig

from test_device import lobe_area
from test_network import numpy_stability_epoch
from test_synapse import nodal_weight, assembly_at

P = MemristorParams()
CFG = load_config(None)
SETTLE = CFG["stdp.settle_frames"]


@pytest.fixture(scope="module")
def window_rows():
    t0 = time.perf_counter()
    offsets = list(range(-6, 7))
    exc = stdp_window(network_config(CFG, n_pre=1), offsets, SETTLE)
    inh_cfg = network_config(CFG, n_pre=1)
    from dataclasses import replace
    inh = stdp_window(replace(inh_cfg, synapse=replace(inh_cfg.synapse,
                                                       polarity="inhibitory")), offsets,
                      SETTLE)
    return exc, inh, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pattern_runs():
    cfg = network_config(CFG, n_pre=9)
    stim = StimulusParams().program(n_epochs=300)
    t0 = time.perf_counter()
    zero = pattern_learning(cfg, stim, init="zero")
    t_zero = time.perf_counter() - t0
    t0 = time.perf_counter()
    mid = pattern_learning(cfg, stim, init="midpoint")
    t_mid = time.perf_counter() - t0
    return zero, mid, t_zero, t_mid


def test_criterion_1_power_law_switching():
    t0 = time.perf_counter()
    cur = np.geomspace(1e-4, 3e-3, 61)
    rates = [abs(dwdt(P, MemristorState(w=P.d / 2), i)) for i in cur]
    slope = np.polyfit(np.log(cur), np.log(rates), 1)[0]
    elapsed = time.perf_counter() - t0
    assert slope == pytest.approx(5.0, abs=0.05)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: log-log switching slope = {slope:.6f} "
          f"(target 5.0 +- 0.05), {elapsed:.2f} s")


def test_criterion_2_hysteresis():
    t0 = time.perf_counter()
    soft = hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(1.0, 10.0), 0.2, 1e-5, 10)
    v, i = np.asarray(soft.v), np.asarray(soft.i)
    idx = np.where(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    worst = max(abs(i[k] + v[k] / (v[k] - v[k + 1]) * (i[k + 1] - i[k])) for k in idx)
    area = lobe_area(soft)

    hard = hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(2.0, 1.0), 2.0, 1e-5, 10)
    n_per = (len(hard.t) - 1) // 2
    coverage = []
    for c in range(2):
        r = np.asarray(hard.r)[c * n_per:(c + 1) * n_per + 1]
        coverage.append((r.max() - r.min()) / (P.r_off - P.r_on))
    elapsed = time.perf_counter() - t0

    assert worst < 1e-6
    assert area > 0.0
    assert min(coverage) >= 0.95
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: pinched |i(v=0)| <= {worst:.2e} A, loop area "
          f"{area:.3e}, hard-switch coverage {min(coverage):.4f}, {elapsed:.2f} s")


def test_criterion_3_weak_strong_calibration():
    t0 = time.perf_counter()
    d_strong, d_weak, ratio = calibration_values(CFG)
    elapsed = time.perf_counter() - t0
    assert d_strong == pytest.approx(0.0744, rel=0.15)
    assert d_weak == pytest.approx(0.0024, rel=0.25)
    assert ratio == pytest.approx(0.032, abs=0.01)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS: dpsi_strong = {d_strong:.5f} (0.0744 +-15%), "
          f"dpsi_weak = {d_weak:.5f} (0.0024 +-25%), ratio = {100 * ratio:.3f}% "
          f"(3.2 +- 1 pp), {elapsed:.2f} s")


def test_criterion_4_soft_bound_potentiation_depression():
    t0 = time.perf_counter()
    syn = SynapseAssembly.fresh(SynapseConfig())
    dt = CFG["clock.dt"]
    phase = 0.15
    pulse = 5e-3
    trajs = {k: [] for k in range(4)}
    psis = []
    for v in (4.0, -4.0, 4.0):
        monotone_ref = []
        for _ in range(int(phase / pulse)):
            syn.apply_differential(v, dt, duration=pulse)
            m = syn.resistances()
            for k in range(4):
                trajs[k].append(m[k])
            psis.append(syn.weight())
            monotone_ref.append(syn.weight())
        diffs = np.diff(monotone_ref)
        assert np.all(diffs >= -1e-12) if v > 0 else np.all(diffs <= 1e-12)

    # per-pulse gain shrinks within the top 20% of the range
    syn2 = SynapseAssembly.fresh(SynapseConfig())
    syn2.program_to_weight(0.875, tolerance=1e-3, dt=dt)
    deltas = []
    for _ in range(12):
        before = syn2.weight()
        syn2.apply_differential(4.0, dt, duration=pulse)
        deltas.append(syn2.weight() - before)
    elapsed = time.perf_counter() - t0
    assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
    # all four memristances move monotonically per phase, in opposite pairs
    m1 = np.array(trajs[0][:int(phase / pulse)])
    m2 = np.array(trajs[1][:int(phase / pulse)])
    assert np.all(np.diff(m1) <= 1e-9)   # M1 falls while potentiating
    assert np.all(np.diff(m2) >= -1e-9)  # M2 rises
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4 PASS: monotone per phase, per-pulse dpsi shrinks near "
          f"bound ({deltas[0]:.5f} -> {deltas[-1]:.5f}), {elapsed:.2f} s")


def test_criterion_5_msq_stdp_window(window_rows):
    t0 = time.perf_counter()
    exc, inh, sweep_seconds = window_rows
    w = {r[0]: r[2] for r in exc}
    wi = {r[0]: r[2] for r in inh}

    # quantization: loading the trigger in any slot of the preceding frame
    # gives bit-identical weight changes
    cfg1 = network_config(CFG, n_pre=1)
    base = stdp_window(cfg1, [1, -1], SETTLE, phase_slot=None)
    for phase in (0, 1, 2):
        rows = stdp_window(cfg1, [1, -1], SETTLE, phase_slot=phase)
        assert all(a[2] == b[2] for a, b in zip(rows, base))

    # Hebbian signs where the timing component dominates the weak-signal floor
    for k in (1, 2, 3, 4):
        assert w[k] > 0.0
        assert w[-k] < 0.0
    assert abs(w[6]) <= 0.1 * abs(w[1])
    assert abs(w[-6]) <= 0.1 * abs(w[-1])

    # anti-Hebbian window is the exact point-wise negation
    for off in w:
        assert wi[off] == pytest.approx(-w[off], rel=1e-9, abs=1e-15)

    # geometric decay: consecutive-difference quotient cancels the constant
    # weak-signal offset, leaving the per-frame decay factor
    target = math.exp(3.0 / CFG["clock.base_freq"] / CFG["trace.tau"])
    rho_pos = (w[1] - w[2]) / (w[2] - w[3])
    rho_neg = (w[-1] - w[-2]) / (w[-2] - w[-3])
    assert rho_pos == pytest.approx(target, rel=0.05)
    assert rho_neg == pytest.approx(target, rel=0.05)

    # zero lag: potentiation and depression cancel up to the weak residue
    assert abs(w[0]) <= 0.1 * abs(w[1])
    assert abs(w[0]) <= 0.1 * abs(w[-1])
    elapsed = time.perf_counter() - t0 + sweep_seconds
    print(f"\nACCEPTANCE 5 PASS: quantized, Hebbian, mirror exact, decay ratio "
          f"+{rho_pos:.3f}/-{rho_neg:.3f} vs exp(F/tau)={target:.3f} (+-5%), "
          f"|dpsi(0)|={abs(w[0]):.2e}, {elapsed:.1f} s (< 30 s)")
    assert elapsed < 30.0


def test_criterion_6_pattern_learning_zero_init(pattern_runs):
    zero, _, t_zero, _ = pattern_runs
    first = zero.first_fire_epoch + 1  # 1-based epoch count
    pat = list(zero.pattern_pres)
    noi = list(zero.noise_pres)
    final, per_epoch = np.asarray(zero.final_weights), np.asarray(zero.weights_per_epoch)
    gap = final[pat].min() - final[noi].max()
    last50 = np.abs(np.diff(per_epoch[-51:], axis=0)).max()
    # separation stays put (non-decreasing) once converged
    sep = (per_epoch[-50:, pat].min(axis=1)
           - per_epoch[-50:, noi].max(axis=1))
    assert np.all(np.diff(sep) >= -1e-4)
    assert first > 5
    assert first <= 50
    assert gap > 0.1
    assert last50 < 1e-3
    assert t_zero < 120.0
    print(f"\nACCEPTANCE 6 PASS: first fire epoch {first} (5 < e <= 50), "
          f"separation {gap:.3f} (> 0.1), final-50 max |dpsi| {last50:.2e} "
          f"(< 1e-3), {t_zero:.0f} s (< 120 s)")


def test_criterion_7_pattern_learning_midpoint_init(pattern_runs):
    zero, mid, _, t_mid = pattern_runs
    assert zero.stability_epoch is not None and mid.stability_epoch is not None
    assert mid.stability_epoch < zero.stability_epoch
    for run in (zero, mid):
        assert run.stability_epoch == numpy_stability_epoch(np.asarray(run.weights_per_epoch))
    map_diff = np.abs(np.asarray(zero.final_weights) - np.asarray(mid.final_weights)).max()
    assert map_diff <= 0.05
    assert t_mid < 120.0
    print(f"\nACCEPTANCE 7 PASS: stability epoch {mid.stability_epoch} < "
          f"{zero.stability_epoch}, final map match {map_diff:.4f} (<= 0.05), "
          f"{t_mid:.0f} s (< 120 s)")


def test_criterion_8_vteam_variant_window():
    t0 = time.perf_counter()
    vcfg = vteam_variant(CFG)
    offsets = list(range(-6, 7))
    exc = stdp_window(network_config(vcfg, n_pre=1), offsets, SETTLE)
    from dataclasses import replace
    ncfg = network_config(vcfg, n_pre=1)
    inh = stdp_window(replace(ncfg, synapse=replace(ncfg.synapse,
                                                    polarity="inhibitory")), offsets,
                      SETTLE)
    w = {r[0]: r[2] for r in exc}
    wi = {r[0]: r[2] for r in inh}

    # threshold device: no weak drift at all, so signs are clean everywhere
    for k in range(1, 7):
        assert w[k] > 0.0
        assert w[-k] < 0.0
    assert abs(w[0]) < 1e-6 * abs(w[1])

    # qualitatively exponential: magnitudes decay monotonically and the decay
    # per frame tracks the trace constant (tens of ms overall)
    target = math.exp(3.0 / vcfg["clock.base_freq"] / vcfg["trace.tau"])
    for k in range(1, 6):
        assert abs(w[k + 1]) < abs(w[k])
        assert abs(w[-(k + 1)]) < abs(w[-k])
        assert w[k] / w[k + 1] == pytest.approx(target, rel=0.15)
    frame_ms = 3000.0 / vcfg["clock.base_freq"]
    span_ms = 6 * frame_ms
    assert 0.02 < abs(w[6] / w[1]) < 0.8  # still decaying across ~tens of ms

    # anti-Hebbian mirror holds exactly
    for off in w:
        assert wi[off] == pytest.approx(-w[off], rel=1e-9, abs=1e-15)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 8 PASS: threshold-device window exponential over "
          f"~{span_ms:.0f} ms, per-frame ratio ~{w[1] / w[2]:.3f} "
          f"(exp(F/tau)={target:.3f}), mirror exact, {elapsed:.1f} s")


def test_criterion_9_engine_properties():
    t0 = time.perf_counter()
    # bit-identical reruns
    cfg = network_config(CFG, n_pre=2)
    stim = StimulusProgram(schedule=((0, 0), (2, 1)), epoch_frames=5, n_epochs=5)
    a = run_simulation(cfg, stim)
    b = run_simulation(cfg, stim)
    assert np.array_equal(a.weights_per_epoch, b.weights_per_epoch)
    assert a.post_log == b.post_log

    # dt halving moves every logged weight by < 0.1% absolute
    from dataclasses import replace
    c = run_simulation(replace(cfg, clock=replace(cfg.clock, dt=cfg.clock.dt / 2)), stim)
    dt_shift = np.max(np.abs(np.asarray(a.weights_per_epoch)
                             - np.asarray(c.weights_per_epoch)))
    assert dt_shift < 1e-3

    # bridge weight matches the nodal-analysis oracle to 1e-12
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        m1, m2 = rng.uniform(100.0, 16000.0, 2)
        for pol in ("excitatory", "inhibitory"):
            sc = SynapseConfig(polarity=pol)
            got = assembly_at(sc, m1, m2).weight()
            ref = nodal_weight(sc, m1, m2, m2, m1)  # the mirrored bridge
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))
    assert worst < 1e-12
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 9 PASS: bit-identical rerun, dt-halving shift "
          f"{dt_shift:.2e} (< 1e-3), nodal oracle worst rel err {worst:.2e} "
          f"(< 1e-12), {elapsed:.1f} s")
