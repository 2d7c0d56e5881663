import math
import signal
from dataclasses import replace

import numpy as np
import pytest

from memsnn import _kernels as K
from memsnn.device import (MemristorParams, MemristorState, SineDrive, VteamParams,
                           WindowSpec, dwdt, hysteresis_sweep)
from memsnn.errors import ConfigError, SimulationFault
from memsnn.harness import main
from memsnn.synapse import SynapseAssembly, SynapseConfig
from test_network import deadline
from test_synapse import CFG_VTEAM, DRIVERS, counting

P = MemristorParams()
D = P.d


def joule(params, i):
    """The power-law drive g(i) of the rate law: its rate with a unit
    prefactor (mu_v = 1, R_ON = D) and the window open (kind none, j = 1)."""
    law = K.dopant_law(params.d, params.r_off, params.d, 1.0, params.a0, params.i0, params.q,
                       "none", 1, 1.0)
    return law.rate(0.5 * params.d, i)


def window(spec, x, i):
    """Window factor at normalized state x = w/D under current i."""
    return K.window(spec.kind, spec.p, spec.j)(x, i)


def test_memristance_boundaries():
    assert P.law.resistance(0.0) == 16000.0
    assert P.law.resistance(D) == 100.0
    assert P.law.resistance(D / 2) == pytest.approx(8050.0, rel=1e-12)


def test_equal_params_share_one_law():
    """Equal but distinct device params share one law object; another
    device constant, window kind or window exponent builds another."""
    equal = MemristorParams()
    assert equal == P and equal is not P and equal.law is P.law
    others = (replace(P, mu_v=1.01e-14), replace(P, window=replace(P.window, kind="biolek")),
              replace(P, window=replace(P.window, p=5)))
    laws = [P.law] + [d.law for d in others]
    assert all(a is not b for i, a in enumerate(laws) for b in laws[i + 1:])


def test_joule_values():
    assert joule(P, 0.0) == 0.0
    assert joule(P, 1e-3) == pytest.approx(40.0, rel=1e-12)
    assert joule(P, -2e-3) == pytest.approx(-1280.0, rel=1e-12)


def test_joule_exactly_odd():
    rng = np.random.default_rng(0)
    for i in rng.uniform(-5e-3, 5e-3, 200):
        assert joule(P, -i) == -joule(P, i)


@pytest.mark.parametrize("kind", WindowSpec.KINDS)
def test_window_range(kind):
    spec = WindowSpec(kind=kind, p=4, j=0.8)
    for x in np.linspace(0.0, 1.0, 41):
        for i in (1e-3, -1e-3):
            f = window(spec, x, i)
            assert -1e-15 <= f <= spec.j + 1e-15


def test_window_boundary_stopping():
    for kind in ("zha", "biolek"):
        spec = WindowSpec(kind=kind, p=10, j=1.0)
        # motion into the approached boundary is blocked exactly
        assert window(spec, 1.0, 1e-3) == 0.0
        assert window(spec, 0.0, -1e-3) == 0.0
        # the opposite boundary stays unlocked
        assert window(spec, 0.0, 1e-3) > 0.0
        assert window(spec, 1.0, -1e-3) > 0.0


def test_window_joglekar_midpoint_maximal():
    spec = WindowSpec(kind="joglekar", p=10, j=1.0)
    assert window(spec, 0.5, 1e-3) == 1.0


def test_window_unknown_kind_rejected_at_build():
    with pytest.raises(ConfigError):
        WindowSpec(kind="parabolic").validate()


def test_dwdt_zero_current():
    assert dwdt(P, MemristorState(w=D / 2), 0.0) == 0.0


def test_dwdt_matches_composition():
    # rate = mu_v * (R_ON / D) * g(i) * f(w) with the reference window
    params = MemristorParams(window=WindowSpec(kind="zha", p=10, j=1.0))
    i = 1e-3
    expected = params.mu_v * (params.r_on / params.d) * joule(params, i) \
        * window(params.window, 0.5, i)
    assert dwdt(params, MemristorState(w=D / 2), i) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(4e-3 * (1.0 - (0.25 * 0.25 + 0.75) ** 10), rel=1e-9)


def test_dwdt_orientation_flips_sign():
    up = dwdt(P, MemristorState(w=D / 2, orientation=1), 1e-3)
    dn = dwdt(P, MemristorState(w=D / 2, orientation=-1), 1e-3)
    assert up > 0.0 > dn


def test_weak_signal_rate_nonzero():
    # no threshold: any nonzero current moves the state when the window is open
    assert dwdt(P, MemristorState(w=D / 2), 1e-6) > 0.0
    assert dwdt(P, MemristorState(w=D / 2), -1e-9) < 0.0


@pytest.mark.parametrize("q,expected_slope", [(3, 5.0), (2, 3.0)])
def test_power_law_slope(q, expected_slope):
    params = MemristorParams(q=q)
    cur = np.geomspace(1e-4, 3e-3, 40)
    rates = [abs(dwdt(params, MemristorState(w=D / 2), i)) for i in cur]
    slope = np.polyfit(np.log(cur), np.log(rates), 1)[0]
    assert slope == pytest.approx(expected_slope, rel=0.01)


VT = VteamParams()


def mid_bridge(device, r_series=16000.0):
    """An excitatory bridge of the given device with every state at mid-range."""
    lo, hi = device.state_range
    config = SynapseConfig(device=device, r1=r_series, r2=r_series)
    return SynapseAssembly(config, (0.5 * (lo + hi),) * 2)


def test_boundary_confinement_random_drive():
    """Random +-4 V segments, fixed-step and error-controlled, keep every
    device of both kinds inside its state range.  Without a window the
    devices run into their bounds, so the clamp is exercised."""
    unwindowed = MemristorParams(window=WindowSpec(kind="none", p=1))
    rng = np.random.default_rng(7)
    for device, r_series in ((unwindowed, 16000.0), (VT, VT.r_off)):
        lo, hi = device.state_range
        for step in DRIVERS:
            syn = mid_bridge(device, r_series)
            bound_hits = 0
            for v in rng.uniform(-4.0, 4.0, 100):
                step(syn, float(v), 1e-3, 5e-2)
                assert all(lo <= w <= hi for w in syn.w)
                bound_hits += any(w in (lo, hi) for w in syn.w)
            assert bound_hits > 0


def test_integrator_convergence_fourth_order():
    # halving dt shrinks the error ~16x until float noise takes over
    from memsnn.synapse import SynapseAssembly, SynapseConfig
    base = SynapseAssembly.fresh(SynapseConfig())
    base.program_to_weight(0.5, 1e-3, dt=1e-5)
    ref = base.copy()
    ref.apply_differential(4.0, 1e-7, duration=0.01)
    errs = []
    for dt in (2e-3, 1e-3):
        s = base.copy()
        s.apply_differential(4.0, dt, duration=0.01)
        errs.append(abs(s.weight() - ref.weight()))
    assert errs[0] / errs[1] > 8.0


def test_sweep_zero_amplitude():
    series = hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(0.0, 10.0), 0.1, 1e-4, 10)
    assert np.all(np.asarray(series.w) == 5e-9)
    assert np.all(np.asarray(series.i) == 0.0)


def _crossing_currents(series):
    v, i = np.asarray(series.v), np.asarray(series.i)
    idx = np.where(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    out = []
    for k in idx:
        a = v[k] / (v[k] - v[k + 1])
        out.append(abs(i[k] + a * (i[k + 1] - i[k])))
    return out


def lobe_area(series):
    """Sum of |enclosed area| per lobe, split at the drive zero crossings."""
    v, i = np.asarray(series.v), np.asarray(series.i)
    cross = np.where(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    bounds = [0, *cross, len(v) - 1]
    total = 0.0
    for a, b in zip(bounds, bounds[1:]):
        sv, si = v[a:b + 1], i[a:b + 1]
        total += 0.5 * abs(np.sum(sv[:-1] * si[1:] - sv[1:] * si[:-1]))
    return total


def test_sweep_pinched_loop():
    series = hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(1.0, 10.0), 0.2, 1e-5, 10)
    crossings = _crossing_currents(series)
    assert crossings and max(crossings) < 1e-6
    assert lobe_area(series) > 0.0


def test_sweep_dt_convergence():
    a = hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(1.0, 10.0), 0.1, 1e-5, 100)
    b = hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(1.0, 10.0), 0.1, 5e-6, 200)
    assert np.max(np.abs(np.asarray(a.w) - np.asarray(b.w))) < 1e-3 * D


def fixed_step_sweep(w0, orient, amp, freq, duration, dt, sample_every, law, lo, hi,
                     t_out, v_out, i_out, w_out, r_out):
    """The oracle of `_kernels.sine_sweep`, with its arguments: fixed RK4
    steps of dt with the law's built sweep rate evaluated at the stage
    times, the state clamped after each step and sampled every
    `sample_every` steps."""
    resistance = law.resistance
    two_pi_f = 2.0 * math.pi * freq
    rate = law.sweep_rate(orient * amp, two_pi_f)
    n = int(round(duration / dt)) // sample_every * sample_every
    w = w0
    idx = 0
    for k in range(n + 1):
        t = k * dt
        if k % sample_every == 0:
            r = resistance(w)
            v = amp * math.sin(two_pi_f * t)
            t_out[idx], v_out[idx], i_out[idx], w_out[idx], r_out[idx] = t, v, v / r, w, r
            idx += 1
        if k == n:
            break
        k1 = rate(w, t)
        k2 = rate(w + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rate(w + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rate(w + dt * k3, t + dt)
        w = min(max(w + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0, lo), hi)
    return idx


def oracle_sweep(monkeypatch, params, *args):
    """hysteresis_sweep(params, *args) through the fixed-step oracle."""
    with monkeypatch.context() as m:
        m.setattr(K, "dopant_sine_sweep", fixed_step_sweep)
        m.setattr(K, "vteam_sine_sweep", fixed_step_sweep)
        return hysteresis_sweep(params, *args)


# One drive cycle per device: every dopant window kind at 0.8 V, which moves
# the state by 2-11 % of its range without reaching a bound, and the VTEAM
# device at 3 V (22 %).  Their dt are coarse enough for RK4 to err by more
# than the sweep's tolerance.
SWEEP_CASES = [(MemristorParams(window=WindowSpec(kind=kind)), 5e-9, SineDrive(0.8, 10.0),
                0.1, 2.5e-4, 4) for kind in K.WINDOW_KINDS]
SWEEP_CASES.append((VT, 1.5e-9, SineDrive(3.0, 1000.0), 1e-3, 4e-6, 10))


def test_sweep_matches_fixed_step_oracle(monkeypatch):
    """The error-controlled sweep lies closer to the RK4 oracle at dt/8 than
    the oracle at dt does, and its largest error over the cases falls with
    SEGMENT_TOL."""
    worst = dict.fromkeys((1e-8, 1e-10, 1e-12), 0.0)
    for params, w0, drive, duration, dt, every in SWEEP_CASES:
        lo, hi = params.state_range
        state = MemristorState(w=w0)
        fine = oracle_sweep(monkeypatch, params, state, drive, duration, dt / 8, 8 * every)
        coarse = oracle_sweep(monkeypatch, params, state, drive, duration, dt, every)
        assert np.array_equal(coarse.t, fine.t)
        for tol in worst:
            monkeypatch.setattr(K, "SEGMENT_TOL", tol)
            series = hysteresis_sweep(params, state, drive, duration, dt, every)
            assert np.array_equal(series.t, fine.t)
            err = np.max(np.abs(np.asarray(series.w) - np.asarray(fine.w))) / (hi - lo)
            worst[tol] = max(worst[tol], err)
        # at the default tolerance, the last one set
        assert err < np.max(np.abs(np.asarray(coarse.w) - np.asarray(fine.w))) / (hi - lo), params
    assert worst[1e-8] > worst[1e-10] > worst[1e-12], worst


# (drive, duration) of the default pinched and hard sweeps, from w0 = 5e-9
DEFAULT_SWEEPS = {"pinched": (SineDrive(1.0, 10.0), 0.2), "hard": (SineDrive(2.0, 1.0), 2.0)}


def sweep_rate_evaluations(monkeypatch, sweep):
    calls = counting(monkeypatch)
    drive, duration = DEFAULT_SWEEPS[sweep]
    series = hysteresis_sweep(P, MemristorState(w=5e-9), drive, duration, 1e-5, 10)
    assert len(series.w) == round(duration / 1e-4) + 1
    return calls[0]


def test_default_pinched_sweep_rate_evaluations(monkeypatch):
    """The default pinched sweep evaluates the rate law at most 11 500
    times, 1.2x the 9 637 it takes: fixed RK4 steps of dt took 80 000, and
    DP5(4) steps ending on every sample time 13 747."""
    assert sweep_rate_evaluations(monkeypatch, "pinched") <= 11_500


def test_default_hard_sweep_rate_evaluations(monkeypatch):
    """The default hard sweep evaluates the rate law at most 20 400 times,
    1.2x the 17 065 it takes: fixed RK4 steps of dt took 800 000, and DP5(4)
    steps ending on every sample time 122 203."""
    assert sweep_rate_evaluations(monkeypatch, "hard") <= 20_400


@pytest.mark.parametrize("sweep", sorted(DEFAULT_SWEEPS))
def test_default_sweep_rows_match_a_tighter_sweep(monkeypatch, sweep):
    """Every row of each default sweep lies within 1e-10 of D of the same
    sweep at dt/8 (sample_every x 8, so the same sample times) and a 100x
    tighter SEGMENT_TOL (measured: 7.1e-12 and 5.0e-11 of D).  Sweeps whose
    steps ended on every sample time, the shortest accepted without an
    error estimate, were off by 1.38e-9 (pinched row 311) and 5.45e-8 of D
    (hard row 825)."""
    drive, duration = DEFAULT_SWEEPS[sweep]
    series = hysteresis_sweep(P, MemristorState(w=5e-9), drive, duration, 1e-5, 10)
    monkeypatch.setattr(K, "SEGMENT_TOL", K.SEGMENT_TOL / 100)
    tight = hysteresis_sweep(P, MemristorState(w=5e-9), drive, duration, 1e-5 / 8, 80)
    assert np.array_equal(series.t, tight.t)
    assert np.max(np.abs(np.asarray(series.w) - np.asarray(tight.w))) < 1e-10 * D


@pytest.mark.parametrize("sweep", sorted(DEFAULT_SWEEPS))
def test_sample_grid_does_not_steer_the_sweep(sweep):
    """The sample grid only reads the integration: every 10th row of a
    sample_every = 1 sweep equals the sample_every = 10 rows bit for bit, for
    the pinched sweep and the first 0.2 s of the hard one (its switching
    edge, rows 0-2000)."""
    drive, _ = DEFAULT_SWEEPS[sweep]
    every = [hysteresis_sweep(P, MemristorState(w=5e-9), drive, 0.2, 1e-5, n) for n in (1, 10)]
    for column in ("t", "v", "i", "w", "r"):
        fine, coarse = (getattr(series, column) for series in every)
        assert fine[::10].tobytes() == coarse.tobytes(), column


def never_passing(monkeypatch, calls):
    """Make the dopant law's sweep rate one whose error estimate never
    passes: +-1e-9 m/s, alternating at each evaluation, which keeps the
    state inside its range, so only steps at the guard are accepted."""
    def sweep_rate(drive, omega):
        def rate(w, t):
            calls[0] += 1
            return 1e-9 if calls[0] % 2 else -1e-9
        return rate

    law = P.law._replace(sweep_rate=sweep_rate)
    monkeypatch.setattr(MemristorParams, "law", property(lambda self: law))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("duration, budget", [(0.2, K.SWEEP_STEPS), (1.0, 100_000)])
def test_sweep_step_budget_faults(monkeypatch, duration, budget):
    """A sweep whose steps shrink to the dt/1024 guard, where a step is
    accepted without an estimate, would take 1024 steps per dt.  It faults
    once it takes more than max(round(duration/dt), SWEEP_STEPS) accepted
    steps, at about 12 rate evaluations each (the guard step and one
    rejected longer probe)."""
    calls = [0]
    never_passing(monkeypatch, calls)
    with deadline(10.0), pytest.raises(
            SimulationFault, match=f"sine sweep took more than {budget} accepted steps"):
        hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(1.0, 10.0), duration, 1e-5, 10)
    assert 6 * budget < calls[0] < 13 * budget


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_sweep_step_budget_exits_3(monkeypatch, tmp_path, capsys):
    """The CLI names the sweep that ran out of steps and exits 3."""
    never_passing(monkeypatch, [0])
    with deadline(10.0):
        assert main(["hysteresis", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"simulation fault: the 1 V, 10 Hz sine sweep took more than {K.SWEEP_STEPS} "
        "accepted steps")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("first_nan", range(5000, 5006))
def test_nan_rate_mid_sweep_faults_promptly(monkeypatch, first_nan):
    """A rate that turns NaN mid-sweep, at each of the six stage positions,
    ends the sweep within two steps in a SimulationFault: the NaN is
    neither accepted as a state nor retried with ever shorter steps."""
    calls = counting(monkeypatch, nan_from=first_nan)
    with deadline(10.0), pytest.raises(SimulationFault, match="non-finite state during sweep"):
        hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(1.0, 10.0), 0.2, 1e-5, 10)
    assert first_nan <= calls[0] < first_nan + 12


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("first_nan", range(30, 36))
def test_nan_rate_mid_segment_faults_promptly(monkeypatch, first_nan):
    """A branch rate that turns NaN inside a 1 s, 4 V segment, at each of
    the six stage positions of a step, ends the segment within two steps,
    as it ends the sweep: the NaN solution or error estimate is returned at
    once, not retried with shorter steps, nor accepted and stepped for
    every remaining dt.  `drive` turns it into a SimulationFault."""
    calls = counting(monkeypatch, nan_from=first_nan)
    syn = SynapseAssembly.fresh(SynapseConfig())
    with deadline(10.0), pytest.raises(SimulationFault, match="non-finite device state"):
        syn.drive(4.0, 1e-5, duration=1.0)
    assert first_nan <= calls[0] < first_nan + 12


NONFINITE_RUNS = {
    "on-manifold": (lambda: SynapseAssembly.fresh(SynapseConfig()).drive(4.0, 1e-5, 1.0),
                    "non-finite device state"),
    "off-manifold": (lambda: SynapseAssembly(SynapseConfig(), (0.3 * D, 0.3 * D)).drive(
        4.0, 1e-5, 1.0), "non-finite device state"),
    "vteam": (lambda: SynapseAssembly.fresh(CFG_VTEAM).drive(4.0, 1e-5, 1.0),
              "non-finite device state"),
    "sweep": (lambda: hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(1.0, 10.0),
                                       0.2, 1e-5, 10), "non-finite state during sweep"),
}


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("first_bad", range(30, 36))
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("run", sorted(NONFINITE_RUNS))
def test_nonfinite_stage_faults_at_once(monkeypatch, run, bad, first_bad):
    """Every error-controlled driver has one non-finite rule: a rate that
    turns +inf or NaN, at each of the six stage positions of a step, ends
    the integration within two steps in a SimulationFault, whether the step
    is at the dt floor or not, and so does a single such stage rate among
    finite ones.  An infinite rate once passed the two-state and
    on-manifold drivers' NaN check and was clamped onto a bound, and a
    single infinite second stage, which enters the step only through the
    clamped states of stages 3-6, was accepted as a finite, wrong step.
    The on-manifold (one-state) drive, the off-manifold dopant and the
    VTEAM (two-state) drives, and the sine sweep."""
    act, fault = NONFINITE_RUNS[run]
    for once in (False, True):
        with monkeypatch.context() as patched:
            calls = counting(patched, nan_from=first_bad, bad=bad, once=once)
            with deadline(10.0), pytest.raises(SimulationFault, match=fault):
                act()
        assert first_bad <= calls[0] < first_bad + 12, once


@pytest.mark.parametrize("stage", [1, 2, 3, 4, 5, 6])
def test_one_infinite_stage_at_the_floor_faults(monkeypatch, stage):
    """One +inf stage rate in a drive of a single dt-floor step, which takes
    no error estimate, raises SimulationFault.  It made the solution
    infinite and was clamped onto a bound, so the fresh synapse read the
    saturated (stages 1, 3, 4, 6) or resting (5) corner.  The second stage
    enters the solution only through the later stages' states, which the
    law clamps, so the solution stayed finite and wrong (weight 0.0034761,
    clean 0.0035163)."""
    law = P.law

    calls = [0]

    def once(rate):
        def rate_once(w, t):
            calls[0] += 1
            return math.inf if calls[0] == stage else rate(w, t)
        return rate_once

    monkeypatch.setattr(MemristorParams, "law", property(
        lambda self: law._replace(span_rates=tuple(map(once, law.span_rates)))))
    with pytest.raises(SimulationFault, match="non-finite device state"):
        SynapseAssembly.fresh(SynapseConfig()).drive(4.0, 1e-5, 1e-5)


def test_one_state_uses_share_one_driver(monkeypatch):
    """The sine sweep of either device and an on-manifold drive integrate
    through the one one-state driver, `_kernels.segment`: each makes driver
    calls, and every rate evaluation it makes is made inside one."""
    calls = counting(monkeypatch)
    inside = []
    segment = K.segment

    def counted(*args):
        before = calls[0]
        result = segment(*args)
        inside.append(calls[0] - before)
        return result

    monkeypatch.setattr(K, "segment", counted)
    runs = [lambda: hysteresis_sweep(P, MemristorState(w=5e-9), SineDrive(1.0, 10.0),
                                     0.02, 1e-5, 10),
            lambda: hysteresis_sweep(VT, MemristorState(w=1.5e-9), SineDrive(3.0, 1000.0),
                                     1e-3, 4e-6, 10),
            lambda: SynapseAssembly.fresh(SynapseConfig()).drive(4.0, 1e-5, 0.01)]
    for act in runs:
        inside.clear()
        calls[0] = 0
        act()
        assert inside and sum(inside) == calls[0] > 0


@pytest.mark.parametrize("kind", WindowSpec.KINDS)
@pytest.mark.parametrize("model", ["dopant", "vteam"])
def test_branch_rates_are_the_rate_at_each_device_drive(model, kind):
    """A law's `branch_rates`, whose resistances and clamps VTEAM keeps
    inline, is its own `rate` at each device's drive in the branch, bit for
    bit: the device current o*i for the dopant law, the device voltage
    o*i*R(w) for VTEAM, where i is v over the two resistances and the
    series resistor.  Both orientation tables, every window kind, states on
    and beyond the bounds, drives across the VTEAM dead zone and zero."""
    spec = WindowSpec(kind=kind, p=2, j=0.9)
    dev = MemristorParams(window=spec) if model == "dopant" else VteamParams(window=spec)
    law = dev.build_law()
    lo, hi = dev.state_range
    span = hi - lo
    states = [lo - 0.25 * span, lo, lo + 1e-3 * span, lo + 0.37 * span, hi, hi + 0.25 * span]
    r_series = 16000.0
    for table in (dev.ORIENTATIONS, tuple(-o for o in dev.ORIENTATIONS)):
        o1, o2 = table
        for w1 in states:
            for w2 in states:
                r1, r2 = law.resistance(w1), law.resistance(w2)
                for v in (0.0, -0.0, 0.3, -0.3, 1.7, -1.7, 4.0, -4.0, 37.0):
                    i = v / (r1 + r2 + r_series)
                    if model == "dopant":
                        want = (law.rate(w1, o1 * i), law.rate(w2, o2 * i))
                    else:
                        want = (law.rate(w1, o1 * i * r1), law.rate(w2, o2 * i * r2))
                    got = law.branch_rates(w1, w2, o1, o2, r_series, v)
                    assert [x.hex() for x in got] == [x.hex() for x in want], (w1, w2, v)


@pytest.mark.parametrize("kind", WindowSpec.KINDS)
def test_dopant_sweep_rate_is_the_rate_at_the_device_current(kind):
    """The rate the dopant law's `sweep_rate(drive, omega)` builds, written
    out, is its own `rate` at the current drive*sin(omega*t) / R(w), bit
    for bit: every window kind, states on and beyond the bounds, drive
    amplitudes of both signs and zero, at times across a period.  (VTEAM's
    builds its rate at the voltage.)"""
    dev = MemristorParams(window=WindowSpec(kind=kind, p=2, j=0.9))
    law = dev.build_law()
    lo, hi = dev.state_range
    span = hi - lo
    omega = 2.0 * math.pi * 10.0
    for drive in (0.0, -0.0, 0.3, -0.3, 1.7, -1.7, 4.0, -4.0, 37.0):
        rate = law.sweep_rate(drive, omega)
        for t in (0.0, 0.0123, 0.025, 0.05, 0.075):
            v = drive * math.sin(omega * t)
            for w in (lo - 0.25 * span, -0.0, lo, lo + 1e-3 * span, lo + 0.37 * span, hi,
                      hi + 0.25 * span):
                want = law.rate(w, v / law.resistance(w))
                assert rate(w, t).hex() == want.hex(), (w, drive, t)


@pytest.mark.parametrize("kind", WindowSpec.KINDS)
def test_span_rates_times_the_speed_are_the_rate_on_the_manifold(kind):
    """The dopant law's span rates (written out for zha, the window's
    otherwise), times the unsigned speed |amp| of a drive, the magnitude of
    its Joule factor, are its own `rate` at the branch current of a pair on
    the manifold, bit for bit: every window kind, both orientations, states
    on and beyond the bounds, drives of both signs.  So a span in the scaled
    time |amp|*t integrates the ODE of each of its drives."""
    dev = MemristorParams(window=WindowSpec(kind=kind, p=2, j=0.9))
    law = dev.build_law()
    down, up = law.span_rates
    lo, hi = dev.state_range
    span = hi - lo
    r_series = 16000.0
    for v in (0.3, -0.3, 1.7, -1.7, 4.0, -4.0, 37.0):
        i = v / (dev.r_on + dev.r_off + r_series)
        for o in (1.0, -1.0):
            speed = law.manifold_speed(r_series, v)
            rate = up if o * v > 0.0 else down
            for w in (lo - 0.25 * span, -0.0, lo, lo + 1e-3 * span, lo + 0.37 * span, hi,
                      hi + 0.25 * span):
                assert (speed * rate(w, 0.0)).hex() == law.rate(w, o * i).hex(), (w, v)


def test_vteam_dead_zone_bitwise():
    # v_ab is scaled by the divider ratio so that each device sees x itself:
    # at 0.999 of a threshold one device of each branch sits just inside
    # v_off and its partner, of opposite orientation, just inside v_on
    for step in DRIVERS:
        for x in (0.0, 0.5, -0.5, VT.v_off * 0.999, VT.v_on * 0.999):
            syn = mid_bridge(VT, VT.r_off)
            m = syn.resistances()[0]
            w0 = syn.w
            step(syn, x * (m + m + VT.r_off) / m, 1e-6, 1e-3)
            assert syn.w == w0


def test_vteam_above_threshold_moves_toward_off():
    # a positive A-B drive puts M2 (orientation +1) above v_off, moving it
    # toward w_off, and M1 (orientation -1) below v_on; the excitatory
    # weight follows the sign of the drive
    for step in DRIVERS:
        for v in (4.0, -4.0):
            syn = mid_bridge(VT, VT.r_off)
            w0, psi0 = syn.w, syn.weight()
            step(syn, v, 1e-6, 1e-4)
            assert math.copysign(1.0, syn.w[1] - w0[1]) == math.copysign(1.0, v)
            assert math.copysign(1.0, syn.w[0] - w0[0]) == -math.copysign(1.0, v)
            assert math.copysign(1.0, syn.weight() - psi0) == math.copysign(1.0, v)


def test_vteam_sweep_regression():
    series = hysteresis_sweep(VT, MemristorState(w=1.5e-9), SineDrive(2.0, 1000.0),
                              2e-3, 1e-7, 10)
    assert lobe_area(series) > 0.0
    # pinned from the first run of this configuration
    assert series.w[100] == pytest.approx(1.5003533528823933e-09, rel=1e-9)
    assert series.w[150] == pytest.approx(1.5060402366499522e-09, rel=1e-9)
    assert series.w[200] == pytest.approx(1.5244514495267095e-09, rel=1e-9)
    assert series.i[200] == pytest.approx(0.00041739976977402175, rel=1e-9)


def test_vteam_validation():
    with pytest.raises(ConfigError):
        VteamParams(v_on=0.1).validate()
    with pytest.raises(ConfigError):
        VteamParams(k_on=1e-7).validate()


def test_params_validation():
    with pytest.raises(ConfigError):
        MemristorParams(r_on=2e4, r_off=1e4).validate()
    with pytest.raises(ConfigError):
        MemristorParams(q=0).validate()
    with pytest.raises(ConfigError):
        WindowSpec(j=1.5).validate()
