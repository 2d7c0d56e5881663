import math

import numpy as np
import pytest

from memsnn import _kernels as K
from memsnn.device import (MemristorParams, MemristorState, SineDrive, VteamParams,
                           WindowSpec, dwdt, hysteresis_sweep)
from memsnn.errors import ConfigError
from memsnn.synapse import SynapseAssembly, SynapseConfig
from test_synapse import DRIVERS

P = MemristorParams()
D = P.d


def joule(params, i):
    """The power-law drive g(i) of the rate law: its rate with a unit
    prefactor (mu_v = 1, R_ON = D) and the window open (kind none, j = 1)."""
    law = K.dopant_law(params.d, params.r_off, params.d, 1.0, params.a0, params.i0, params.q,
                       K.window("none", 1, 1.0))
    return law.rate(0.5 * params.d, i)


def window(spec, x, i):
    """Window factor at normalized state x = w/D under current i."""
    return K.window(spec.kind, spec.p, spec.j)(x, i)


def test_memristance_boundaries():
    assert P.law.resistance(0.0) == 16000.0
    assert P.law.resistance(D) == 100.0
    assert P.law.resistance(D / 2) == pytest.approx(8050.0, rel=1e-12)


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
    return SynapseAssembly(config, (0.5 * (lo + hi),) * 4)


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
    assert np.all(series.w == 5e-9)
    assert np.all(series.i == 0.0)


def _crossing_currents(series):
    v, i = series.v, series.i
    idx = np.where(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    out = []
    for k in idx:
        a = v[k] / (v[k] - v[k + 1])
        out.append(abs(i[k] + a * (i[k + 1] - i[k])))
    return out


def lobe_area(series):
    """Sum of |enclosed area| per lobe, split at the drive zero crossings."""
    v, i = series.v, series.i
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
    assert np.max(np.abs(a.w - b.w)) < 1e-3 * D


def test_vteam_dead_zone_bitwise():
    # v_ab is scaled by the divider ratio so that each device sees x itself:
    # at 0.999 of a threshold one device of each branch sits just inside
    # v_off and its partner, of opposite orientation, just inside v_on
    for step in DRIVERS:
        for x in (0.0, 0.5, -0.5, VT.v_off * 0.999, VT.v_on * 0.999):
            syn = mid_bridge(VT, VT.r_off)
            m = syn.resistances()[0]
            w0 = tuple(syn.w)
            step(syn, x * (m + m + VT.r_off) / m, 1e-6, 1e-3)
            assert tuple(syn.w) == w0


def test_vteam_above_threshold_moves_toward_off():
    # a positive A-B drive puts M2 (orientation +1) above v_off, moving it
    # toward w_off, and M1 (orientation -1) below v_on; the excitatory
    # weight follows the sign of the drive
    for step in DRIVERS:
        for v in (4.0, -4.0):
            syn = mid_bridge(VT, VT.r_off)
            w0, psi0 = tuple(syn.w), syn.weight()
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
