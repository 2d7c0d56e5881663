import math

import pytest

from memsnn.errors import ConfigError, SimulationFault
from memsnn.neuron import LifNeuron, LifParams, LifState

PARAMS = LifParams()


def fine_euler(v0, inputs_v, r_in, r_ref, c, duration, h=1e-6):
    """Independent integrator for the membrane ODE."""
    v = v0
    s = sum(vi / r_in for vi in inputs_v)
    n = int(round(duration / h))
    for _ in range(n):
        v += h * (-(s + v / r_ref) / c)
    return v


def test_integrate_zero_input_stays_zero():
    n = LifNeuron(PARAMS)
    n.integrate([0.0], PARAMS.decay(0.01))
    assert n.state.v_mp == 0.0


def test_integrate_matches_independent_euler():
    n = LifNeuron(PARAMS)
    n.integrate([1.0], PARAMS.decay(0.01))
    oracle = fine_euler(0.0, [1.0], PARAMS.r_in, PARAMS.r_ref, PARAMS.c, 0.01)
    assert n.state.v_mp == pytest.approx(oracle, rel=1e-3)
    # closed form: -R_ref * (v/R_in) * (1 - exp(-t/tau))
    assert n.state.v_mp == pytest.approx(-9.0 * (1 - math.exp(-0.01 / 0.9)), rel=1e-9)


def test_leak_decay_one_time_constant():
    n = LifNeuron(PARAMS, LifState(v_mp=-0.3))
    n.integrate([0.0], PARAMS.decay(PARAMS.tau))
    assert n.state.v_mp == pytest.approx(-0.3 / math.e, rel=1e-9)
    assert n.state.v_mp < 0.0  # never changes sign


def test_leak_is_integrate_under_zero_inputs():
    """`leak` gives `integrate` under all-zero inputs bit for bit, the sign
    of a zero membrane included: the zeros sum to +0.0, so the membrane
    relaxes toward -0.0 and a membrane at -0.0 leaves as +0.0.  A firing
    neuron is held at zero by both."""
    decay = PARAMS.decay(0.01)
    for v0 in (-0.3, 0.2, -0.0, 0.0, -5e-324, 5e-324, -1e308):
        for q2 in (False, True):
            a = LifNeuron(PARAMS, LifState(v_mp=v0, q2=q2), n_inputs=3)
            b = LifNeuron(PARAMS, LifState(v_mp=v0, q2=q2), n_inputs=3)
            a.integrate([0.0, 0.0, 0.0], decay)
            b.leak(decay)
            assert a.state.v_mp.hex() == b.state.v_mp.hex(), (v0, q2)
    n = LifNeuron(PARAMS, LifState(v_mp=-0.0))
    assert n.leak(decay).v_mp.hex() == (0.0).hex()


def test_decay_refuses_a_bad_step():
    for dt in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(SimulationFault, match="bad timestep"):
            PARAMS.decay(dt)


def test_integrate_input_count_checked():
    n = LifNeuron(PARAMS)
    with pytest.raises(ConfigError):
        n.integrate([1.0, 2.0], PARAMS.decay(0.01))


def test_integrate_nonfinite_faults():
    n = LifNeuron(PARAMS)
    with pytest.raises(SimulationFault):
        n.integrate([float("nan")], PARAMS.decay(0.01))


def test_comparator_threshold_inclusive():
    n = LifNeuron(PARAMS)
    n.state.v_mp = 0.0
    assert not n.comparator()
    n.state.v_mp = -0.45
    assert n.comparator()
    n.state.v_mp = -0.46
    assert n.comparator()


def test_fire_is_frame_synchronous():
    n = LifNeuron(PARAMS)
    n.state.v_mp = -0.5
    assert n.trigger_tick(frame_edge=False) is False  # crossing only loads Q1
    assert n.state.q1
    fired = n.trigger_tick(frame_edge=True)
    assert fired
    assert n.state.q2
    assert n.state.v_mp == 0.0  # reset completeness
    assert not n.state.q1


def test_one_fire_per_load():
    n = LifNeuron(PARAMS)
    n.state.v_mp = -0.5
    n.trigger_tick(frame_edge=False)
    assert n.trigger_tick(frame_edge=True) is True
    # spike pair ends on the next edge; no second fire without a new crossing
    assert n.trigger_tick(frame_edge=True) is False
    assert not n.state.q2


def test_membrane_held_during_firing_frame():
    n = LifNeuron(PARAMS)
    n.state.v_mp = -0.5
    n.trigger_tick(frame_edge=False)
    n.trigger_tick(frame_edge=True)
    n.integrate([2.0], PARAMS.decay(0.01))
    assert n.state.v_mp == 0.0


def test_disabled_neuron_never_fires():
    n = LifNeuron(PARAMS)
    n.state.enabled = False
    n.state.v_mp = -5.0
    for _ in range(10):
        n.trigger_tick(frame_edge=False)
        assert n.trigger_tick(frame_edge=True) is False
    n.load_fire()
    assert n.trigger_tick(frame_edge=True) is False


def test_subthreshold_inputs_never_fire():
    # weak, infrequent inputs leak away without reaching threshold
    n = LifNeuron(PARAMS)
    fired_any = False
    for _ in range(200):
        n.integrate([0.3], PARAMS.decay(0.01))   # boosts ~ -0.03 each
        n.trigger_tick(frame_edge=False)
        fired_any |= n.trigger_tick(frame_edge=True)
        n.integrate([0.0], PARAMS.decay(0.29))   # then leaks for most of the epoch
    assert not fired_any
    assert abs(n.state.v_mp) < abs(PARAMS.v_th)


def test_params_validation():
    with pytest.raises(ConfigError):
        LifParams(r_in=0.0).validate()
    with pytest.raises(ConfigError):
        LifParams(v_th=0.1).validate()
    # each positive, but their product, the time constant, underflows to 0
    assert LifParams(r_ref=5e-324, c=1.0).validate().tau > 0.0
    with pytest.raises(ConfigError, match=r"r_ref \* c > 0"):
        LifParams(r_ref=5e-324).validate()
