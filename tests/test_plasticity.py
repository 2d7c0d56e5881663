import math

import numpy as np
import pytest

from memsnn.errors import ConfigError
from memsnn.plasticity import (ClockParams, TraceParams, _slot_segments, differential_frame,
                               pwm_encode, trace_step)

TP = TraceParams(v_p=2.0, tau=0.045)
SLOT = 0.01
VCC = 2.0


def test_clock_slot_and_frame_widths():
    clock = ClockParams(base_freq=100.0)
    assert clock.slot_width == pytest.approx(0.01)
    assert clock.frame_width == pytest.approx(0.03)


def test_trace_held_while_spiking():
    assert trace_step(TP, 0.3, owner_spiking=True, decay=TP.decay(0.03)) == TP.v_p


def test_trace_exponential_decay():
    v = trace_step(TP, TP.v_p, owner_spiking=False, decay=TP.decay(TP.tau))
    assert v == pytest.approx(TP.v_p / math.e, rel=1e-12)


def test_trace_zero_stays_zero():
    assert trace_step(TP, 0.0, owner_spiking=False, decay=TP.decay(1.0)) == 0.0


def test_trace_monotone_between_spikes():
    prev = TP.v_p
    for _ in range(50):
        v = trace_step(TP, prev, owner_spiking=False, decay=TP.decay(0.01))
        assert 0.0 <= v < prev
        prev = v


def test_pwm_endpoints():
    assert pwm_encode(TP, TP.v_p, SLOT, False) == SLOT
    assert pwm_encode(TP, 0.0, SLOT, False) == 0.0
    assert pwm_encode(TP, 0.123, SLOT, True) == SLOT  # switch held on


def test_pwm_width_at_one_tau():
    width = pwm_encode(TP, TP.v_p / math.e, SLOT, False)
    assert width == pytest.approx(SLOT / math.e, rel=1e-12)
    assert width == pytest.approx(3.679e-3, abs=1e-6)


def test_pwm_exact_proportionality():
    rng = np.random.default_rng(5)
    for v in rng.uniform(0.0, TP.v_p, 100):
        width = pwm_encode(TP, v, SLOT, False)
        assert width / SLOT == pytest.approx(v / TP.v_p, rel=1e-12, abs=1e-15)


# (pre_fired, post_fired, pre PWM width, post PWM width) -> slot-1 and slot-2
# (duration, v_ab) segments.  Terminal A (pre side) drives +PWM in slot 1 and
# its -rail in slot 2; terminal B (post side) its -rail in slot 1 and +PWM in
# slot 2.  A side's PWM is full width in its own firing frame.
DIFFERENTIAL_FRAMES = {
    "idle": ((False, False, 0.0, 0.0), [], []),
    "pre_trace_only": ((False, False, 0.004, 0.0), [(0.004, VCC)], []),
    "post_trace_only": ((False, False, 0.0, 0.0037), [], [(0.0037, -VCC)]),
    "pre_fires": ((True, False, SLOT, 0.0), [(SLOT, VCC)], [(SLOT, -VCC)]),
    "post_fires": ((False, True, 0.0, SLOT), [(SLOT, VCC)], [(SLOT, -VCC)]),
    # the sending side fired last frame (trace width), the receiving side
    # fires now: the strong overlap lasts exactly the PWM width
    "ltp_overlap": ((False, True, 0.0072, SLOT),
                    [(0.0072, 2 * VCC), (SLOT - 0.0072, VCC)], [(SLOT, -VCC)]),
    "ltd_overlap": ((True, False, SLOT, 0.0028),
                    [(SLOT, VCC)], [(0.0028, -2 * VCC), (SLOT - 0.0028, -VCC)]),
    "same_frame_pair": ((True, True, SLOT, SLOT), [(SLOT, 2 * VCC)], [(SLOT, -2 * VCC)]),
}


@pytest.mark.parametrize("args, slot1, slot2", DIFFERENTIAL_FRAMES.values(),
                         ids=DIFFERENTIAL_FRAMES.keys())
def test_differential_frame(args, slot1, slot2):
    got1, got2 = differential_frame(*args, VCC, SLOT)
    assert got1 == [(pytest.approx(d), v) for d, v in slot1]
    assert got2 == [(pytest.approx(d), v) for d, v in slot2]


def test_differential_ltp_overlap():
    # sending side fired last frame (trace width w), receiving side fires now:
    # slot 1 is strong for exactly w and weak for the rest of the slot, and the
    # depressing slot carries only the receiver's full-width PWM at -v_cc
    for w in np.linspace(0.0005, SLOT - 0.0005, 19):
        slot1, slot2 = differential_frame(False, True, w, SLOT, VCC, SLOT)
        assert slot1 == [(pytest.approx(w), 2 * VCC), (pytest.approx(SLOT - w), VCC)]
        strong = sum(d for d, v in slot1 if abs(v) > VCC + 1e-15)
        assert strong == pytest.approx(w)
        assert slot2 == [(pytest.approx(SLOT), -VCC)]


def sorted_cuts_segments(level_a, width_a, level_b, width_b, slot_width):
    """Oracle for `_slot_segments`: cut the slot at every width, then keep
    each piece's nonzero level."""
    wa = min(width_a, slot_width)
    wb = min(width_b, slot_width)
    cuts = sorted({0.0, wa, wb, slot_width})
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        v = (level_a if lo < wa else 0.0) - (level_b if lo < wb else 0.0)
        if v != 0.0:
            segments.append((hi - lo, v))
    return segments


# zero, inside the slot, slot-wide and over-slot widths
WIDTHS = (0.0, 0.0028, 0.0072, SLOT, 1.5 * SLOT)
LEVELS = (VCC, -VCC, 2 * VCC, 0.0)


@pytest.mark.parametrize("level_a", LEVELS)
@pytest.mark.parametrize("level_b", LEVELS)
def test_slot_segments_match_sorted_cuts(level_a, level_b):
    """Every pair of widths, equal ones included, and both level signs:
    the same segments, bit for bit."""
    for width_a in WIDTHS:
        for width_b in WIDTHS:
            args = (level_a, width_a, level_b, width_b, SLOT)
            assert _slot_segments(*args) == sorted_cuts_segments(*args), args


def test_slot_segments_match_sorted_cuts_on_drawn_widths():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    widths = st.one_of(st.sampled_from(WIDTHS), st.floats(0.0, 2 * SLOT))
    levels = st.sampled_from((VCC, -VCC)) | st.floats(-4.0, 4.0)

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(levels, widths, levels, widths)
    def check(level_a, width_a, level_b, width_b):
        args = (level_a, width_a, level_b, width_b, SLOT)
        assert _slot_segments(*args) == sorted_cuts_segments(*args)

    check()


def test_weak_only_frames_never_exceed_rail():
    rng = np.random.default_rng(9)
    for _ in range(200):
        wa = float(rng.uniform(0.0, SLOT))
        wb = float(rng.uniform(0.0, SLOT))
        # neither side fires: only trace PWMs are active
        for segs in differential_frame(False, False, wa, wb, VCC, SLOT):
            for _, v in segs:
                assert abs(v) <= VCC + 1e-15


def test_trace_params_validation():
    with pytest.raises(ConfigError):
        TraceParams(v_p=0.0).validate()
    with pytest.raises(ConfigError):
        TraceParams(tau=-1.0).validate()
