"""Spike traces, PWM encoding, and the per-frame differential drive.

Each neuron owns an RC trace: held charged at v_p while the neuron's spike
pair is active, decaying exponentially afterwards.  At the start of timeslot
1 of every frame the trace is sampled and encoded as a pulse whose width is
proportional to the sampled amplitude (full width during the owner's firing
frame, where the charging switch is still closed).

Each side drives its synapse terminal slot by slot; their difference is the
actual programming signal:

    terminal A (sending side):   slot0 +rail | slot1 +PWM  | slot2 -rail
    terminal B (receiving side): slot0 gnd   | slot1 -rail | slot2 +PWM

so a causal pair overlaps +rail with -rail in slot 1 (potentiation at twice
the rail amplitude for the encoded width) and an anti-causal pair overlaps in
slot 2 (depression).  Rails appear only in the owner's firing frame.  Slot 0
of terminal B is grounded, because the receiving side's spike only travels
forward; slot 0 is therefore the sender's +rail alone, which the engine
drives as the spike transmission.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .params import POSITIVE, Params, key

SLOTS_PER_FRAME = 3


@dataclass(frozen=True)
class ClockParams(Params):
    """Timeslot rate and the integration step floor; three slots per frame."""

    base_freq: float = key(100.0, POSITIVE)  # timeslot rate, Hz
    # micro-pulse width, reference RK4 step and hysteresis sample grid, s;
    # also the step floor of the error-controlled bridge drives: a drive or
    # span lasting T takes at most T/dt steps at its floor.  A sweep's floor
    # is only a failure guard, dt/1024 (see _kernels.sine_sweep)
    dt: float = key(1e-5, POSITIVE)

    def validate(self, prefix: str = ""):
        super().validate(prefix)  # positive before the division
        steps = self.slot_width / self.dt
        # past 2**53 a float step count has no fraction left to check, and
        # may be infinite
        if steps > 2.0**53:
            raise ConfigError(f"at most 2**53 {prefix}dt per slot: "
                              f"{prefix}dt >= 2**-53 / {prefix}base_freq")
        if round(steps) < 1:  # else a slot under 1e-9 dt passes as 0 steps
            raise ConfigError(f"at least one {prefix}dt per slot: "
                              f"{prefix}dt <= 1 / {prefix}base_freq")
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(f"{prefix}dt must divide the slot width")
        return self

    @property
    def slot_width(self) -> float:
        return 1.0 / self.base_freq

    @property
    def frame_width(self) -> float:
        return SLOTS_PER_FRAME * self.slot_width


@dataclass(frozen=True)
class TraceParams(Params):
    v_p: float = key(2.0, POSITIVE)    # charged trace potential, V
    tau: float = key(0.045, POSITIVE)  # decay time constant, s

    def decay(self, dt: float) -> float:
        """The factor a trace decays by over dt >= 0 while its owner is not
        spiking, exp(-dt/tau)."""
        if dt < 0.0:
            raise ConfigError("dt >= 0")
        return math.exp(-dt / self.tau)


def trace_step(params: TraceParams, v_cp: float, owner_spiking: bool, decay: float) -> float:
    """Hold at v_p while the owner spikes, else the exact exponential decay
    over a step whose factor is `decay` = params.decay(dt)."""
    if owner_spiking:
        return params.v_p
    return v_cp * decay


def pwm_encode(params: TraceParams, sampled_v_cp: float,
               slot_width: float, owner_spiking_this_frame: bool) -> float:
    """Pulse width for this frame's programming slot.

    Full width while the owner is spiking (switch held on); otherwise exactly
    proportional to the sampled trace amplitude.
    """
    if owner_spiking_this_frame:
        return slot_width
    if not (0.0 <= sampled_v_cp <= params.v_p + 1e-12):
        raise ConfigError(f"sampled trace {sampled_v_cp} outside [0, v_p]")
    return (sampled_v_cp / params.v_p) * slot_width


def _slot_segments(level_a: float, width_a: float, level_b: float, width_b: float,
                   slot_width: float):
    """Piecewise-constant v_ab over one slot, where terminal A holds level_a
    for the leading width_a seconds and terminal B level_b for the leading
    width_b, as (duration, level) pairs; zero-voltage stretches are kept out.
    Widths are >= 0.  Both terminals drive until the shorter width ends,
    the longer one alone until it ends, and neither for the rest."""
    wa = min(width_a, slot_width)
    wb = min(width_b, slot_width)
    short, long = (wa, wb) if wa <= wb else (wb, wa)
    segments = []
    if short > 0.0 and level_a != level_b:
        segments.append((short, level_a - level_b))
    v = level_a if wa > wb else -level_b
    if long > short and v != 0.0:
        segments.append((long - short, v))
    return segments


def differential_frame(pre_fired: bool, post_fired: bool, pre_pwm_width: float,
                       post_pwm_width: float, v_cc: float, slot_width: float):
    """The slot-1 and slot-2 (duration, v_ab) segments of one synapse's frame.

    Strong (double-rail) segments only arise where a PWM pulse overlaps the
    opposing side's firing rail.
    """
    post_rail = slot_width if post_fired else 0.0
    pre_rail = slot_width if pre_fired else 0.0
    return (_slot_segments(v_cc, pre_pwm_width, -v_cc, post_rail, slot_width),
            _slot_segments(-v_cc, pre_rail, v_cc, post_pwm_width, slot_width))
