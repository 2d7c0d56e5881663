"""Clock-triggered leaky integrate-and-fire neuron.

An inverting leaky integrator sums the weighted input spikes (positive
inputs drive the membrane potential negative toward the negative threshold),
a comparator watches the threshold, and a two-flip-flop trigger synchronizes
the actual fire to the frame clock: a crossing anywhere in a frame loads Q1;
the next frame edge raises Q2, emits a bipolar spike pair lasting one frame,
resets the membrane, and clears Q1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, SimulationFault


@dataclass(frozen=True)
class LifParams:
    r_in: tuple[float, ...] = (100e3,)  # per-afferent input resistance, ohm
    r_ref: float = 900e3                # leak/feedback resistance, ohm
    c: float = 1e-6                     # integration capacitance, F
    v_th: float = -0.45                 # firing threshold, V (negative)
    v_cc: float = 2.0                   # spike rail amplitude, V

    def validate(self):
        if not self.r_in or any(r <= 0.0 for r in self.r_in):
            raise ConfigError("every r_in > 0")
        if self.r_ref <= 0.0:
            raise ConfigError("r_ref > 0")
        if self.c <= 0.0:
            raise ConfigError("c > 0")
        if self.v_th >= 0.0:
            raise ConfigError("v_th < 0")
        if self.v_cc <= 0.0:
            raise ConfigError("v_cc > 0")
        return self

    @property
    def tau(self) -> float:
        return self.r_ref * self.c


@dataclass
class LifState:
    v_mp: float = 0.0            # membrane potential, V
    q1: bool = False             # trigger loaded
    q2: bool = False             # firing this frame
    enabled: bool = True         # EN port; low blocks firing
    comp_prev: bool = False      # comparator output at last observation


class LifNeuron:
    """Params + state bundle with the three stepping operations."""

    def __init__(self, params: LifParams, state: LifState | None = None):
        self.params = params.validate()
        self.state = state if state is not None else LifState()

    def copy(self) -> "LifNeuron":
        s = self.state
        return LifNeuron(self.params, LifState(s.v_mp, s.q1, s.q2, s.enabled, s.comp_prev))

    def integrate(self, inputs, dt: float):
        """Advance the membrane under inputs held constant for dt.

        dV/dt = -(sum_j v_j / R_in_j + V / R_ref) / C, solved exactly for the
        constant-input interval; while the neuron is firing the membrane is
        held at zero (the reset switch stays closed for the whole frame).
        """
        if dt <= 0.0 or not math.isfinite(dt):
            raise SimulationFault(f"bad timestep {dt!r}")
        if len(inputs) != len(self.params.r_in):
            raise ConfigError(
                f"got {len(inputs)} inputs for {len(self.params.r_in)} input resistors")
        s = self.state
        if s.q2:
            s.v_mp = 0.0
            return s
        total = 0.0
        for v, r in zip(inputs, self.params.r_in):
            if not math.isfinite(v):
                raise SimulationFault(f"non-finite neuron input {v!r}")
            total += v / r
        v_inf = -self.params.r_ref * total
        s.v_mp = v_inf + (s.v_mp - v_inf) * math.exp(-dt / self.params.tau)
        return s

    def comparator(self) -> bool:
        """High when the membrane has reached the (negative) threshold."""
        return self.state.v_mp <= self.params.v_th

    def load_fire(self):
        """External fire command: loads the trigger directly (integrator
        bypass); honored at the next frame edge like any comparator event."""
        if self.state.enabled:
            self.state.q1 = True

    def trigger_tick(self, frame_edge: bool) -> bool:
        """Advance the two-flip-flop trigger.

        Call at least once per slot with the current comparator level;
        frame_edge marks the fractional-3 clock rising edge.  Returns True
        exactly when a spike pair starts (always on a frame edge).
        """
        s = self.state
        fired = False
        if frame_edge:
            s.q2 = False
            if s.q1 and s.enabled:
                s.q2 = True
                s.v_mp = 0.0    # reset switch dumps the capacitor
                s.q1 = False    # trigger cleared by the inverter
                fired = True
        comp = self.comparator()
        if comp and not s.comp_prev and s.enabled:
            s.q1 = True  # asynchronous load on the comparator rising edge
        s.comp_prev = comp
        return fired
