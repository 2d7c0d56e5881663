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
from .params import POSITIVE, Params, key


@dataclass(frozen=True)
class LifParams(Params):
    r_in: float = key(100e3, POSITIVE)   # input resistance of every afferent, ohm
    r_ref: float = key(900e3, POSITIVE)  # leak/feedback resistance, ohm
    c: float = key(1e-6, POSITIVE)       # integration capacitance, F
    v_th: float = key(-0.45, (lambda v: v < 0.0, "{} < 0"))  # firing threshold, V
    v_cc: float = key(2.0, POSITIVE)     # spike rail amplitude, V

    def validate(self, prefix: str = ""):
        super().validate(prefix)  # positive before the product, which may underflow
        if not self.tau > 0.0:
            raise ConfigError(f"{prefix}r_ref * {prefix}c > 0")
        return self

    @property
    def tau(self) -> float:
        return self.r_ref * self.c

    def decay(self, dt: float) -> float:
        """The membrane's leak factor over a step dt > 0, exp(-dt/tau)."""
        if dt <= 0.0 or not math.isfinite(dt):
            raise SimulationFault(f"bad timestep {dt!r}")
        return math.exp(-dt / self.tau)


@dataclass
class LifState:
    v_mp: float = 0.0            # membrane potential, V
    q1: bool = False             # trigger loaded
    q2: bool = False             # firing this frame
    enabled: bool = True         # EN port; low blocks firing
    comp_prev: bool = False      # comparator output at last observation


class LifNeuron:
    """Params + state bundle with the stepping operations; n_inputs
    afferents feed the integrator.  A step of dt takes its leak factor
    `decay` = params.decay(dt), which a caller stepping one dt computes once."""

    def __init__(self, params: LifParams, state: LifState | None = None, n_inputs: int = 1):
        self.params = params.validate()
        self.state = state if state is not None else LifState()
        self.n_inputs = n_inputs

    def integrate(self, inputs, decay: float):
        """Advance the membrane under inputs held constant for a step of
        leak factor `decay`.

        dV/dt = -(sum_j v_j / R_in + V / R_ref) / C, solved exactly for the
        constant-input step: V_inf + (V - V_inf)*decay with V_inf = -R_ref *
        sum_j v_j / R_in; while the neuron is firing the membrane is held at
        zero (the reset switch stays closed for the whole frame).
        """
        if len(inputs) != self.n_inputs:
            raise ConfigError(f"got {len(inputs)} inputs for {self.n_inputs} afferents")
        s = self.state
        if s.q2:
            s.v_mp = 0.0
            return s
        r_in = self.params.r_in
        total = 0.0
        for v in inputs:  # summed input by input: the fire log depends on the order
            if not math.isfinite(v):
                raise SimulationFault(f"non-finite neuron input {v!r}")
            total += v / r_in
        v_inf = -self.params.r_ref * total
        s.v_mp = v_inf + (s.v_mp - v_inf) * decay
        return s

    def leak(self, decay: float):
        """`integrate` with every input 0.0, bit for bit, without the sum: the
        zeros sum to +0.0, so V_inf is -0.0 (V * decay alone would keep the
        sign of a membrane at -0.0 that the update turns to +0.0)."""
        s = self.state
        if s.q2:
            s.v_mp = 0.0
            return s
        v_inf = -0.0  # -R_ref * +0.0
        s.v_mp = v_inf + (s.v_mp - v_inf) * decay
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
        comp = s.v_mp <= self.params.v_th  # the comparator, read inline
        if comp and not s.comp_prev and s.enabled:
            s.q1 = True  # asynchronous load on the comparator rising edge
        s.comp_prev = comp
        return fired
