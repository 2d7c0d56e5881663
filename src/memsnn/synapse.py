"""Bridge synapse: four memristors, two resistors, one differential gain.

Two voltage dividers share the programming terminals A and B.  The weight is
the gain-scaled difference of the divider taps, so its sign is fixed by where
the resistors sit:

* excitatory - resistors in series with the lower devices (M2, M3); the
  weight stays non-negative for every reachable state;
* inhibitory - resistors in series with the upper devices (M1, M4) and all
  four device polarities flipped; the weight stays non-positive and tracks
  the exact negative of the excitatory trajectory under the same drive.

Programming and transmitted spikes both move the devices (reads are not
free): each branch is integrated as a coupled two-state ODE with the branch
current recomputed at every RK4 stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels as K
from .device import MemristorParams, VteamParams
from .errors import ConfigError, SimulationFault

EXCITATORY = "excitatory"
INHIBITORY = "inhibitory"

# device orientations (M1, M2, M3, M4) making a positive A->B voltage raise
# the excitatory weight; inverted wholesale for the inhibitory synapse
_DOPANT_EXC = (1.0, -1.0, -1.0, 1.0)
_VTEAM_EXC = (-1.0, 1.0, 1.0, -1.0)  # voltage-controlled convention: v <= v_on sets


@dataclass(frozen=True)
class SynapseConfig:
    polarity: str = EXCITATORY
    r1: float = 16000.0
    r2: float = 16000.0
    gain_a: float = 1.1
    device: MemristorParams | VteamParams = field(default_factory=MemristorParams)

    def validate(self):
        if self.polarity not in (EXCITATORY, INHIBITORY):
            raise ConfigError(f"polarity must be excitatory or inhibitory, got {self.polarity!r}")
        if self.r1 != self.r2:
            raise ConfigError("r1 = r2")
        if self.r1 <= 0.0:
            raise ConfigError("r1 > 0")
        if self.gain_a <= 0.0:
            raise ConfigError("gain_a > 0")
        self.device.validate()
        return self

    @property
    def is_vteam(self) -> bool:
        return isinstance(self.device, VteamParams)


def _orientations(config: SynapseConfig) -> tuple[float, float, float, float]:
    base = _VTEAM_EXC if config.is_vteam else _DOPANT_EXC
    if config.polarity == EXCITATORY:
        return base
    return tuple(-o for o in base)


def _corner_states(device) -> tuple[float, float]:
    """(w at R_OFF, w at R_ON) - the two models map w to R oppositely."""
    if isinstance(device, VteamParams):
        return device.w_off, device.w_on
    return 0.0, device.d


class SynapseAssembly:
    """Mutable bridge state: four doping depths plus the shared config.

    Value semantics via copy(); one assembly is only ever stepped from a
    single thread.
    """

    __slots__ = ("config", "w", "_orient", "_lo", "_hi")

    def __init__(self, config: SynapseConfig, w: tuple[float, float, float, float]):
        self.config = config
        self.w = list(float(x) for x in w)
        self._orient = _orientations(config)
        self._lo, self._hi = config.device.state_range
        for wi in self.w:
            if not (self._lo <= wi <= self._hi):
                raise ConfigError(f"device state {wi} outside [{self._lo}, {self._hi}]")

    @classmethod
    def fresh(cls, config: SynapseConfig) -> "SynapseAssembly":
        """Lowest-|weight| corner: M1, M4 at R_OFF and M2, M3 at R_ON for the
        excitatory synapse; the mirrored corner for the inhibitory one."""
        config.validate()
        w_roff, w_ron = _corner_states(config.device)
        if config.polarity == EXCITATORY:
            return cls(config, (w_roff, w_ron, w_ron, w_roff))
        return cls(config, (w_ron, w_roff, w_roff, w_ron))

    def copy(self) -> "SynapseAssembly":
        return SynapseAssembly(self.config, tuple(self.w))

    def resistances(self) -> tuple[float, float, float, float]:
        dev = self.config.device
        if self.config.is_vteam:
            span = dev.w_off - dev.w_on
            return tuple(dev.r_on + (dev.r_off - dev.r_on) * (wi - dev.w_on) / span
                         for wi in self.w)
        return tuple(dev.r_on * (wi / dev.d) + dev.r_off * (1.0 - wi / dev.d)
                     for wi in self.w)

    def weight(self) -> float:
        """Gain-scaled difference of the two divider taps."""
        m1, m2, m3, m4 = self.resistances()
        c = self.config
        if c.polarity == EXCITATORY:
            return c.gain_a * ((m2 + c.r1) / (m1 + m2 + c.r1) - m4 / (m3 + c.r2 + m4))
        return c.gain_a * (m2 / (m1 + c.r1 + m2) - (m4 + c.r2) / (m3 + m4 + c.r2))

    def weight_range(self) -> tuple[float, float]:
        """Closed target interval for programming: the saturated-corner value
        on the far side, 0 on the near side (the resting corner sits slightly
        inside it)."""
        w_roff, w_ron = _corner_states(self.config.device)
        far = self.copy()
        if self.config.polarity == EXCITATORY:
            far.w = [w_ron, w_roff, w_roff, w_ron]
            return (0.0, far.weight())
        far.w = [w_roff, w_ron, w_ron, w_roff]
        return (far.weight(), 0.0)

    # -- stepping ---------------------------------------------------------

    def apply_differential(self, v_ab: float, dt: float, duration: float | None = None):
        """Drive terminals A-B with a constant differential voltage.

        Each branch (M1-M2 plus series resistor; M3-M4 plus series resistor)
        integrates as a coupled pair sharing its branch current, with
        fixed-step RK4 substeps of at most dt.  `duration` defaults to one dt
        step.  This is the reference integrator that `drive` is checked
        against.
        """
        return self._integrate(v_ab, dt, duration, adaptive=False)

    def drive(self, v_ab: float, dt: float, duration: float | None = None):
        """Constant-drive segment with error-controlled RK4 step doubling.

        Agrees with `apply_differential` to within the kernels' SEGMENT_TOL
        per step; dt is the smallest step taken.  A non-finite error
        estimate (e.g. a NaN device state) raises SimulationFault.
        """
        return self._integrate(v_ab, dt, duration, adaptive=True)

    def _integrate(self, v_ab, dt, duration, adaptive):
        if not math.isfinite(v_ab):
            raise SimulationFault(f"non-finite drive voltage {v_ab!r}")
        if not math.isfinite(dt) or dt <= 0.0:
            raise SimulationFault(f"bad timestep {dt!r}")
        if duration is None:
            duration = dt
        if duration <= 0.0 or v_ab == 0.0:
            return self
        c = self.config
        dev = c.device
        wk, wp, wj = dev.window.code, dev.window.p, dev.window.j
        o1, o2, o3, o4 = self._orient
        if c.is_vteam:
            rk4 = K.vteam_branch_rk4
            params = (dev.v_on, dev.v_off, dev.k_on, dev.k_off,
                      float(dev.alpha_on), float(dev.alpha_off),
                      dev.w_on, dev.w_off, dev.r_on, dev.r_off, wk, wp, wj)
        else:
            rk4 = K.dopant_branch_rk4
            params = (dev.r_on, dev.r_off, dev.d, dev.mu_v, dev.a0, dev.i0, dev.q, wk, wp, wj)
        branch = K.branch_segment if adaptive else K.branch_step
        lo, hi = self._lo, self._hi
        self.w[0], self.w[1] = branch(rk4, self.w[0], self.w[1], lo, hi, duration, dt,
                                      o1, o2, c.r1, v_ab, *params)
        self.w[2], self.w[3] = branch(rk4, self.w[2], self.w[3], lo, hi, duration, dt,
                                      o3, o4, c.r2, v_ab, *params)
        if adaptive and not all(math.isfinite(wi) for wi in self.w):
            raise SimulationFault(f"non-finite device state under {v_ab!r} V drive")
        return self

    def transmit(self, v_in: float, dt: float, duration: float | None = None) -> float:
        """Weighted spike transmission: v_out = weight * v_in.

        The transmitted signal also biases the bridge, so the state is
        stepped exactly as a programming signal of the same amplitude would
        (the weak-signal side effect of a read), through `drive`.
        """
        v_out = self.weight() * v_in
        self.drive(v_in, dt, duration)
        return v_out

    def program_to_weight(self, target: float, tolerance: float = 1e-3,
                          dt: float = 1e-5, level: float = 4.0,
                          max_seconds: float = 5.0) -> float:
        """Closed-loop programming with +/-`level` micro-pulses of width dt.

        Stops when within tolerance or when a range boundary stalls progress;
        returns the achieved weight.
        """
        if tolerance <= 0.0:
            raise ConfigError("tolerance > 0")
        lo, hi = self.weight_range()
        if not (lo - 1e-12 <= target <= hi + 1e-12):
            raise ConfigError(
                f"target weight {target} outside reachable range [{lo:.6g}, {hi:.6g}]")
        sign_for_up = 1.0 if self.config.polarity == EXCITATORY else -1.0
        psi = self.weight()
        steps = 0
        max_steps = int(max_seconds / dt)
        while abs(psi - target) > tolerance and steps < max_steps:
            v = level * sign_for_up * (1.0 if target > psi else -1.0)
            self.apply_differential(v, dt)
            new_psi = self.weight()
            if abs(new_psi - psi) < 1e-15:
                break  # boundary stall
            psi = new_psi
            steps += 1
        return psi
