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
free): a branch is integrated as a coupled two-state ODE with the branch
current recomputed at every RK4 stage.  Only branch 1 (M1, M2) is
integrated.  Because r1 = r2 and the orientation tables are mirrored, the
M3-M4 branch is branch 1 with its devices swapped, so its state is written
as the mirror M3 = M2, M4 = M1, a checked invariant of every stepped state.
The weight readout stays general over any four device states.

Identical branch integrations run once.  Synapses that fire together hold
the same state and receive the same drives, and fresh synapses programmed to
one target take the same pulses, so the driver call is memoized in a bounded
LRU cache (`_branch`).  Its key holds every input of the drivers, which are
pure functions of their arguments, so a hit is bit for bit what integrating
again would give (see SynapseAssembly._integrate).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import _kernels as K
from .device import MemristorParams, VteamParams
from .errors import ConfigError, SimulationFault
from .params import POSITIVE, Params, key, one_of

EXCITATORY = "excitatory"
INHIBITORY = "inhibitory"


@dataclass(frozen=True)
class SynapseConfig(Params):
    polarity: str = key(EXCITATORY, one_of(EXCITATORY, INHIBITORY))
    r1: float = key(16000.0, POSITIVE)
    r2: float = 16000.0
    gain_a: float = key(1.1, POSITIVE)
    # picked by device.kind; the device.* or vteam.* keys
    device: MemristorParams | VteamParams = field(default_factory=MemristorParams)

    def validate(self, prefix: str = ""):
        super().validate(prefix)
        if self.r1 != self.r2:
            raise ConfigError("r1 = r2")
        self.device.validate()
        return self


def _orientations(config: SynapseConfig) -> tuple[float, float, float, float]:
    """The device's excitatory table, inverted wholesale for the inhibitory synapse."""
    base = config.device.EXCITATORY_ORIENTATIONS
    if config.polarity == EXCITATORY:
        return base
    return tuple(-o for o in base)


@functools.lru_cache(maxsize=256)
def _branch(driver, rk4, tol, *args):
    """driver(rk4, *args), memoized.  `tol` is K.SEGMENT_TOL, which the
    error-controlled driver reads itself; it is passed only to be keyed on.
    256 entries (about 0.1 MB) catch every repeat of the 3x3 pattern runs."""
    return driver(rk4, *args)


class SynapseAssembly:
    """Mutable bridge state: four doping depths plus the shared config.

    Value semantics via copy(); one assembly is only ever stepped from a
    single thread.
    """

    __slots__ = ("config", "w", "_lo", "_hi", "_o1", "_o2", "_r1", "_resistance", "_rates")

    def __init__(self, config: SynapseConfig, w: tuple[float, float, float, float]):
        self.config = config
        self.w = list(float(x) for x in w)
        self._lo, self._hi = config.device.state_range
        # branch-1 kernel arguments, bound once (see _integrate)
        self._o1, self._o2 = _orientations(config)[:2]
        self._r1 = config.r1
        law = config.device.law
        self._resistance, self._rates = law.resistance, law.branch_rates
        for wi in self.w:
            if not (self._lo <= wi <= self._hi):
                raise ConfigError(f"device state {wi} outside [{self._lo}, {self._hi}]")

    @classmethod
    def fresh(cls, config: SynapseConfig) -> "SynapseAssembly":
        """Lowest-|weight| corner: M1, M4 at R_OFF and M2, M3 at R_ON for the
        excitatory synapse; the mirrored corner for the inhibitory one."""
        config.validate()
        w_roff, w_ron = config.device.corner_states
        if config.polarity == EXCITATORY:
            return cls(config, (w_roff, w_ron, w_ron, w_roff))
        return cls(config, (w_ron, w_roff, w_roff, w_ron))

    def copy(self) -> "SynapseAssembly":
        return SynapseAssembly(self.config, tuple(self.w))

    def resistances(self) -> tuple[float, float, float, float]:
        return tuple(map(self._resistance, self.w))

    def weight(self) -> float:
        """Gain-scaled difference of the two divider taps."""
        m1, m2, m3, m4 = self.resistances()
        c = self.config
        if c.polarity == EXCITATORY:
            return c.gain_a * ((m2 + c.r1) / (m1 + m2 + c.r1) - m4 / (m3 + c.r2 + m4))
        return c.gain_a * (m2 / (m1 + c.r1 + m2) - (m4 + c.r2) / (m3 + m4 + c.r2))

    def weight_range(self) -> tuple[float, float]:
        """Closed target interval for programming: the saturated-corner value
        on the far side, 0 on the near side.  The resting corner of `fresh`
        lies inside it, not at 0: |weight| 0.0034 in [0, 1.093] for the stock
        dopant circuit, 0.100 in [0, 1.5] for the VTEAM variant.  Programming
        toward a target nearer 0 stalls at that corner."""
        w_roff, w_ron = self.config.device.corner_states
        far = self.copy()
        if self.config.polarity == EXCITATORY:
            far.w = [w_ron, w_roff, w_roff, w_ron]
            return (0.0, far.weight())
        far.w = [w_roff, w_ron, w_ron, w_roff]
        return (far.weight(), 0.0)

    # -- stepping ---------------------------------------------------------

    def apply_differential(self, v_ab: float, dt: float, duration: float | None = None):
        """Drive terminals A-B with a constant differential voltage.

        The M1-M2 branch with its series resistor integrates as a coupled
        pair sharing its branch current, with fixed-step RK4 substeps of at
        most dt; M3-M4 follow as its mirror (see _integrate).  `duration`
        defaults to one dt step.  This is the reference integrator that
        `drive` is checked against.
        """
        return self._integrate(v_ab, dt, duration, adaptive=False)

    def drive(self, v_ab: float, dt: float, duration: float | None = None):
        """Constant-drive segment with error-controlled RK4 step doubling.

        Agrees with `apply_differential` to within the kernels' SEGMENT_TOL
        per step; dt is the smallest step taken.  A non-finite error
        estimate raises SimulationFault.
        """
        return self._integrate(v_ab, dt, duration, adaptive=True)

    def _integrate(self, v_ab, dt, duration, adaptive):
        """Integrate branch 1 (M1, M2, r1) and write branch 2 as its mirror.

        With r1 = r2 (SynapseConfig.validate) and mirrored orientation
        tables (o3 = o2, o4 = o1), branch 2 solves branch 1's ODE with its
        two devices swapped, so a mirrored state (w3 = w2, w4 = w1) stays
        mirrored bit for bit.  `fresh` and the far corner of `weight_range`
        are mirrored.  The mirror is a checked invariant: a non-finite state,
        then an unmirrored one, raises SimulationFault before integrating.

        The driver call goes through the `_branch` cache.  Its key holds the
        driver and the RK4 step as `_kernels` holds them at this call (so
        patched or wrapped kernels never share an entry with the originals),
        SEGMENT_TOL, w1, w2, the bounds, duration, dt, o1, o2, r1, v_ab and
        the device law's `branch_rates`, one object per distinct set of
        device constants (see device._law).  The drivers are pure functions
        of exactly these, so a repeated drive returns what integrating it
        again would, bit for bit.
        """
        if not math.isfinite(v_ab):
            raise SimulationFault(f"non-finite drive voltage {v_ab!r}")
        if not math.isfinite(dt) or dt <= 0.0:
            raise SimulationFault(f"bad timestep {dt!r}")
        if duration is None:
            duration = dt
        if duration <= 0.0 or v_ab == 0.0:
            return self
        w1, w2, w3, w4 = self.w
        if not all(map(math.isfinite, self.w)):
            raise SimulationFault(f"non-finite device state under {v_ab!r} V drive")
        if w3 != w2 or w4 != w1:
            raise SimulationFault(
                f"unmirrored bridge state {tuple(self.w)}: "
                "the integrator needs M3 = M2 and M4 = M1")
        try:
            w1, w2 = _branch(K.branch_segment if adaptive else K.branch_step,
                             self.config.device.branch_rk4,
                             K.SEGMENT_TOL, w1, w2, self._lo, self._hi, duration, dt,
                             self._o1, self._o2, self._r1, v_ab, self._rates)
        except OverflowError:
            raise SimulationFault(f"device rate overflow under {v_ab!r} V drive") from None
        if adaptive and not (math.isfinite(w1) and math.isfinite(w2)):
            raise SimulationFault(f"non-finite device state under {v_ab!r} V drive")
        self.w = [w1, w2, w2, w1]
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

        Pulses towards `target` until the weight is within `tolerance` of it,
        a pulse moves it by less than 1e-15 (a range boundary stalls it), a
        pulse crosses the whole band or `max_seconds` of pulses have been
        applied; returns the achieved weight.  The weight is monotone along
        pulses of one direction, so once a pulse crosses the band no count
        of them lands in it: the synapse ends at the nearer of the weights
        before and after that pulse (the earlier on a tie), out of the band.

        The pulses are event-located, not applied one by one.  Pulses in one
        direction form one constant drive, along which the weight is
        monotone.  So after a pulse that leaves the weight short of the band,
        `drive` jumps to the last pulse count still short of it (see
        _pulses_short_of), and the next `apply_differential` pulse meets the
        band, stall and direction tests as in a pulse-wise loop.  The pulse
        count matches that loop unless a band edge lies within the
        integration error (SEGMENT_TOL) of a pulse edge.
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
            up = 1.0 if target > psi else -1.0
            v = level * sign_for_up * up
            edge = up * target - tolerance  # up * psi below it: short of the band
            before = list(self.w)
            self.apply_differential(v, dt)
            new_psi = self.weight()
            if abs(new_psi - psi) < 1e-15:
                break  # boundary stall
            if up * new_psi > up * target + tolerance:  # crossed the band
                if abs(new_psi - target) < abs(psi - target):
                    return new_psi
                self.w = before
                return psi
            psi = new_psi
            steps += 1
            if up * psi < edge:
                steps += self._pulses_short_of(edge, up, psi, v, dt, max_steps - steps)
                psi = self.weight()
        return psi

    def _pulses_short_of(self, edge, up, psi, v, dt, limit):
        """Advance by the most pulses of `v` (at most `limit`) after which
        up * weight stays below `edge`, and return that count.  Chunks of 1,
        2, 4, ... pulses bracket the count, then bisection narrows the
        bracket; each chunk starts from the last state short of the edge."""
        short = list(self.w)  # the state after n pulses
        n, far, k = 0, None, 1  # far: a pulse count known to reach the edge
        while n < limit and (far is None or far - n > 1):
            k = min(k, limit - n) if far is None else (far - n) // 2
            self.drive(v, dt, k * dt)
            new_psi = self.weight()
            if up * new_psi >= edge:
                far = n + k
                self.w = list(short)
            elif abs(new_psi - psi) < 1e-15:
                self.w = short
                break  # boundary stall: every pulse of the chunk would stall
            else:
                n, psi, short = n + k, new_psi, list(self.w)
                k *= 2
        return n
