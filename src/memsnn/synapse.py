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
free).  M3 is wired as M2 and M4 as M1, and r1 = r2, so the M3-M4 branch is
branch 1 with its two devices swapped: the bridge state is the branch-1
pair (w1, w2), and M3, M4 are read as its mirror (w3 = w2, w4 = w1), which
no state can break, so nothing checks it.  Only this module knows it; the
network engine assigns the pair or keys on it.

Every production path, closed-loop programming included, integrates with
`frame`'s error-controlled Dormand-Prince 5(4) steps over a sequence of
constant drives (`drive` is the one-drive frame).  The fixed-step RK4
`apply_differential` is the oracle the tests check it against; it
integrates branch 1 as a coupled two-state ODE with the branch current
recomputed at every stage.  For the dopant bridge that is one state too
many: every dopant window is symmetric under x -> 1 - x with the drive
reversed, so from the corner of `fresh` w1 + w2 = D holds, the devices'
resistances sum to r_on + r_off, and the branch current is constant under
a constant drive (the linear dopant drift of Strukov, Snider, Stewart &
Williams, Nature 453:80-83, 2008).  On that manifold `frame` integrates M1
alone and writes M2 as D - w1, so every state it writes stays exactly on
it.  There M1's rate is amp*f(w1/D, direction), amp constant per drive,
and the ODE is autonomous, so consecutive drives of one sign join into
one span in the scaled time |amp|*t, integrated at the window's rate by
one call of the one-state driver the sine sweep also takes: a network
frame is at most two spans, one up and one down.  Off the
manifold (a state set by hand or left by `apply_differential`), and for
VTEAM devices, which split the branch voltage by their resistances,
`frame` integrates the pair, one drive at a time.

Every bridge is held in the excitatory frame: an inhibitory bridge stores
its excitatory twin's pair, its physical (w2, w1), and its polarity is only
the sign (`SynapseConfig.sign`) on the weight it reads and on the pulses
that program it.  This is exact, not an approximation.  The inhibitory
orientations (-o1, -o2) are the excitatory pair swapped, (o2, o1), for
either device model, and with r1 = r2 the branch drivers give the swap of
their result for swapped devices and orientations bit for bit (IEEE
addition commutes).  So at every step the inhibitory pair is its twin's
swapped, and its weight, gain*(v- - v+) in the twin's tap voltages, is
exactly -(gain*(v+ - v-)).

Repeated drives are not looked up here: the network engine steps each
distinct synapse frame once per run (see network.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels as K
from .device import MemristorParams, VteamParams
from .errors import ConfigError, SimulationFault
from .params import POSITIVE, Params, key, one_of

EXCITATORY = "excitatory"
INHIBITORY = "inhibitory"
PULSE_LEVEL = 4.0  # closed-loop programming micro-pulse amplitude, V


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
        # every bridge starts with its devices on the bounds (fresh), where a
        # window zero at both would hold them for good
        win = self.device.window
        f = K.window(win.kind, win.p, win.j)
        if f(0.0, 1.0) == 0.0 and f(1.0, -1.0) == 0.0:
            group = "vteam" if isinstance(self.device, VteamParams) else "device"
            raise ConfigError(f"{group}.window.kind must be nonzero at the state bounds, "
                              f"where every bridge starts: {win.kind!r} is zero at both")
        return self

    @property
    def sign(self) -> float:
        """+1.0 excitatory, -1.0 inhibitory: the factor that reads a bridge's
        weight off its excitatory-frame state (see the module docstring)."""
        return 1.0 if self.polarity == EXCITATORY else -1.0


def _volts(pieces):
    """The drive voltages of `pieces`, for a fault message."""
    return ", ".join(repr(v) for _, v in pieces)


class SynapseAssembly:
    """Bridge state: the branch-1 doping depths `w` = (w1, w2) of the
    excitatory frame, a tuple, plus the config.

    Value semantics via copy(); one assembly is only ever stepped from a
    single thread.
    """

    __slots__ = ("config", "w", "_lo", "_hi", "_o1", "_o2", "_r1", "_resistance", "_rates",
                 "_speed", "_span_rates", "_sign")

    def __init__(self, config: SynapseConfig, w: tuple[float, float]):
        self.config = config
        w1, w2 = w
        self.w = (float(w1), float(w2))
        self._lo, self._hi = config.device.state_range
        # branch-1 kernel arguments, bound once (see frame)
        self._o1, self._o2 = config.device.ORIENTATIONS
        self._r1 = config.r1
        law = config.device.law
        self._resistance, self._rates = law.resistance, law.branch_rates
        self._speed, self._span_rates = law.manifold_speed, law.span_rates
        self._sign = config.sign  # bound once: every weight() reads it
        for wi in self.w:
            if not (self._lo <= wi <= self._hi):
                raise ConfigError(f"device state {wi} outside [{self._lo}, {self._hi}]")

    @classmethod
    def fresh(cls, config: SynapseConfig) -> "SynapseAssembly":
        """Lowest-|weight| corner: M1, M4 at R_OFF and M2, M3 at R_ON in the
        excitatory frame (the inhibitory bridge's M1, M4 sit at R_ON)."""
        config.validate()
        return cls(config, config.device.corner_states)

    def copy(self) -> "SynapseAssembly":
        return SynapseAssembly(self.config, self.w)

    def resistances(self) -> tuple[float, float, float, float]:
        """The physical (M1, M2, M3, M4); the inhibitory bridge's M1 holds
        its twin's w2 (see the module docstring)."""
        m1, m2 = map(self._resistance, self.w[::int(self._sign)])
        return (m1, m2, m2, m1)

    def weight(self) -> float:
        """Gain-scaled difference of the two divider taps (m3 = m2, m4 = m1),
        signed by the polarity."""
        m1, m2 = map(self._resistance, self.w)
        c = self.config
        return self._sign * c.gain_a * ((m2 + c.r1) / (m1 + m2 + c.r1) - m1 / (m2 + c.r2 + m1))

    def weight_range(self) -> tuple[float, float]:
        """Closed target interval for programming, between the weights of
        the two corners: the resting corner of `fresh` on the near side,
        |weight| 0.0034 for the stock dopant circuit and 0.100 for the VTEAM
        variant, and the saturated corner on the far side, 1.093 and 1.5."""
        corners = self.config.device.corner_states
        return tuple(sorted(SynapseAssembly(self.config, w).weight()
                            for w in (corners, corners[::-1])))

    # -- stepping ---------------------------------------------------------

    def apply_differential(self, v_ab: float, dt: float, duration: float | None = None):
        """Drive terminals A-B with a constant differential voltage.

        The M1-M2 branch with its series resistor integrates as a coupled
        pair sharing its branch current, with fixed-step RK4 substeps of at
        most dt (`_kernels.branch_step`), from any pair.  `duration` defaults
        to one dt step.  No production path calls it: it is the tests'
        reference integrator, the oracle `drive` and `frame` are checked
        against.  With r1 = r2 (SynapseConfig.validate) and M3, M4 wired as
        M2, M1, branch 2 solves branch 1's ODE with its two devices swapped,
        so integrating the pair steps all four devices, here and in `frame`;
        no other state exists to fall out of mirror.
        """
        if duration is None:
            duration = dt
        if self._moves(v_ab, dt, duration):
            try:
                self.w = K.branch_step(self.config.device.branch_rk4, *self.w, self._lo,
                                       self._hi, duration, dt, self._o1, self._o2, self._r1,
                                       v_ab, self._rates)
            except OverflowError:
                raise SimulationFault(f"device rate overflow under {v_ab!r} V drive") from None
        return self

    def drive(self, v_ab: float, dt: float, duration: float | None = None):
        """Constant-drive segment with error-controlled Dormand-Prince 5(4)
        steps: the one-piece `frame`, `duration` defaulting to dt.

        The integrator of the zero-init drive, programming pulses and the
        device experiments.  Agrees with `apply_differential` to within the
        kernels' SEGMENT_TOL per step.
        """
        return self.frame(((dt if duration is None else duration, v_ab),), dt)

    def frame(self, pieces, dt: float):
        """Step the bridge through `pieces`, (duration, v_ab) pairs of
        constant drive in order, and write the new pair to `w`.

        A pair exactly on its law's manifold, w2 = (lo + hi) - w1, which
        `fresh` and every such step write, takes each run of pieces of one
        drive sign as one span.  There M1's rate under a piece is
        +-|amp|*f(w1, direction), |amp| the law's `manifold_speed`, so in
        the scaled time |amp|*t the pieces join: the span's length S sums
        |amp|*duration over its pieces and its duration T their durations,
        both in piece order.  One `_kernels.segment` call integrates M1
        alone over [0, S] at the direction's span rate with step floor
        S*dt/T (so at most T/dt floor steps), and M2 is written as
        (lo + hi) - w1.  M1 is the device of orientation +1: every law with
        span rates lists it first.  Any other pair, and every VTEAM pair,
        takes one two-state `_kernels.branch_segment` call per piece.
        Pieces of zero duration or voltage are skipped.  A non-finite
        voltage or state, a bad timestep, a rate overflow, or a step that
        turns non-finite (the drivers then return a NaN state) raises
        SimulationFault, whose `piece` is the index of the first piece of
        the span that faulted.  The drivers are looked up in `_kernels` at
        each call, so a patched or wrapped kernel is the one that runs.
        """
        lo, hi, rates = self._lo, self._hi, self._span_rates
        n, i = len(pieces), 0
        while i < n:
            duration, v = pieces[i]
            end = i + 1
            try:
                if self._moves(v, dt, duration):
                    w1, w2 = self.w
                    try:
                        if rates is None or w2 != (lo + hi) - w1:
                            w1, w2 = K.branch_segment(w1, w2, lo, hi, duration, dt, self._o1,
                                                      self._o2, self._r1, v, self._rates)
                        else:
                            # the following pieces of this drive sign join the span
                            while (end < n and pieces[end][0] > 0.0
                                   and 0.0 < pieces[end][1] * v < math.inf):
                                end += 1
                            span = total = 0.0
                            for t, u in pieces[i:end]:
                                span += self._speed(self._r1, u) * t
                                total += t
                            w1, _, _ = K.segment(w1, 0.0, span, span, span * dt / total, lo, hi,
                                                 rates[v > 0.0])
                            w2 = (lo + hi) - w1
                    except OverflowError:
                        raise SimulationFault(f"device rate overflow under "
                                              f"{_volts(pieces[i:end])} V drive") from None
                    if not (math.isfinite(w1) and math.isfinite(w2)):
                        raise SimulationFault(f"non-finite device state under "
                                              f"{_volts(pieces[i:end])} V drive")
                    self.w = (w1, w2)
            except SimulationFault as exc:
                exc.piece = i
                raise
            i = end
        return self

    def _moves(self, v_ab, dt, duration):
        """Whether a constant drive moves the state: not one of zero
        duration or voltage.  A non-finite voltage or state, or a bad
        timestep, raises SimulationFault."""
        if not math.isfinite(v_ab):
            raise SimulationFault(f"non-finite drive voltage {v_ab!r}")
        if not math.isfinite(dt) or dt <= 0.0:
            raise SimulationFault(f"bad timestep {dt!r}")
        if duration <= 0.0 or v_ab == 0.0:
            return False
        w1, w2 = self.w
        if not (math.isfinite(w1) and math.isfinite(w2)):
            raise SimulationFault(f"non-finite device state under {v_ab!r} V drive")
        return True

    def transmit(self, v_in: float, dt: float, duration: float | None = None) -> float:
        """One weighted spike transmission on its own: v_out = weight * v_in.

        The transmitted signal also biases the bridge, so the state is
        stepped exactly as a programming signal of the same amplitude would
        (the weak-signal side effect of a read), through `drive`.  The
        network reads the weight the same way but steps the transmission as
        the first piece of the synapse's `frame`.
        """
        v_out = self.weight() * v_in
        self.drive(v_in, dt, duration)
        return v_out

    def program_to_weight(self, target: float, tolerance: float = 1e-3, *, dt: float,
                          max_seconds: float = 5.0) -> float:
        """Closed-loop programming with +/-PULSE_LEVEL micro-pulses of width dt.

        Pulses towards `target` until the weight is within `tolerance` of it
        or a pulse crosses the whole band, and returns the achieved weight.
        A run that stops short of the band, because pulses move the weight
        by less than 1e-15 (the devices stall) or `max_seconds` of pulses
        are spent, raises SimulationFault.  Pulses towards the target form
        one constant drive, along which the weight is monotone, so the
        search is over the pulse count alone.  Chunks of 1, 2, 4, ... pulses,
        each a `drive` segment from the last state short of the band, bracket
        the count, then bisection narrows the bracket.  The single pulse from
        the last short state that reaches the band ends the search: in the
        band, or across it, where no pulse count lands in it, so the synapse
        ends at the nearer of the weights before and after that pulse (the
        earlier on a tie), out of the band.  The pulse count matches a
        pulse-wise loop unless a band edge lies within the integration error
        (SEGMENT_TOL) of a pulse edge.
        """
        if tolerance <= 0.0:
            raise ConfigError("tolerance > 0")
        lo, hi = self.weight_range()
        if not (lo - 1e-12 <= target <= hi + 1e-12):
            raise ConfigError(
                f"target weight {target} outside reachable range [{lo:.6g}, {hi:.6g}]")
        psi = self.weight()
        if abs(psi - target) <= tolerance:
            return psi
        up = 1.0 if target > psi else -1.0
        v = PULSE_LEVEL * up * self._sign
        edge = up * target - tolerance  # up * weight below it: short of the band
        short = self.w  # the state after n pulses
        n, far, k = 0, None, 1  # far: a pulse count known to reach the band
        limit = int(max_seconds / dt)
        while n < limit:
            # double the chunk, or bisect down to the single pulse from `short`
            k = min(k, limit - n) if far is None else max((far - n) // 2, 1)
            self.drive(v, dt, k * dt)
            new_psi = self.weight()
            if up * new_psi < edge:
                if abs(new_psi - psi) < 1e-15:
                    self.w = short
                    break  # boundary stall: every pulse of the chunk would stall
                n, psi, short, k = n + k, new_psi, self.w, 2 * k
            elif k > 1:
                far = n + k
                self.w = short
            elif (up * new_psi > up * target + tolerance
                  and abs(psi - target) <= abs(new_psi - target)):
                self.w = short  # crossed the band; the earlier side is nearer
                return psi
            else:
                return new_psi
        raise SimulationFault(f"programming to weight {target:.6g} stopped at {psi:.6g}, "
                              f"outside its tolerance {tolerance:g}")
