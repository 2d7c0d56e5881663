"""Behavioral memristor models.

Two device models are provided:

* a nonlinear dopant-drift model: resistance interpolates between R_ON and
  R_OFF with the doping depth w, the switching rate follows an odd power law
  of the device current (self-heating nonlinearity, nonzero for any nonzero
  current), and a pluggable window function suppresses motion at the state
  boundaries;
* a threshold (voltage-controlled) model with a true sub-threshold dead zone
  and polynomial rate law above each threshold.

State is a single scalar per device.  This module holds the device constants
and the single-device sine sweep of the hysteresis experiment, and decides
the model once: each constants class states its synapse wiring, corner
states and kernels, and builds its rate law (`_kernels.dopant_law` /
`vteam_law`) once per distinct set of constant values.  That one law is
what `dwdt`, the sine sweep, the resistance readout and the branch
integrators of `synapse.SynapseAssembly` all evaluate.
"""
from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field

from . import _kernels as K
from .errors import ConfigError, SimulationFault
from .params import EXPONENT, POSITIVE, Params, key, one_of


@dataclass(frozen=True)
class WindowSpec(Params):
    """Boundary window selection; value lies in [0, j] for w in [0, D]."""

    KINDS = K.WINDOW_KINDS

    kind: str = key("zha", one_of(*KINDS))
    p: int = key(4, EXPONENT)
    j: float = key(1.0, (lambda j: 0.0 < j <= 1.0, "0 < {} <= 1"))


@functools.lru_cache(maxsize=16)
def _law(params):
    """params.build_law(), once per distinct set of constant values: equal
    params (frozen, so hashed by value) share one law object.  Building a law
    picks its window and makes its closures, and `dwdt` and every synapse a
    run builds read `params.law`, so this saves building it at each."""
    return params.build_law()


@dataclass(frozen=True)
class MemristorParams(Params):
    """Constants of the dopant-drift device."""

    # (o1, o2): M1, M2 wiring under which a positive A->B voltage raises the
    # excitatory weight.  The inhibitory bridge inverts each device, and
    # (-o1, -o2) is this pair swapped, so it is held as its excitatory twin
    # (see synapse.py) and only this pair is integrated.
    ORIENTATIONS = (1.0, -1.0)

    r_on: float = 100.0                 # ohm
    r_off: float = 16000.0              # ohm
    d: float = key(1e-8, POSITIVE)      # film thickness, m
    mu_v: float = key(1e-14, POSITIVE)  # dopant mobility, m^2 s^-1 V^-1
    a0: float = key(40.0, POSITIVE)     # drive amplitude, A
    i0: float = key(1e-3, POSITIVE)     # reference current, A
    q: int = key(3, EXPONENT)           # rate ~ i^(2q-1)
    window: WindowSpec = field(default_factory=WindowSpec)

    def validate(self, prefix: str = ""):
        if not (0.0 < self.r_on < self.r_off):
            raise ConfigError("0 < r_on < r_off")
        super().validate(prefix)
        self.window.validate(prefix + "window.")
        return self

    @property
    def state_range(self) -> tuple[float, float]:
        return 0.0, self.d

    @property
    def corner_states(self) -> tuple[float, float]:
        """(w at R_OFF, w at R_ON)."""
        return 0.0, self.d

    def build_law(self) -> K.Law:
        return K.dopant_law(self.r_on, self.r_off, self.d, self.mu_v, self.a0, self.i0,
                            self.q, self.window.kind, self.window.p, self.window.j)

    law = property(_law)

    # looked up at each call, so a patched or wrapped kernel is the one that runs
    branch_rk4 = property(lambda self: K.dopant_branch_rk4)
    sine_sweep = property(lambda self: K.dopant_sine_sweep)


@dataclass(frozen=True)
class VteamParams(Params):
    """Constants of the threshold (voltage-controlled) device.

    Sign convention of the rate law: k_on < 0 < k_off, v_on < 0 < v_off;
    voltages at or below v_on move w toward w_on (the low-resistance bound),
    voltages at or above v_off move it toward w_off.
    """

    # the dopant pair negated: in the voltage-controlled convention v <= v_on sets
    ORIENTATIONS = (-1.0, 1.0)

    v_on: float = -0.7         # V
    v_off: float = 0.7         # V
    k_on: float = -1e-7        # m/s
    k_off: float = 1e-7        # m/s
    alpha_on: int = key(3, EXPONENT)
    alpha_off: int = key(3, EXPONENT)
    w_on: float = 0.0          # m
    w_off: float = 3e-9        # m
    r_on: float = 1000.0       # ohm
    r_off: float = 8000.0      # ohm
    window: WindowSpec = field(default_factory=lambda: WindowSpec(kind="none", p=1, j=1.0))

    def validate(self, prefix: str = ""):
        if not (self.v_on < 0.0 < self.v_off):
            raise ConfigError("v_on < 0 < v_off")
        if not (self.k_on < 0.0 < self.k_off):
            raise ConfigError("k_on < 0 < k_off")
        if not (self.w_on < self.w_off):
            raise ConfigError("w_on < w_off")
        if not (0.0 < self.r_on < self.r_off):
            raise ConfigError("0 < r_on < r_off")
        super().validate(prefix)
        self.window.validate(prefix + "window.")
        return self

    @property
    def state_range(self) -> tuple[float, float]:
        return self.w_on, self.w_off

    @property
    def corner_states(self) -> tuple[float, float]:
        """(w at R_OFF, w at R_ON): w maps to R the other way round."""
        return self.w_off, self.w_on

    def build_law(self) -> K.Law:
        return K.vteam_law(self.v_on, self.v_off, self.k_on, self.k_off, float(self.alpha_on),
                           float(self.alpha_off), self.w_on, self.w_off, self.r_on, self.r_off,
                           K.window(self.window.kind, self.window.p, self.window.j))

    law = property(_law)

    branch_rk4 = property(lambda self: K.vteam_branch_rk4)
    sine_sweep = property(lambda self: K.vteam_sine_sweep)


@dataclass(frozen=True)
class MemristorState:
    """Doping depth plus wiring orientation.

    orientation maps the terminal current direction to the sign of dw/dt:
    +1 means positive terminal current raises w.
    """

    w: float
    orientation: int = 1


def dwdt(params: MemristorParams, state: MemristorState, i: float) -> float:
    """Switching rate mu_v*(R_ON/D)*g(i_dev)*f(w), where the wiring
    orientation maps the terminal current into the device frame."""
    try:
        rate = params.law.rate(state.w, state.orientation * i)
    except OverflowError:
        raise SimulationFault(f"device rate overflow at {i!r} A") from None
    if not math.isfinite(rate):  # a product of finite constants can overflow
        raise SimulationFault(f"non-finite device rate at {i!r} A")
    return rate


@dataclass(frozen=True)
class SineDrive:
    """v(t) = amplitude * sin(2*pi*freq*t)."""

    amplitude: float
    freq: float  # Hz


@dataclass
class SweepSeries:
    """Sampled (t, v, i, w, R) series from a drive sweep, one `array('d')`
    per column."""

    t: array
    v: array
    i: array
    w: array
    r: array

    def rows(self):
        """The rows as tuples of Python floats, read one at a time, so that
        no whole column is held as a list."""
        return zip(self.t, self.v, self.i, self.w, self.r)

    HEADER = "t,v,i,w,R"


def hysteresis_sweep(params, state: MemristorState, drive: SineDrive,
                     duration: float, dt: float, sample_every: int) -> SweepSeries:
    """Integrate one device under a sinusoidal drive, sampling it every
    `sample_every` * dt (`hysteresis.sample_every` * `clock.dt`).

    The sweep is one call of the one-state driver `_kernels.segment`, the
    one an on-manifold bridge drive takes: error-controlled Dormand-Prince
    5(4) steps with the drive evaluated at the stage times, at a tenth of
    its tolerance, and with dt/1024 as a failure guard, not a step floor
    (`_kernels.sine_sweep`).  The steps do not depend on `sample_every`:
    each sample is read from the continuous extension of the step that
    spans it.  A step that turns non-finite, or more accepted steps than
    max(duration/dt, `_kernels.SWEEP_STEPS`), ends the sweep in a
    SimulationFault.  Results are deterministic for a given
    configuration.
    """
    if not math.isfinite(drive.amplitude):
        raise SimulationFault(f"non-finite drive voltage {drive.amplitude!r}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise SimulationFault(f"bad timestep {dt!r}")
    if sample_every < 1 or int(sample_every) != sample_every:
        raise ConfigError("sample_every must be a positive integer")
    n_steps = int(round(duration / dt))
    n_samples = n_steps // sample_every + 1
    t, v, i, w, r = cols = [array("d", [0.0]) * n_samples for _ in range(5)]
    try:
        count = params.sine_sweep(state.w, float(state.orientation), drive.amplitude,
                                  drive.freq, duration, dt, sample_every,
                                  params.law, *params.state_range, t, v, i, w, r)
    except OverflowError:
        raise SimulationFault("device rate overflow during sweep") from None
    for c in cols:
        del c[count:]
    if not all(map(math.isfinite, w)):
        raise SimulationFault("non-finite state during sweep")
    return SweepSeries(*cols)
