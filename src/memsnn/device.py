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
what `dwdt`, the sine sweep, the resistance readout and the branch RK4 step
of `synapse.SynapseAssembly` all evaluate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

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
    params (frozen, so hashed by value) share one law object."""
    return params.build_law()


@dataclass(frozen=True)
class MemristorParams(Params):
    """Constants of the dopant-drift device."""

    # M1..M4 wiring that makes a positive A->B voltage raise the excitatory
    # weight; mirrored (o3 = o2, o4 = o1), which SynapseAssembly._integrate needs
    EXCITATORY_ORIENTATIONS = (1.0, -1.0, -1.0, 1.0)

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
                            self.q, K.window(self.window.kind, self.window.p, self.window.j))

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

    # the dopant table negated: in the voltage-controlled convention v <= v_on sets
    EXCITATORY_ORIENTATIONS = (-1.0, 1.0, 1.0, -1.0)

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
    """Sampled (t, v, i, w, R) series from a drive sweep."""

    t: np.ndarray
    v: np.ndarray
    i: np.ndarray
    w: np.ndarray
    r: np.ndarray

    def rows(self):
        return zip(self.t, self.v, self.i, self.w, self.r)

    HEADER = "t,v,i,w,R"


def hysteresis_sweep(params, state: MemristorState, drive: SineDrive,
                     duration: float, dt: float, sample_every: int = 10) -> SweepSeries:
    """Integrate one device under a sinusoidal drive, sampling every
    `sample_every` steps (so dt divides the output interval exactly).

    The drive is evaluated at the RK4 stage times; results are deterministic
    for a given configuration.
    """
    if not math.isfinite(drive.amplitude):
        raise SimulationFault(f"non-finite drive voltage {drive.amplitude!r}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise SimulationFault(f"bad timestep {dt!r}")
    if sample_every < 1 or int(sample_every) != sample_every:
        raise ConfigError("sample_every must be a positive integer")
    n_steps = int(round(duration / dt))
    n_samples = n_steps // sample_every + 1
    t = np.empty(n_samples)
    v = np.empty(n_samples)
    i = np.empty(n_samples)
    w = np.empty(n_samples)
    r = np.empty(n_samples)
    try:
        count = params.sine_sweep(state.w, float(state.orientation), drive.amplitude,
                                  drive.freq, duration, dt, sample_every,
                                  params.law, *params.state_range, t, v, i, w, r)
    except OverflowError:
        raise SimulationFault("device rate overflow during sweep") from None
    if not np.all(np.isfinite(w[:count])):
        raise SimulationFault("non-finite state during sweep")
    return SweepSeries(t[:count], v[:count], i[:count], w[:count], r[:count])
