"""Behavioral memristor models.

Two device models are provided:

* a nonlinear dopant-drift model: resistance interpolates between R_ON and
  R_OFF with the doping depth w, the switching rate follows an odd power law
  of the device current (self-heating nonlinearity, nonzero for any nonzero
  current), and a pluggable window function suppresses motion at the state
  boundaries;
* a threshold (voltage-controlled) model with a true sub-threshold dead zone
  and polynomial rate law above each threshold.

State is a single scalar per device.  This module holds the device constants,
the rate law and the single-device sine sweep of the hysteresis experiment;
devices wired into a synapse are integrated branch by branch through
`synapse.SynapseAssembly` (kernels in `_kernels`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .errors import ConfigError, SimulationFault


@dataclass(frozen=True)
class WindowSpec:
    """Boundary window selection; value lies in [0, j] for w in [0, D]."""

    kind: str = "zha"
    p: int = 4
    j: float = 1.0

    KINDS = ("zha", "joglekar", "prodromakis", "biolek", "strukov", "none")

    def validate(self):
        if self.kind not in self.KINDS:
            raise ConfigError(
                f"unknown window kind {self.kind!r}; expected one of {', '.join(self.KINDS)}")
        if not (isinstance(self.p, int) and self.p >= 1):
            raise ConfigError("window p must be an integer >= 1")
        if not (0.0 < self.j <= 1.0):
            raise ConfigError("window j must satisfy 0 < j <= 1")
        return self

    @property
    def code(self) -> int:
        try:
            return self.KINDS.index(self.kind)
        except ValueError:
            raise ConfigError(
                f"unknown window kind {self.kind!r}; expected one of {', '.join(self.KINDS)}") from None


@dataclass(frozen=True)
class MemristorParams:
    """Constants of the dopant-drift device."""

    r_on: float = 100.0        # ohm
    r_off: float = 16000.0     # ohm
    d: float = 1e-8            # film thickness, m
    mu_v: float = 1e-14        # dopant mobility, m^2 s^-1 V^-1
    a0: float = 40.0           # drive amplitude, A
    i0: float = 1e-3           # reference current, A
    q: int = 3                 # positive integer exponent (rate ~ i^(2q-1))
    window: WindowSpec = field(default_factory=WindowSpec)

    def validate(self):
        if not (0.0 < self.r_on < self.r_off):
            raise ConfigError("0 < r_on < r_off")
        if self.d <= 0.0:
            raise ConfigError("d > 0")
        if self.mu_v <= 0.0:
            raise ConfigError("mu_v > 0")
        if self.a0 <= 0.0:
            raise ConfigError("a0 > 0")
        if self.i0 <= 0.0:
            raise ConfigError("i0 > 0")
        if not (isinstance(self.q, int) and self.q >= 1):
            raise ConfigError("q must be an integer >= 1")
        self.window.validate()
        return self

    @property
    def state_range(self) -> tuple[float, float]:
        return 0.0, self.d


@dataclass(frozen=True)
class VteamParams:
    """Constants of the threshold (voltage-controlled) device.

    Sign convention of the rate law: k_on < 0 < k_off, v_on < 0 < v_off;
    voltages at or below v_on move w toward w_on (the low-resistance bound),
    voltages at or above v_off move it toward w_off.
    """

    v_on: float = -0.7         # V
    v_off: float = 0.7         # V
    k_on: float = -1e-7        # m/s
    k_off: float = 1e-7        # m/s
    alpha_on: int = 3
    alpha_off: int = 3
    w_on: float = 0.0          # m
    w_off: float = 3e-9        # m
    r_on: float = 1000.0       # ohm
    r_off: float = 8000.0      # ohm
    window: WindowSpec = field(default_factory=lambda: WindowSpec(kind="none", p=1, j=1.0))

    def validate(self):
        if not (self.v_on < 0.0 < self.v_off):
            raise ConfigError("v_on < 0 < v_off")
        if not (self.k_on < 0.0 < self.k_off):
            raise ConfigError("k_on < 0 < k_off")
        if not (self.w_on < self.w_off):
            raise ConfigError("w_on < w_off")
        if not (0.0 < self.r_on < self.r_off):
            raise ConfigError("0 < r_on < r_off")
        self.window.validate()
        return self

    @property
    def state_range(self) -> tuple[float, float]:
        return self.w_on, self.w_off


@dataclass(frozen=True)
class MemristorState:
    """Doping depth plus wiring orientation.

    orientation maps the terminal current direction to the sign of dw/dt:
    +1 means positive terminal current raises w.
    """

    w: float
    orientation: int = 1

    def validated(self, d: float) -> "MemristorState":
        if not (0.0 <= self.w <= d):
            raise ConfigError(f"state w={self.w} outside [0, {d}]")
        if self.orientation not in (-1, 1):
            raise ConfigError("orientation must be +1 or -1")
        return self


def memristance(params: MemristorParams, state: MemristorState) -> float:
    """Total device resistance R_ON*(w/D) + R_OFF*(1 - w/D)."""
    x = state.w / params.d
    return params.r_on * x + params.r_off * (1.0 - x)


def joule_g(params: MemristorParams, i: float) -> float:
    """Self-heating drive a0*(i/i0)^(2q-1); odd, continuous through i=0."""
    return K.joule_current(params.a0, params.i0, params.q, i)


def window_value(spec: WindowSpec, w: float, d: float, i: float) -> float:
    """Window factor for a device at depth w being driven by current i."""
    return K.window_factor(spec.code, spec.p, spec.j, w / d, i)


def dwdt(params: MemristorParams, state: MemristorState, i: float) -> float:
    """Switching rate mu_v*(R_ON/D)*g(i_dev)*f(w), where the wiring
    orientation maps the terminal current into the device frame."""
    i_dev = state.orientation * i
    return K.dopant_rate(
        state.w, i_dev, params.r_on, params.d, params.mu_v,
        params.a0, params.i0, params.q,
        params.window.code, params.window.p, params.window.j)


def _check_drive(v: float, dt: float):
    if not math.isfinite(v):
        raise SimulationFault(f"non-finite drive voltage {v!r}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise SimulationFault(f"bad timestep {dt!r}")


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
    _check_drive(drive.amplitude, dt)
    if sample_every < 1 or int(sample_every) != sample_every:
        raise ConfigError("sample_every must be a positive integer")
    n_steps = int(round(duration / dt))
    n_samples = n_steps // sample_every + 1
    t = np.empty(n_samples)
    v = np.empty(n_samples)
    i = np.empty(n_samples)
    w = np.empty(n_samples)
    r = np.empty(n_samples)
    if isinstance(params, VteamParams):
        count = K.vteam_sine_sweep(
            state.w, float(state.orientation), drive.amplitude, drive.freq,
            duration, dt, sample_every,
            params.v_on, params.v_off, params.k_on, params.k_off,
            float(params.alpha_on), float(params.alpha_off),
            params.w_on, params.w_off, params.r_on, params.r_off,
            params.window.code, params.window.p, params.window.j,
            t, v, i, w, r)
    else:
        count = K.dopant_sine_sweep(
            state.w, float(state.orientation), drive.amplitude, drive.freq,
            duration, dt, sample_every,
            params.r_on, params.r_off, params.d, params.mu_v,
            params.a0, params.i0, params.q,
            params.window.code, params.window.p, params.window.j,
            t, v, i, w, r)
    if not np.all(np.isfinite(w[:count])):
        raise SimulationFault("non-finite state during sweep")
    return SweepSeries(t[:count], v[:count], i[:count], w[:count], r[:count])
