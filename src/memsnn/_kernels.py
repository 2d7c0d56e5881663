"""Device rate laws and their RK4 integration kernels, in plain Python.

Each device model has one rate law, built once from its constants by
`dopant_law` or `vteam_law` with the boundary window picked by `window`.  A
`Law` holds the law's four uses with the constants bound: the resistance
R(w), the rate in the device's own frame, the rate under a voltage across
the device alone, and the two rates of a bridge branch whose devices share
one current.  Every kernel below takes the law, not its constants, so the
same `branch_rk4` step and the same `sine_sweep` serve both models.

Two drivers integrate a branch under constant drive with `branch_rk4`: the
fixed-step `branch_step`, the reference that takes substeps of at most dt,
and the error-controlled `branch_segment` used by the network engine, which
uses RK4 step doubling and steps no shorter than dt.  `sine_sweep` drives a
single device for the hysteresis experiment.  All state is passed as
scalars / preallocated float64 arrays.
"""
import math
from typing import Callable, NamedTuple

from .errors import ConfigError

# The kernels are never compiled; the constant stays for tools that record
# which backend ran (bench/worker.py reads it).
HAVE_NUMBA = False

WINDOW_KINDS = ("zha", "joglekar", "prodromakis", "biolek", "strukov", "none")


def window(kind, p, j):
    """The boundary window of `kind` as one function f(x, direction), valued
    in [0, j] on the normalized state x = w/D, which the caller clamps to
    [0, 1].  `direction` is the signed drive moving the state: > 0 means x
    is being pushed up.  Only the direction-aware kinds (zha, biolek) use it.
    """
    n = 2 * p
    if kind == "zha":
        def f(x, direction):
            t = x if direction > 0.0 else x - 1.0
            return j * (1.0 - (0.25 * t * t + 0.75) ** p)
    elif kind == "joglekar":
        def f(x, direction):
            t = 2.0 * x - 1.0
            return j * (1.0 - t ** n)
    elif kind == "prodromakis":
        def f(x, direction):
            t = (x - 0.5) * (x - 0.5) + 0.75
            return j * (1.0 - t ** p)
    elif kind == "biolek":
        def f(x, direction):
            t = x if direction > 0.0 else x - 1.0
            return j * (1.0 - t ** n)
    elif kind == "strukov":  # parabola, zero at both bounds, max j/4 at midpoint
        def f(x, direction):
            return j * x * (1.0 - x)
    elif kind == "none":
        def f(x, direction):
            return j
    else:
        raise ConfigError(
            f"unknown window kind {kind!r}; expected one of {', '.join(WINDOW_KINDS)}")
    return f


def _unit_state(lo, span):
    """The state normalized to x = (w - lo) / span, clamped to [0, 1]."""
    def clamped(w):
        x = (w - lo) / span
        if x < 0.0:
            return 0.0
        if x > 1.0:
            return 1.0
        return x
    return clamped


class Law(NamedTuple):
    """One device model's rate law with its constants bound."""

    resistance: Callable  # R(w)
    rate: Callable        # dw/dt at w under the device-frame drive
    sweep_rate: Callable  # dw/dt at w under voltage v across the device alone
    branch_rates: Callable  # (dw1/dt, dw2/dt) of a branch (see branch_rk4)


def dopant_law(r_on, r_off, d, mu_v, a0, i0, q, win):
    """The dopant-drift device: dw/dt = mu_v*(R_ON/D) * g(i) * f(w/D, i),
    where g(i) = a0*(i/i0)^(2q-1) is the odd Joule-heating power law,
    nonzero for any nonzero current, and R interpolates between R_OFF at
    w = 0 and R_ON at w = D.  The drive of `rate` is the device current."""
    k = mu_v * (r_on / d)
    n = 2 * q - 1
    clamped = _unit_state(0.0, d)

    def drift(x, i):
        s = i / i0
        m = abs(s) ** n
        return k * (a0 * m if s >= 0.0 else -(a0 * m)) * win(x, i)

    def resistance(w):
        x = clamped(w)
        return r_on * x + r_off * (1.0 - x)

    def rate(w, i):
        return drift(clamped(w), i)

    def sweep_rate(w, v):
        x = clamped(w)
        return drift(x, v / (r_on * x + r_off * (1.0 - x)))

    def branch_rates(w1, w2, o1, o2, r_series, v):
        x1 = clamped(w1)
        x2 = clamped(w2)
        # R(x1) + R(x2) + r_series, written out: this runs 4 times per RK4 step
        i = v / ((r_on * x1 + r_off * (1.0 - x1)) + (r_on * x2 + r_off * (1.0 - x2))
                 + r_series)
        return drift(x1, o1 * i), drift(x2, o2 * i)

    return Law(resistance, rate, sweep_rate, branch_rates)


def vteam_law(v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, win):
    """The threshold (voltage-controlled) device: a polynomial rate beyond
    each threshold and a dead zone between them that contributes exactly
    zero; R interpolates between R_ON at w_on and R_OFF at w_off.  The drive
    of `rate` is the device voltage.  In a branch, the shared current splits
    the voltage across both devices by their resistive shares."""
    r_span = r_off - r_on
    clamped = _unit_state(w_on, w_off - w_on)

    def drift(x, v):
        if v <= v_on:
            r = k_on * ((v / v_on) - 1.0) ** a_on
        elif v >= v_off:
            r = k_off * ((v / v_off) - 1.0) ** a_off
        else:
            return 0.0
        return r * win(x, r)

    def resistance(w):
        return r_on + r_span * clamped(w)

    def rate(w, v):
        return drift(clamped(w), v)

    def branch_rates(w1, w2, o1, o2, r_series, v):
        x1 = clamped(w1)
        x2 = clamped(w2)
        m1 = r_on + r_span * x1
        m2 = r_on + r_span * x2
        i = v / (m1 + m2 + r_series)
        return drift(x1, o1 * i * m1), drift(x2, o2 * i * m2)

    return Law(resistance, rate, rate, branch_rates)


# Local error tolerance of the segment integrators, as a fraction of the
# device state range.
SEGMENT_TOL = 1e-12


def _clamp(x, lo, hi):
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def _step_error(w, f, c, lo, hi):
    """Local error estimate for one device over a doubled step from w.

    f is the unclamped full step, c the unclamped result of the two half
    steps.  A step that carries the device from inside [lo, hi] onto or past
    a bound, or from one bound onto the other, counts as an error of the
    whole range, so landing on a bound is resolved down to the reference
    step dt.  Otherwise a device that starts on a bound is judged by the
    clamped results, so a device held there by the drive does not force
    short steps.
    """
    if lo < w < hi:
        if not (lo < c < hi):
            return hi - lo
        return abs(c - f) / 15.0
    c = _clamp(c, lo, hi)
    if c != w and not (lo < c < hi):
        return hi - lo
    return abs(c - _clamp(f, lo, hi)) / 15.0


def _step_factor(err, tol):
    """Step-size multiplier for RK4 step doubling.

    A step h is compared with two steps h/2; their difference over 15 is the
    Richardson estimate of the local error of the half-step result (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.4), which is kept when the
    estimate is within tol (see _step_error for the state bounds).  The step
    never shrinks below the reference step dt, and a step of at most dt is
    taken without an estimate and always accepted, so a segment never needs
    more accepted steps than fixed-step RK4 at dt and always terminates.
    """
    if err == 0.0:
        return 4.0
    return min(4.0, max(0.2, 0.9 * (tol / err) ** 0.2))


def branch_step(rk4, w1, w2, lo, hi, duration, dt, *args):
    """Advance one bridge branch (two devices + series resistor) under
    constant drive for `duration` with RK4 substeps <= dt.

    rk4 is `branch_rk4` under one of its names, called as rk4(w1, w2, h,
    *args) with args = (o1, o2, r_series, v, rates); both states are
    clamped to the state range [lo, hi] after every substep.
    """
    n = int(math.ceil(duration / dt - 1e-9))
    if n < 1:
        n = 1
    h = duration / n
    for _ in range(n):
        w1, w2 = rk4(w1, w2, h, *args)
        w1 = _clamp(w1, lo, hi)
        w2 = _clamp(w2, lo, hi)
    return w1, w2


def branch_segment(rk4, w1, w2, lo, hi, duration, dt, *args):
    """Error-controlled counterpart of branch_step (see _step_factor).

    Returns NaN states if the error estimate turns non-finite."""
    tol = SEGMENT_TOL * (hi - lo)
    t = 0.0
    h = duration
    while True:
        last = h >= duration - t
        if last:
            h = duration - t
        if h <= dt * (1.0 + 1e-9):
            w1, w2 = rk4(w1, w2, h, *args)
            grow = 2.0  # no estimate at the floor: probe a longer step next
        else:
            f1, f2 = rk4(w1, w2, h, *args)
            c1, c2 = rk4(w1, w2, 0.5 * h, *args)
            c1, c2 = rk4(_clamp(c1, lo, hi), _clamp(c2, lo, hi), 0.5 * h, *args)
            err = max(_step_error(w1, f1, c1, lo, hi),
                      _step_error(w2, f2, c2, lo, hi))
            if not math.isfinite(err):
                return math.nan, math.nan
            grow = _step_factor(err, tol)
            if err > tol:
                h = max(h * grow, dt)
                continue
            w1, w2 = c1, c2
        w1 = _clamp(w1, lo, hi)
        w2 = _clamp(w2, lo, hi)
        if last:
            return w1, w2
        t += h
        h = max(h * grow, dt)


def branch_rk4(w1, w2, h, o1, o2, r_series, v, rates):
    """One unclamped RK4 step of length h for a bridge branch: two devices
    of orientations o1, o2 in series with r_series under voltage v, whose
    rates are a law's `branch_rates`."""
    a1, b1 = rates(w1, w2, o1, o2, r_series, v)
    a2, b2 = rates(w1 + 0.5 * h * a1, w2 + 0.5 * h * b1, o1, o2, r_series, v)
    a3, b3 = rates(w1 + 0.5 * h * a2, w2 + 0.5 * h * b2, o1, o2, r_series, v)
    a4, b4 = rates(w1 + h * a3, w2 + h * b3, o1, o2, r_series, v)
    return (w1 + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
            w2 + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)


def sine_sweep(w0, orient, amp, freq, duration, dt, sample_every, law, lo, hi,
               t_out, v_out, i_out, w_out, r_out):
    """Drive one device of orientation `orient` (+-1) with
    amp*sin(2*pi*freq*t) and record (t, v, i, w, R) every `sample_every`
    steps; the state is clamped to [lo, hi] after each step.  The drive is
    evaluated at the RK4 stage times, so the integration is full fourth
    order.

    Returns the number of samples written.
    """
    resistance, rate = law.resistance, law.sweep_rate
    two_pi_f = 2.0 * math.pi * freq
    drive = orient * amp
    n = int(round(duration / dt))
    w = w0
    idx = 0
    for k in range(n + 1):
        t = k * dt
        if k % sample_every == 0:
            r = resistance(w)
            v = amp * math.sin(two_pi_f * t)
            t_out[idx] = t
            v_out[idx] = v
            i_out[idx] = v / r
            w_out[idx] = w
            r_out[idx] = r
            idx += 1
        if k == n:
            break
        h = dt
        v0 = drive * math.sin(two_pi_f * t)
        vh = drive * math.sin(two_pi_f * (t + 0.5 * h))
        v1 = drive * math.sin(two_pi_f * (t + h))
        k1 = rate(w, v0)
        k2 = rate(w + 0.5 * h * k1, vh)
        k3 = rate(w + 0.5 * h * k2, vh)
        k4 = rate(w + h * k3, v1)
        w += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if w < lo:
            w = lo
        elif w > hi:
            w = hi
    return idx


# One kernel per name for each model: bench/tracer.py wraps these names to
# count RK4 and sweep steps per model, and the device classes look them up
# here at each call, so a wrapped or patched kernel is the one that runs.
dopant_branch_rk4 = vteam_branch_rk4 = branch_rk4
dopant_sine_sweep = vteam_sine_sweep = sine_sweep
