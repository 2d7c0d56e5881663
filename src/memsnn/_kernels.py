"""Device rate laws and their integration kernels, in plain Python.

Each device model has one rate law, built once from its constants by
`dopant_law` or `vteam_law` with the boundary window picked by `window`.  A
`Law` holds the law's uses with the constants bound: the resistance R(w),
the rate in the device's own frame, the two rates of a bridge branch whose
devices share one current, a builder of the one-state rate (w, t) -> dw/dt
under a sine voltage across the device alone, built once per sweep, and,
for the dopant law only, what a branch on its manifold w1 + w2 = D needs:
the speed |amp| of a constant drive and the two window-only `span_rates`
of scaled time.  Each law states its switching term once (the dopant
law's signed Joule factor, VTEAM's threshold polynomial) and its rates call
it, but for the dopant sweep rate, which runs at every stage of a sweep and
is written out whole.  The VTEAM branch rates keep their clamps and
resistances inline, and the default window's span rates are written out.
Every kernel below takes the law, not its constants, so the same
`branch_rk4` step and the same `sine_sweep` serve both models.

Two error-controlled drivers take embedded Dormand-Prince 5(4) steps no
shorter than their step floor and serve every production path; they share
one tableau, step-size controller and non-finite rule.  `segment`
integrates one state under any one-state rate: `SynapseAssembly.frame`
calls it once per span, a run of constant drives of one sign on a dopant
branch on its manifold, for the device of orientation +1 in the scaled time
s = |amp|*t where the drives join (floor S*dt/T for a span of scaled length
S and duration T), and `sine_sweep` once per hysteresis sweep, the drive
evaluated at each stage's time, at a tenth of the tolerance and with the
failure guard dt/1024 as its floor.  The sweep's rows are not step ends:
each is read from the continuous extension of the step that spans it.
`branch_segment` integrates both devices of any other branch under one
constant drive (floor dt).  The fixed-step `branch_step` takes `branch_rk4`
substeps of at most dt on both devices and is kept as the tests' reference.
All state is passed as scalars / preallocated `array('d')` buffers.
"""
import math
from typing import Callable, NamedTuple

from .errors import ConfigError, SimulationFault

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


def span_rates(kind, p, j, d):
    """The (down, up) rates (w, t) -> dw/ds of a dopant device on its
    manifold in the scaled time s = |amp|*t (see Law): the
    window of `kind` at the clamped state x = w/d in the drive's direction,
    negated for a drive pushing the state down; t unused.  Written out for
    the default zha window, since they run at every stage of a default
    bridge's spans: composing `window` costs one more call per stage, about
    4 % of a 300-epoch pattern run."""
    if kind == "zha":
        def up(w, t):
            x = w / d
            x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
            return j * (1.0 - (0.25 * x * x + 0.75) ** p)

        def down(w, t):
            x = w / d
            x = (0.0 if x < 0.0 else 1.0 if x > 1.0 else x) - 1.0
            return -(j * (1.0 - (0.25 * x * x + 0.75) ** p))
    else:
        win = window(kind, p, j)

        def up(w, t):
            x = w / d
            return win(0.0 if x < 0.0 else 1.0 if x > 1.0 else x, 1.0)

        def down(w, t):
            x = w / d
            return -win(0.0 if x < 0.0 else 1.0 if x > 1.0 else x, -1.0)
    return down, up


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
    # sweep_rate(drive, omega) is (w, t) -> dw/dt under the voltage
    # drive*sin(omega*t) across the device alone (see sine_sweep)
    sweep_rate: Callable
    # (dw1/dt, dw2/dt) of a branch (see branch_rk4): `rate` at each device's
    # drive, the current o*i (dopant) or the voltage o*i*R(w) (VTEAM)
    branch_rates: Callable
    # for a law whose branch conserves w1 + w2, where a device's rate under
    # constant drive v is +-|amp|*f(w, direction), |amp| constant: that ODE
    # is autonomous, so in the scaled time s = |amp|*t a run of drives of
    # one sign joins into one span.  manifold_speed(r_series, v) is the
    # speed |amp|, and span_rates the (down, up) rates of `span_rates`;
    # both None for a law whose branch does not conserve w1 + w2
    manifold_speed: Callable | None = None
    span_rates: tuple | None = None


def dopant_law(r_on, r_off, d, mu_v, a0, i0, q, window_kind, window_p, window_j):
    """The dopant-drift device: dw/dt = mu_v*(R_ON/D) * g(i) * f(w/D, i),
    where g(i) = a0*(i/i0)^(2q-1) is the odd Joule-heating power law,
    nonzero for any nonzero current, f is the `window` of the window_*
    arguments, and R interpolates between R_OFF at w = 0 and R_ON at w = D.
    The drive of `rate` is the device current.

    `joule` states the signed prefactor mu_v*(R_ON/D)*g(i) once; `rate`,
    `branch_rates` (`rate` at each device current: no default experiment
    steps a dopant pair off its manifold) and `manifold_speed` (its
    magnitude, taken once per piece) are built from it.  The sweep rate
    writes it out again with the clamp and resistance, since it runs at
    every stage of a sweep (26 702 evaluations in the two default sweeps):
    calling `joule` there cost the device-sweeps benchmark 3 % (lost 9 of
    10 alternating pairs at 40 s), and composing the whole rate as
    rate(w, v/resistance(w)) cost the two sweeps another 23 %."""
    win = window(window_kind, window_p, window_j)
    k = mu_v * (r_on / d)
    n = 2 * q - 1
    clamped = _unit_state(0.0, d)

    def joule(i):
        s = i / i0
        p = k * (a0 * abs(s) ** n)
        return p if s >= 0.0 else -p

    def resistance(w):  # clamped(w) written out: every weight read takes two
        x = w / d
        x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        return r_on * x + r_off * (1.0 - x)

    def rate(w, i):
        return joule(i) * win(clamped(w), i)

    def sweep_rate(drive, omega):
        sin = math.sin

        def swept(w, t):
            # rate(w, v / resistance(w)) at v = drive*sin(omega*t), with
            # `joule` written out (see above)
            x = w / d
            if x < 0.0:
                x = 0.0
            elif x > 1.0:
                x = 1.0
            i = drive * sin(omega * t) / (r_on * x + r_off * (1.0 - x))
            s = i / i0
            p = k * (a0 * abs(s) ** n)
            return (p if s >= 0.0 else -p) * win(x, i)

        return swept

    def branch_rates(w1, w2, o1, o2, r_series, v):
        i = v / (resistance(w1) + resistance(w2) + r_series)
        return rate(w1, o1 * i), rate(w2, o2 * i)

    r_branch = r_on + r_off

    def manifold_speed(r_series, v):
        # on the manifold w1 + w2 = D the two devices' resistances sum to
        # r_on + r_off, so the branch current, and with it the Joule power,
        # is constant under a constant drive and only the window varies:
        # dw/dt = +-speed * win(w/D, o*i), signed by the device current o*i
        return abs(joule(v / (r_branch + r_series)))

    return Law(resistance, rate, sweep_rate, branch_rates, manifold_speed,
               span_rates(window_kind, window_p, window_j, d))


def vteam_law(v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, win):
    """The threshold (voltage-controlled) device: a polynomial rate beyond
    each threshold and a dead zone between them that contributes exactly
    zero; R interpolates between R_ON at w_on and R_OFF at w_off.  The drive
    of `rate` is the device voltage.  In a branch, the shared current splits
    the voltage across both devices by their resistive shares.

    `drift` states the threshold law once; `rate`, the sweep rate and
    `branch_rates` call it.  `branch_rates` keeps its clamps and
    resistances inline, since it runs at every stage of a VTEAM branch:
    composed from `rate` and `resistance` an evaluation took 963 ns against
    656 ns (+47 %, stock VTEAM variant under 4 V, median of 5 processes)."""
    r_span = r_off - r_on
    w_span = w_off - w_on
    clamped = _unit_state(w_on, w_span)

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
        # drift at each device voltage o*i*R(w), with the clamps and
        # resistances inline
        x1 = (w1 - w_on) / w_span
        if x1 < 0.0:
            x1 = 0.0
        elif x1 > 1.0:
            x1 = 1.0
        x2 = (w2 - w_on) / w_span
        if x2 < 0.0:
            x2 = 0.0
        elif x2 > 1.0:
            x2 = 1.0
        m1 = r_on + r_span * x1
        m2 = r_on + r_span * x2
        i = v / (m1 + m2 + r_series)
        return drift(x1, o1 * i * m1), drift(x2, o2 * i * m2)

    def sweep_rate(drive, omega):
        return lambda w, t: rate(w, drive * math.sin(omega * t))

    return Law(resistance, rate, sweep_rate, branch_rates)


# Local error tolerance of the segment integrators, as a fraction of the
# device state range.
SEGMENT_TOL = 1e-12

# Accepted steps a sine sweep may take whatever its dt: it may take
# max(round(duration/dt), SWEEP_STEPS).  Its tolerance, not dt, sets how
# many it needs: the default sweeps take 1 520 and 2 717 at dt = 1e-5 s and
# 1 362 and 2 436 at dt = 1e-3 s, where round(duration/dt) is 200 and 2 000.
SWEEP_STEPS = 1 << 16


def _clamp(x, lo, hi):
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def _step_error(w, y5, y4, lo, hi):
    """Local error estimate for one device over one step from w.

    y5 and y4 are the step's unclamped 5th- and 4th-order solutions.  A step
    that carries the device from inside [lo, hi] onto or past a bound, or
    from one bound onto the other, counts as an error of the whole range, so
    landing on a bound is resolved down to the step floor.  Otherwise
    a device that starts on a bound is judged by the clamped solutions, so a
    device held there by the drive does not force short steps.
    """
    if lo < w < hi:
        if not (lo < y5 < hi):
            return hi - lo
        return abs(y5 - y4)
    y5 = _clamp(y5, lo, hi)
    if y5 != w and not (lo < y5 < hi):
        return hi - lo
    return abs(y5 - _clamp(y4, lo, hi))


def _step_factor(err, tol):
    """Step-size multiplier for the Dormand-Prince 5(4) pair, taken only
    where a further step follows: after a rejected step, or an accepted one
    short of the driver's end.

    The difference of the pair's 5th- and 4th-order solutions estimates the
    local error of the 4th-order one (Dormand & Prince, J. Comput. Appl.
    Math. 6(1):19-26, 1980; Hairer, Norsett & Wanner, Solving ODEs I,
    sec. II.4-II.5); the step keeps the 5th-order solution when the estimate
    is within tol (see _step_error for the state bounds).  The step never
    shrinks below the driver's floor (the reference step dt, S*dt/T for a
    span of scaled length S and duration T, or the sweep's guard dt/1024),
    and a step at the floor is taken without an estimate and always
    accepted, so a call of `branch_segment` or a span never takes more
    floor steps than fixed-step RK4 takes steps at dt over the same
    duration, and always terminates; a sweep stops at its step budget (see
    `sine_sweep`).  A step whose 5th- or 4th-order solution or second stage
    is non-finite ends either driver at once, with a NaN state: the second
    stage enters both solutions only through the clamped states of stages
    3-6.
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


def segment(w, t, t_end, h, dt, lo, hi, rate, tol=None, on_step=None):
    """Integrate dw/dt = rate(w, t) from t to t_end with error-controlled
    Dormand-Prince 5(4) steps, the first of length h at most (see
    _step_factor), clamping w to [lo, hi] after each.  The last stage of a
    step is the rate at its 5th-order solution, the next step's first stage
    (FSAL); `rate` reads only the clamped state, so clamping keeps it so.

    `dt` is the step floor: a span of `SynapseAssembly.frame` passes S*dt/T,
    in its scaled time, the sweep its guard dt/1024.  `tol` is the local
    error tolerance as a fraction of hi - lo, SEGMENT_TOL if None.  Each
    accepted step of length h from (t, w) to t_next calls
    on_step(w, y, t, t_next, h, k1, k3, k4, k5, k6, k7) with its 5th-order
    solution y, before the clamp, and its stages (k7 is None for a last
    step at the floor, which takes no estimate).

    Returns the state at t_end, from its last accepted step, which sizes no
    next step.  A step whose 5th- or 4th-order solution or second stage is
    non-finite ends the integration at once, on the floor or off it, with a
    NaN state."""
    tol = (SEGMENT_TOL if tol is None else tol) * (hi - lo)
    h_floor = dt * (1.0 + 1e-9)
    k1 = rate(w, t)
    while True:
        last = h >= t_end - t
        if last:
            h = t_end - t
        t_next = t_end if last else t + h
        k2 = rate(w + h * (0.2 * k1), t + 0.2 * h)
        k3 = rate(w + h * ((3 / 40) * k1 + (9 / 40) * k2), t + 0.3 * h)
        k4 = rate(w + h * ((44 / 45) * k1 - (56 / 15) * k2 + (32 / 9) * k3), t + 0.8 * h)
        k5 = rate(w + h * ((19372 / 6561) * k1 - (25360 / 2187) * k2
                           + (64448 / 6561) * k3 - (212 / 729) * k4), t + (8 / 9) * h)
        k6 = rate(w + h * ((9017 / 3168) * k1 - (355 / 33) * k2 + (46732 / 5247) * k3
                           + (49 / 176) * k4 - (5103 / 18656) * k5), t_next)
        y = w + h * ((35 / 384) * k1 + (500 / 1113) * k3 + (125 / 192) * k4
                     - (2187 / 6784) * k5 + (11 / 84) * k6)
        floor = h <= h_floor
        k7 = None if floor and last else rate(y, t_next)
        if floor:
            z, err = y, 0.0
        else:
            z = w + h * ((5179 / 57600) * k1 + (7571 / 16695) * k3 + (393 / 640) * k4
                         - (92097 / 339200) * k5 + (187 / 2100) * k6 + (1 / 40) * k7)
            err = _step_error(w, y, z, lo, hi)
        # k2 enters y and z only through the clamped states of stages 3-6,
        # and err clamps z from a state on a bound: each is checked itself
        if not (math.isfinite(y) and math.isfinite(z) and math.isfinite(k2)):
            return math.nan
        if err <= tol:
            if on_step is not None:
                on_step(w, y, t, t_next, h, k1, k3, k4, k5, k6, k7)
            w = _clamp(y, lo, hi)
            if last:
                return w
            t = t_next
            k1 = k7
        # no estimate at the floor: probe a longer step next
        h = max(h * (2.0 if floor else _step_factor(err, tol)), dt)


def branch_segment(w1, w2, lo, hi, duration, dt, o1, o2, r_series, v, rates):
    """Error-controlled counterpart of branch_step, with the arguments of
    branch_rk4: `segment` for two states, whose error estimate is the larger
    of the two devices', under constant drive.  Returns the pair from its
    last accepted step, which sizes no next step, or NaN states as soon as
    a step's solutions or second stages are non-finite."""
    tol = SEGMENT_TOL * (hi - lo)
    h_floor = dt * (1.0 + 1e-9)
    t = 0.0
    h = duration
    a1, b1 = rates(w1, w2, o1, o2, r_series, v)
    while True:
        last = h >= duration - t
        if last:
            h = duration - t
        a2, b2 = rates(w1 + h * (0.2 * a1), w2 + h * (0.2 * b1), o1, o2, r_series, v)
        a3, b3 = rates(w1 + h * ((3 / 40) * a1 + (9 / 40) * a2),
                       w2 + h * ((3 / 40) * b1 + (9 / 40) * b2), o1, o2, r_series, v)
        a4, b4 = rates(w1 + h * ((44 / 45) * a1 - (56 / 15) * a2 + (32 / 9) * a3),
                       w2 + h * ((44 / 45) * b1 - (56 / 15) * b2 + (32 / 9) * b3),
                       o1, o2, r_series, v)
        a5, b5 = rates(w1 + h * ((19372 / 6561) * a1 - (25360 / 2187) * a2
                                 + (64448 / 6561) * a3 - (212 / 729) * a4),
                       w2 + h * ((19372 / 6561) * b1 - (25360 / 2187) * b2
                                 + (64448 / 6561) * b3 - (212 / 729) * b4),
                       o1, o2, r_series, v)
        a6, b6 = rates(w1 + h * ((9017 / 3168) * a1 - (355 / 33) * a2 + (46732 / 5247) * a3
                                 + (49 / 176) * a4 - (5103 / 18656) * a5),
                       w2 + h * ((9017 / 3168) * b1 - (355 / 33) * b2 + (46732 / 5247) * b3
                                 + (49 / 176) * b4 - (5103 / 18656) * b5),
                       o1, o2, r_series, v)
        y1 = w1 + h * ((35 / 384) * a1 + (500 / 1113) * a3 + (125 / 192) * a4
                       - (2187 / 6784) * a5 + (11 / 84) * a6)
        y2 = w2 + h * ((35 / 384) * b1 + (500 / 1113) * b3 + (125 / 192) * b4
                       - (2187 / 6784) * b5 + (11 / 84) * b6)
        floor = h <= h_floor
        if not (floor and last):  # that step needs no estimate and has no next step
            a7, b7 = rates(y1, y2, o1, o2, r_series, v)
        if floor:
            z1, z2, e1, e2 = y1, y2, 0.0, 0.0
        else:
            z1 = w1 + h * ((5179 / 57600) * a1 + (7571 / 16695) * a3 + (393 / 640) * a4
                           - (92097 / 339200) * a5 + (187 / 2100) * a6 + (1 / 40) * a7)
            z2 = w2 + h * ((5179 / 57600) * b1 + (7571 / 16695) * b3 + (393 / 640) * b4
                           - (92097 / 339200) * b5 + (187 / 2100) * b6 + (1 / 40) * b7)
            e1 = _step_error(w1, y1, z1, lo, hi)
            e2 = _step_error(w2, y2, z2, lo, hi)
        if not (math.isfinite(y1) and math.isfinite(y2) and math.isfinite(z1)
                and math.isfinite(z2) and math.isfinite(a2) and math.isfinite(b2)):
            return math.nan, math.nan
        if e1 <= tol and e2 <= tol:
            w1 = _clamp(y1, lo, hi)
            w2 = _clamp(y2, lo, hi)
            if last:
                return w1, w2
            t += h
            a1, b1 = a7, b7
        # no estimate at the floor: probe a longer step next
        h = max(h * (2.0 if floor else _step_factor(max(e1, e2), tol)), dt)


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
    amp*sin(2*pi*freq*t) and record (t, v, i, w, R) at every
    `sample_every`-th multiple of dt, up to the last one within `duration`.

    The sweep is one `segment` call over [0, round(duration/dt)*dt] at the
    law's `sweep_rate`, so the drive is evaluated at each stage's time, at
    a tenth of SEGMENT_TOL (read at each call) and with the failure guard
    dt/1024 as its floor.  Neither the steps nor the end time depend on
    `sample_every`: after each accepted step, every sample time in
    (t, t + h] is filled from the step's stages by the Dormand-Prince
    continuous extension (Shampine, Math. Comp. 46:135-150, 1986; the
    coefficients of DOPRI5 and scipy's RK45), of 4th order, clamped to
    [lo, hi]; a sample on a step end takes the accepted state.  A sweep that
    takes more than max(round(duration/dt), SWEEP_STEPS) accepted steps
    raises SimulationFault: steps of dt, or a fixed allowance for a coarse
    dt, whereas steps at the guard would take 1024 per dt.

    Returns the number of samples written.  If a step turns non-finite (see
    `segment`), the last sample written holds a NaN state.
    """
    resistance, sin = law.resistance, math.sin
    two_pi_f = 2.0 * math.pi * freq
    n_steps = int(round(duration / dt))
    n_samples = n_steps // sample_every + 1
    idx = 0

    def write(t, w):
        nonlocal idx
        r = resistance(w)
        v = amp * sin(two_pi_f * t)
        t_out[idx] = t
        v_out[idx] = v
        i_out[idx] = v / r
        w_out[idx] = w
        r_out[idx] = r
        idx += 1

    budget = max(n_steps, SWEEP_STEPS)
    accepted = 0

    def rows(w, y, t, t_next, h, k1, k3, k4, k5, k6, k7):
        # fill the samples in (t, t_next] from one accepted step of h
        nonlocal accepted
        accepted += 1
        if accepted > budget:
            raise SimulationFault(f"the {amp:g} V, {freq:g} Hz sine sweep took more than "
                                  f"{budget} accepted steps by t = {t_next:.9g} s")
        ts = idx * sample_every * dt
        if idx < n_samples and ts < t_next:  # none inside a last step at the floor
            q1 = ((-8048581381 / 2820520608) * k1 + (131558114200 / 32700410799) * k3
                  - (1754552775 / 470086768) * k4 + (127303824393 / 49829197408) * k5
                  - (282668133 / 205662961) * k6 + (40617522 / 29380423) * k7)
            q2 = ((8663915743 / 2820520608) * k1 - (68118460800 / 10900136933) * k3
                  + (14199869525 / 1410260304) * k4 - (318862633887 / 49829197408) * k5
                  + (2019193451 / 616988883) * k6 - (110615467 / 29380423) * k7)
            q3 = ((-12715105075 / 11282082432) * k1 + (87487479700 / 32700410799) * k3
                  - (10690763975 / 1880347072) * k4 + (701980252875 / 199316789632) * k5
                  - (1453857185 / 822651844) * k6 + (69997945 / 29380423) * k7)
            while idx < n_samples and ts < t_next:
                x = (ts - t) / h
                write(ts, _clamp(w + h * (x * (k1 + x * (q1 + x * (q2 + x * q3)))), lo, hi))
                ts = idx * sample_every * dt
        if idx < n_samples and ts == t_next:
            write(ts, _clamp(y, lo, hi))

    write(0.0, w0)
    if n_samples > 1:
        w = segment(w0, 0.0, n_steps * dt, dt, dt / 1024, lo, hi,
                    law.sweep_rate(orient * amp, two_pi_f), SEGMENT_TOL / 10, rows)
        if w != w and idx < n_samples:
            write(idx * sample_every * dt, w)
    return idx


# One kernel per name for each model: bench/tracer.py wraps these names to
# count the fixed-step (oracle) driver's RK4 steps and the sweeps per model,
# and the device classes look them up here at each call, so a wrapped or
# patched kernel is the one that runs.
dopant_branch_rk4 = vteam_branch_rk4 = branch_rk4
dopant_sine_sweep = vteam_sine_sweep = sine_sweep
