"""RK4 integration kernels for the device models, in plain Python.

Each device model has one RK4 step for a bridge branch (`dopant_branch_rk4`,
`vteam_branch_rk4`), and two drivers integrate a branch under constant drive
with either step: the fixed-step `branch_step`, the reference that takes
substeps of at most dt, and the error-controlled `branch_segment` used by
the network engine, which uses RK4 step doubling and steps no shorter than
dt.  The sine sweeps drive a single device for the hysteresis experiment.
All state is passed as scalars / preallocated float64 arrays.
"""
import math

# The kernels are never compiled; the constant stays for tools that record
# which backend ran (bench/worker.py reads it).
HAVE_NUMBA = False

# window kinds (keep in sync with device.WindowSpec.KINDS)
WIN_ZHA = 0
WIN_JOGLEKAR = 1
WIN_PRODROMAKIS = 2
WIN_BIOLEK = 3
WIN_STRUKOV = 4
WIN_NONE = 5


def window_factor(kind, p, j, x, direction):
    """Boundary window on the normalized state x = w/D, in [0, j].

    `direction` is the signed drive moving the state: > 0 means x is being
    pushed up.  Only the direction-aware kinds (zha, biolek) use it.
    """
    if x < 0.0:
        x = 0.0
    elif x > 1.0:
        x = 1.0
    if kind == WIN_NONE:
        return j
    if kind == WIN_ZHA:
        s = 0.0 if direction > 0.0 else 1.0
        t = x - s
        return j * (1.0 - (0.25 * t * t + 0.75) ** p)
    if kind == WIN_JOGLEKAR:
        t = 2.0 * x - 1.0
        return j * (1.0 - t ** (2 * p))
    if kind == WIN_PRODROMAKIS:
        t = (x - 0.5) * (x - 0.5) + 0.75
        return j * (1.0 - t ** p)
    if kind == WIN_BIOLEK:
        s = 0.0 if direction > 0.0 else 1.0
        t = x - s
        return j * (1.0 - t ** (2 * p))
    # strukov: parabola, zero at both bounds, max j/4 at midpoint
    return j * x * (1.0 - x)


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
    a bound counts as an error of the whole range, so landing on a bound is
    resolved down to the reference step dt.  Once the device sits on a bound
    the clamped results are compared, so a device held there by the drive
    does not force short steps.
    """
    if lo < w < hi:
        if not (lo < c < hi):
            return hi - lo
        return abs(c - f) / 15.0
    return abs(_clamp(c, lo, hi) - _clamp(f, lo, hi)) / 15.0


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

    rk4 is a device model's branch step, called as rk4(w1, w2, h, *args);
    both states are clamped to the state range [lo, hi] after every substep.
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


def joule_current(a0, i0, q, i):
    """Odd power-law drive a0*(i/i0)^(2q-1); exactly odd in i."""
    x = i / i0
    n = 2 * q - 1
    m = abs(x) ** n
    return a0 * m if x >= 0.0 else -(a0 * m)


def _memristance(w, d, r_on, r_off):
    x = w / d
    if x < 0.0:
        x = 0.0
    elif x > 1.0:
        x = 1.0
    return r_on * x + r_off * (1.0 - x)


def dopant_rate(w, i_dev, r_on, d, mu_v, a0, i0, q, wk, wp, wj):
    """dw/dt of the dopant-drift device in its own frame (i_dev signed)."""
    g = joule_current(a0, i0, q, i_dev)
    f = window_factor(wk, wp, wj, w / d, i_dev)
    return mu_v * (r_on / d) * g * f


def dopant_branch_rates(w1, w2, o1, o2, r_series, v, r_on, r_off, d, mu_v, a0, i0, q, wk, wp, wj):
    """Rates for the two devices of one bridge branch sharing current i."""
    i = v / (_memristance(w1, d, r_on, r_off) + _memristance(w2, d, r_on, r_off) + r_series)
    k1 = dopant_rate(w1, o1 * i, r_on, d, mu_v, a0, i0, q, wk, wp, wj)
    k2 = dopant_rate(w2, o2 * i, r_on, d, mu_v, a0, i0, q, wk, wp, wj)
    return k1, k2


def dopant_branch_rk4(w1, w2, h, o1, o2, r_series, v,
                      r_on, r_off, d, mu_v, a0, i0, q, wk, wp, wj):
    """One unclamped RK4 step of length h for a dopant-drift branch."""
    a1, b1 = dopant_branch_rates(w1, w2, o1, o2, r_series, v,
                                 r_on, r_off, d, mu_v, a0, i0, q, wk, wp, wj)
    a2, b2 = dopant_branch_rates(w1 + 0.5 * h * a1, w2 + 0.5 * h * b1, o1, o2, r_series, v,
                                 r_on, r_off, d, mu_v, a0, i0, q, wk, wp, wj)
    a3, b3 = dopant_branch_rates(w1 + 0.5 * h * a2, w2 + 0.5 * h * b2, o1, o2, r_series, v,
                                 r_on, r_off, d, mu_v, a0, i0, q, wk, wp, wj)
    a4, b4 = dopant_branch_rates(w1 + h * a3, w2 + h * b3, o1, o2, r_series, v,
                                 r_on, r_off, d, mu_v, a0, i0, q, wk, wp, wj)
    return (w1 + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
            w2 + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)


def _vteam_resistance(w, w_on, w_off, r_on, r_off):
    x = (w - w_on) / (w_off - w_on)
    if x < 0.0:
        x = 0.0
    elif x > 1.0:
        x = 1.0
    return r_on + (r_off - r_on) * x


def vteam_rate(w, v_dev, v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, wk, wp, wj):
    """dw/dt of a threshold (voltage-controlled) device; dead zone between
    the two thresholds contributes exactly zero."""
    if v_dev <= v_on:
        r = k_on * ((v_dev / v_on) - 1.0) ** a_on
    elif v_dev >= v_off:
        r = k_off * ((v_dev / v_off) - 1.0) ** a_off
    else:
        return 0.0
    x = (w - w_on) / (w_off - w_on)
    return r * window_factor(wk, wp, wj, x, r)


def vteam_branch_rates(w1, w2, o1, o2, r_series, v,
                       v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, wk, wp, wj):
    """Branch current splits the differential voltage across both devices;
    each device sees its own resistive share, signed by its orientation."""
    m1 = _vteam_resistance(w1, w_on, w_off, r_on, r_off)
    m2 = _vteam_resistance(w2, w_on, w_off, r_on, r_off)
    i = v / (m1 + m2 + r_series)
    k1 = vteam_rate(w1, o1 * i * m1, v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, wk, wp, wj)
    k2 = vteam_rate(w2, o2 * i * m2, v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, wk, wp, wj)
    return k1, k2


def vteam_branch_rk4(w1, w2, h, o1, o2, r_series, v,
                     v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, wk, wp, wj):
    """One unclamped RK4 step of length h for a threshold-device branch."""
    a1, b1 = vteam_branch_rates(w1, w2, o1, o2, r_series, v,
                                v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, wk, wp, wj)
    a2, b2 = vteam_branch_rates(w1 + 0.5 * h * a1, w2 + 0.5 * h * b1, o1, o2, r_series, v,
                                v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, wk, wp, wj)
    a3, b3 = vteam_branch_rates(w1 + 0.5 * h * a2, w2 + 0.5 * h * b2, o1, o2, r_series, v,
                                v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, wk, wp, wj)
    a4, b4 = vteam_branch_rates(w1 + h * a3, w2 + h * b3, o1, o2, r_series, v,
                                v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, wk, wp, wj)
    return (w1 + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
            w2 + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)


def dopant_sine_sweep(w0, orient, amp, freq, duration, dt, sample_every,
                      r_on, r_off, d, mu_v, a0, i0, q, wk, wp, wj,
                      t_out, v_out, i_out, w_out, r_out):
    """Drive one dopant-drift device with amp*sin(2*pi*freq*t) and record
    (t, v, i, w, R) every `sample_every` steps.  The drive is evaluated at
    the RK4 stage times, so the integration is full fourth order.

    Returns the number of samples written.
    """
    two_pi_f = 2.0 * math.pi * freq
    n = int(round(duration / dt))
    w = w0
    idx = 0
    for k in range(n + 1):
        t = k * dt
        if k % sample_every == 0:
            r = _memristance(w, d, r_on, r_off)
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
        v0 = amp * math.sin(two_pi_f * t)
        vh = amp * math.sin(two_pi_f * (t + 0.5 * h))
        v1 = amp * math.sin(two_pi_f * (t + h))
        i1 = orient * v0 / _memristance(w, d, r_on, r_off)
        k1 = dopant_rate(w, i1, r_on, d, mu_v, a0, i0, q, wk, wp, wj)
        wa = w + 0.5 * h * k1
        i2 = orient * vh / _memristance(wa, d, r_on, r_off)
        k2 = dopant_rate(wa, i2, r_on, d, mu_v, a0, i0, q, wk, wp, wj)
        wb = w + 0.5 * h * k2
        i3 = orient * vh / _memristance(wb, d, r_on, r_off)
        k3 = dopant_rate(wb, i3, r_on, d, mu_v, a0, i0, q, wk, wp, wj)
        wc = w + h * k3
        i4 = orient * v1 / _memristance(wc, d, r_on, r_off)
        k4 = dopant_rate(wc, i4, r_on, d, mu_v, a0, i0, q, wk, wp, wj)
        w += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if w < 0.0:
            w = 0.0
        elif w > d:
            w = d
    return idx


def vteam_sine_sweep(w0, orient, amp, freq, duration, dt, sample_every,
                     v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, r_on, r_off, wk, wp, wj,
                     t_out, v_out, i_out, w_out, r_out):
    two_pi_f = 2.0 * math.pi * freq
    n = int(round(duration / dt))
    w = w0
    idx = 0
    for k in range(n + 1):
        t = k * dt
        if k % sample_every == 0:
            r = _vteam_resistance(w, w_on, w_off, r_on, r_off)
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
        v0 = orient * amp * math.sin(two_pi_f * t)
        vh = orient * amp * math.sin(two_pi_f * (t + 0.5 * h))
        v1 = orient * amp * math.sin(two_pi_f * (t + h))
        k1 = vteam_rate(w, v0, v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, wk, wp, wj)
        k2 = vteam_rate(w + 0.5 * h * k1, vh, v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, wk, wp, wj)
        k3 = vteam_rate(w + 0.5 * h * k2, vh, v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, wk, wp, wj)
        k4 = vteam_rate(w + h * k3, v1, v_on, v_off, k_on, k_off, a_on, a_off, w_on, w_off, wk, wp, wj)
        w += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if w < w_on:
            w = w_on
        elif w > w_off:
            w = w_off
    return idx
