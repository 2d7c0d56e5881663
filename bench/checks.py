"""Output checks for every benchmark operation, and their self-test.

Each checker reads one operation's output directory and returns a list of
problems; an empty list means the outputs are correct.  The checks test
physical and acceptance properties from the model equations written out
here, never stored bytes of earlier runs, so a change that moves results
only within the stated tolerances still passes.  Every directory's
manifest is checked too: each sha256 is recomputed from the files.

`self_test` perturbs a copy of each output slightly and requires the
checker to reject it, so that no check passes vacuously.
"""
from __future__ import annotations

import hashlib
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp


# -- reading outputs -------------------------------------------------------------


def read_manifest(d: Path):
    """(experiment, resolved config as strings, {file name: sha256})."""
    experiment, cfg, hashes = None, {}, {}
    for line in (d / "manifest").read_text().splitlines():
        if line.startswith("sha256 "):
            _, digest, name = line.split(maxsplit=2)
            hashes[name] = digest
        elif " = " in line:
            key, value = line.split(" = ", 1)
            if key == "experiment":
                experiment = value
            else:
                cfg[key] = value
    return experiment, cfg, hashes


def read_csv(path: Path):
    """The rows below the header as a 2-D float array."""
    lines = path.read_text().splitlines()
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return data.reshape(len(lines) - 1, len(lines[0].split(",")))


def check_manifest(d: Path, experiment: str):
    problems = []
    name, _, hashes = read_manifest(d)
    if name != experiment:
        problems.append(f"manifest names experiment {name!r}, expected {experiment!r}")
    on_disk = {p.name for p in d.iterdir() if p.name != "manifest"}
    if set(hashes) != on_disk:
        problems.append(f"manifest lists {sorted(hashes)}, directory holds {sorted(on_disk)}")
    for fname, digest in hashes.items():
        path = d / fname
        if path.exists() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"sha256 of {fname} differs from the manifest")
    return problems


def close(a, b, rel, abs_=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


# -- model equations ---------------------------------------------------------------


class Device:
    """The dopant-drift device with the zha window, from the manifest."""

    def __init__(self, cfg):
        if cfg["device.window.kind"] != "zha":
            raise ValueError("the checks model only the zha window")
        self.r_on, self.r_off = float(cfg["device.r_on"]), float(cfg["device.r_off"])
        self.d, self.mu_v = float(cfg["device.d"]), float(cfg["device.mu_v"])
        self.a0, self.i0 = float(cfg["device.a0"]), float(cfg["device.i0"])
        self.q = int(cfg["device.q"])
        self.p, self.j = int(cfg["device.window.p"]), float(cfg["device.window.j"])

    def window(self, x, i):
        """Zha window: 1 - (0.25 (x - s)^2 + 0.75)^p, s = 0 when i pushes x up."""
        t = min(max(x, 0.0), 1.0) - (0.0 if i > 0.0 else 1.0)
        return self.j * (1.0 - (0.25 * t * t + 0.75) ** self.p)

    def rate(self, x, i):
        """dx/dt for x = w / D: mu_v R_ON / D^2 * a0 (i / i0)^(2q-1) * f(x, i)."""
        g = self.a0 * math.copysign(abs(i / self.i0) ** (2 * self.q - 1), i)
        return self.mu_v * self.r_on / self.d ** 2 * g * self.window(x, i)

    def resistance(self, x):
        return self.r_on * x + self.r_off * (1.0 - x)


def bridge(cfg):
    return (cfg["synapse.polarity"], float(cfg["synapse.r1"]), float(cfg["synapse.r2"]),
            float(cfg["synapse.gain_a"]))


def nodal_weight(polarity, r1, r2, gain, m1, m2, m3, m4):
    """Bridge output for 1 V across A-B, by nodal analysis.

    Excitatory: A-M1-n1-M2-n2-R1-B (tap n1) and A-M3-n3-R2-n4-M4-B (tap n4).
    Inhibitory: A-M1-n1-R1-n2-M2-B (tap n2) and A-M3-n3-M4-n4-R2-B (tap n3).
    """
    if polarity == "excitatory":
        (ga, gb, gc), (gd, ge, gf), taps = (1 / m1, 1 / m2, 1 / r1), (1 / m3, 1 / r2, 1 / m4), (0, 3)
    else:
        (ga, gb, gc), (gd, ge, gf), taps = (1 / m1, 1 / r1, 1 / m2), (1 / m3, 1 / m4, 1 / r2), (1, 2)
    # each branch A-ga-x-gb-y-gc-B; unknowns n1, n2 (branch 1) and n3, n4
    mat = np.array([[ga + gb, -gb, 0, 0], [-gb, gb + gc, 0, 0],
                    [0, 0, gd + ge, -ge], [0, 0, -ge, ge + gf]])
    n = np.linalg.solve(mat, np.array([ga, 0.0, gd, 0.0]))
    return gain * (n[taps[0]] - n[taps[1]])


def weight_range(cfg):
    """(lowest, highest) reachable weight: 0 on the near side, the saturated
    corner on the far side."""
    dev = Device(cfg)
    polarity, r1, r2, gain = bridge(cfg)
    if polarity == "excitatory":
        return 0.0, nodal_weight(polarity, r1, r2, gain, dev.r_on, dev.r_off, dev.r_off, dev.r_on)
    return nodal_weight(polarity, r1, r2, gain, dev.r_off, dev.r_on, dev.r_on, dev.r_off), 0.0


# -- device-sweeps ------------------------------------------------------------------


def check_hysteresis(d: Path):
    problems = []
    _, cfg, _ = read_manifest(d)
    dev = Device(cfg)
    dt, every = float(cfg["clock.dt"]), int(cfg["hysteresis.sample_every"])
    for tag in ("pinched", "hard"):
        data = read_csv(d / f"hysteresis_{tag}.csv")
        t, v, i, w, r = data.T
        duration = int(cfg[f"hysteresis.{tag}_cycles"]) / float(cfg[f"hysteresis.{tag}_freq"])
        rows = int(round(duration / dt)) // every + 1
        if len(t) != rows or not np.allclose(t, np.arange(rows) * every * dt, rtol=1e-8, atol=0):
            problems.append(f"{tag}: expected {rows} rows every {every * dt:g} s")
            continue
        if np.any(np.abs(i - v / r) > 5e-8 * np.abs(v / r)):
            problems.append(f"{tag}: i != v/R on some row")
        if r.min() < dev.r_on or r.max() > dev.r_off:
            problems.append(f"{tag}: R leaves [R_ON, R_OFF]")
        x = w / dev.d  # w and R are each rounded to 9 significant digits
        if np.any(np.abs(r - dev.resistance(x)) > 1e-8 * (r + (dev.r_off - dev.r_on) * x)):
            problems.append(f"{tag}: R does not follow w")
        # |i| at the v = 0 crossings, interpolated between the rows that bracket it
        k = np.where(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
        at_zero = i[k] + v[k] / (v[k] - v[k + 1]) * (i[k + 1] - i[k])
        at_zero = np.concatenate([at_zero, i[v == 0.0]])
        if len(at_zero) == 0 or np.abs(at_zero).max() > 1e-6:
            problems.append(f"{tag}: |i| > 1e-6 A at a v = 0 crossing")
        if tag == "hard":  # criterion 2: each cycle sweeps >= 95 % of the R range
            n_per = (rows - 1) // int(cfg["hysteresis.hard_cycles"])
            for c in range(int(cfg["hysteresis.hard_cycles"])):
                seg = r[c * n_per:(c + 1) * n_per + 1]
                if (seg.max() - seg.min()) / (dev.r_off - dev.r_on) < 0.95:
                    problems.append(f"hard: cycle {c} covers < 95 % of the R range")
    return problems


def check_switch_rate(d: Path):
    problems = []
    _, cfg, _ = read_manifest(d)
    dev = Device(cfg)
    frac = float(cfg["switchrate.w_frac"])
    data = read_csv(d / "switch_rate.csv")
    i, rate = data.T
    if len(i) != int(cfg["switchrate.points"]):
        problems.append("switch_rate.csv: wrong number of points")
    # i is rounded to 9 significant digits, which the (2q-1)th power magnifies
    tol = 1e-8 * (2 * dev.q - 1)
    expected = np.array([dev.rate(frac, x) * dev.d for x in i])
    if np.any(np.abs(rate - expected) > tol * np.abs(expected)):
        problems.append("switch_rate.csv departs from mu_v (R_ON/D) a0 (i/i0)^(2q-1) f(w/D)")
    slope = np.polyfit(np.log(i), np.log(np.abs(rate)), 1)[0]
    if abs(slope - (2 * dev.q - 1)) > 1e-6:
        problems.append(f"log-log slope {slope:.9f} != 2q-1 = {2 * dev.q - 1}")
    surf = read_csv(d / "switch_rate_surface.csv")
    expected = np.array([dev.rate(x, cur) * dev.d for x, cur, _ in surf])
    if np.any(np.abs(surf[:, 2] - expected) > tol * np.abs(expected)):
        problems.append("switch_rate_surface.csv departs from the closed form")
    return problems


def pd_reference(cfg):
    """Resistances M1..M4 at every synapse-pd sample from solve_ivp (DOP853)
    on the two branch ODEs, with the sample times of the experiment."""
    dev = Device(cfg)
    polarity, r1, r2, _ = bridge(cfg)
    # device orientations: + means positive A->B current raises x
    sign = 1.0 if polarity == "excitatory" else -1.0
    orient = sign * np.array([1.0, -1.0, -1.0, 1.0])
    x = np.array([0.0, 1.0, 1.0, 0.0]) if sign > 0 else np.array([1.0, 0.0, 0.0, 1.0])
    level = 2.0 * float(cfg["lif.v_cc"])
    phase, sample = float(cfg["pd.phase_seconds"]), float(cfg["pd.sample_dt"])

    def rhs(_, s, v):
        out = np.empty(4)
        for b, rs in ((0, r1), (2, r2)):
            cur = v / (dev.resistance(s[b]) + dev.resistance(s[b + 1]) + rs)
            out[b] = dev.rate(s[b], orient[b] * cur)
            out[b + 1] = dev.rate(s[b + 1], orient[b + 1] * cur)
        return out

    times, states, t0 = [], [], 0.0
    for _ in range(int(cfg["pd.cycles"])):
        for v in (level, -level):
            marks, elapsed = [], 0.0
            while elapsed < phase - 1e-12:
                elapsed += min(sample, phase - elapsed)
                marks.append(elapsed)
            sol = solve_ivp(rhs, (0.0, marks[-1]), x, method="DOP853", t_eval=marks,
                            args=(v,), rtol=1e-12, atol=1e-14)
            x = np.clip(sol.y[:, -1], 0.0, 1.0)
            times.extend(t0 + np.array(marks))
            states.append(sol.y.T)
            t0 += marks[-1]
    return np.array(times), dev.resistance(np.vstack(states))


def check_synapse_pd(d: Path):
    problems = []
    _, cfg, _ = read_manifest(d)
    polarity, r1, r2, gain = bridge(cfg)
    data = read_csv(d / "synapse_pd.csv")
    t_ref, m_ref = pd_reference(cfg)
    if data.shape[0] != len(t_ref):
        return [f"synapse_pd.csv has {data.shape[0]} rows, expected {len(t_ref)}"]
    if np.any(np.abs(data[:, 0] - t_ref) > 1e-9):
        problems.append("sample times differ from the phase schedule")
    m = data[:, 1:5]
    worst = float(np.max(np.abs(m - m_ref) / m_ref))
    if worst > 1e-7:
        problems.append(f"M1..M4 depart from the DOP853 solution by {worst:.2e} relative")
    psi = np.array([nodal_weight(polarity, r1, r2, gain, *row) for row in m])
    if np.any(np.abs(data[:, 5] - psi) > 1e-8):
        problems.append("psi differs from the nodal solution of the bridge")
    return problems


def read_calibration(d: Path):
    rows = dict(line.split(",") for line in (d / "calibration.csv").read_text().splitlines()[1:])
    return float(rows["dpsi_strong"]), float(rows["dpsi_weak"]), float(rows["ratio"])


def check_calibration(d: Path):
    """Acceptance criterion 3: strong 0.0744 +-15 %, weak 0.0024 +-25 %,
    ratio 3.2 +- 1 percentage points."""
    strong, weak, ratio = read_calibration(d)
    problems = []
    if not close(strong, 0.0744, 0.0, 0.15 * 0.0744):
        problems.append(f"dpsi_strong {strong} outside 0.0744 +- 15 %")
    if not close(weak, 0.0024, 0.0, 0.25 * 0.0024):
        problems.append(f"dpsi_weak {weak} outside 0.0024 +- 25 %")
    if not close(ratio, 0.032, 0.0, 0.01):
        problems.append(f"ratio {ratio} outside 0.032 +- 0.01")
    if not close(ratio, weak / strong, 1e-8):
        problems.append("ratio != dpsi_weak / dpsi_strong")
    return problems


# -- stdp-windows -----------------------------------------------------------------------


def check_window(d: Path, suffix: str, base_freq: float, tau: float):
    """Criteria 5 (dopant) and 8 (VTEAM) on the two window CSVs."""
    exc = read_csv(d / f"stdp_window_excitatory{suffix}.csv")
    inh = read_csv(d / f"stdp_window_inhibitory{suffix}.csv")
    problems = []
    if list(exc[:, 0]) != list(range(-6, 7)) or list(inh[:, 0]) != list(range(-6, 7)):
        return ["offsets are not -6..6 frames"]
    if np.any(np.abs(exc[:, 1] - exc[:, 0] * 3.0 / base_freq) > 1e-12):
        problems.append("dt_seconds != dt_frames * frame width")
    w = dict(zip(exc[:, 0].astype(int), exc[:, 2]))
    wi = dict(zip(inh[:, 0].astype(int), inh[:, 2]))
    if any(not close(wi[k], -w[k], 1e-9, 1e-15) for k in w):
        problems.append("inhibitory window is not the exact negation")
    target = math.exp(3.0 / (base_freq * tau))
    vteam = suffix == "_vteam"
    for k in range(1, 7 if vteam else 5):
        if not (w[k] > 0.0 and w[-k] < 0.0):
            problems.append(f"offset +-{k}: not Hebbian")
    if vteam:
        if not abs(w[0]) < 1e-6 * abs(w[1]):
            problems.append("zero-lag residue is not below 1e-6 of |dpsi(1)|")
        for k in range(1, 6):
            if not (abs(w[k + 1]) < abs(w[k]) and abs(w[-k - 1]) < abs(w[-k])):
                problems.append(f"|dpsi| does not decay past offset {k}")
            if not close(w[k] / w[k + 1], target, 0.0, 0.15 * target):
                problems.append(f"decay ratio at {k} not within 15 % of exp(F/tau)")
        if not 0.02 < abs(w[6] / w[1]) < 0.8:
            problems.append("|dpsi(6) / dpsi(1)| outside (0.02, 0.8)")
    else:
        rho_pos = (w[1] - w[2]) / (w[2] - w[3])
        rho_neg = (w[-1] - w[-2]) / (w[-2] - w[-3])
        for rho in (rho_pos, rho_neg):
            if not close(rho, target, 0.0, 0.05 * target):
                problems.append(f"decay ratio {rho:.4f} not within 5 % of {target:.4f}")
        if abs(w[0]) > 0.1 * min(abs(w[1]), abs(w[-1])):
            problems.append("zero-lag residue exceeds a tenth of |dpsi(+-1)|")
        if abs(w[6]) > 0.1 * abs(w[1]) or abs(w[-6]) > 0.1 * abs(w[-1]):
            problems.append("|dpsi(+-6)| exceeds a tenth of |dpsi(+-1)|")
    return problems


def check_stdp_window(d: Path):
    _, cfg, _ = read_manifest(d)
    return check_window(d, "", float(cfg["clock.base_freq"]), float(cfg["trace.tau"]))


# The VTEAM window runs harness.vteam_variant of the manifest's configuration:
# a 1 kHz clock and a 10 ms trace constant, which the manifest does not record.
VTEAM_BASE_FREQ = 1000.0
VTEAM_TAU = 0.010


def check_stdp_window_vteam(d: Path):
    return check_window(d, "_vteam", VTEAM_BASE_FREQ, VTEAM_TAU)


# -- pattern-learn ----------------------------------------------------------------------


def stability_epoch(weights, window=20, tol=0.005):
    """First epoch (0-based) from which every weight stays within tol of its
    trailing `window`-epoch mean to the end of the run, or None."""
    n = len(weights)
    last_bad = window - 2
    for e in range(window - 1, n):
        mean = weights[e - window + 1:e + 1].mean(axis=0)
        if np.any(np.abs(weights[e] - mean) > tol):
            last_bad = e
    return last_bad + 1 if last_bad + 1 < n else None


def check_pattern(d: Path, zero_dir: Path | None = None):
    """Criteria 6 (zero init) and 7 (midpoint init, against the zero run)."""
    problems = []
    _, cfg, _ = read_manifest(d)
    epochs, per_epoch = int(cfg["pattern.epochs"]), int(cfg["stimulus.epoch_frames"])
    n_pre = int(cfg["network.n_pre"])
    weights = read_csv(d / "weights.csv")
    events = read_csv(d / "post_events.csv")
    log = read_csv(d / "post_log.csv")
    final = read_csv(d / "final_weights.csv")
    if weights.shape != (epochs, n_pre + 1) or list(weights[:, 0]) != list(range(1, epochs + 1)):
        return [f"weights.csv is not {epochs} epochs of {n_pre} weights"]
    w = weights[:, 1:]
    frames = epochs * per_epoch
    if len(events) != frames or list(events[:, 0]) != list(range(frames)):
        return [f"post_events.csv does not hold {frames} consecutive frames"]
    frame_w = 3.0 / float(cfg["clock.base_freq"])
    if np.any(np.abs(events[:, 1] - events[:, 0] * frame_w) > 1e-8 * events[:, 1]):
        problems.append("post_events t != frame * frame width")
    if not np.array_equal(log, events[:, [0, 1, 3]]):
        problems.append("post_log.csv is not the frame,t,fired of post_events.csv")
    if not np.array_equal(final[:, 1], w[-1]):
        problems.append("final_weights.csv is not the last epoch of weights.csv")
    lo, hi = weight_range(cfg)
    if w.min() < lo - 1e-12 or w.max() > hi + 1e-12:
        problems.append(f"a weight leaves its polarity's range [{lo:.6g}, {hi:.6g}]")
    pattern = [int(x) for x in cfg["stimulus.pattern_pres"].split(",")]
    noise = [k for k in range(n_pre) if k not in pattern]
    if cfg["pattern.init"] == "zero":
        fired = np.nonzero(events[:, 3])[0]
        first = int(events[fired[0], 0]) // per_epoch + 1 if len(fired) else None
        if first is None or not 5 < first <= 50:
            problems.append(f"first fire epoch {first} outside (5, 50]")
        if w[-1, pattern].min() - w[-1, noise].max() <= 0.1:
            problems.append("final pattern/noise separation <= 0.1")
        if np.abs(np.diff(w[-51:], axis=0)).max() >= 1e-3:
            problems.append("a weight still moves >= 1e-3 per epoch in the last 50")
        sep = w[-50:, pattern].min(axis=1) - w[-50:, noise].max(axis=1)
        if np.any(np.diff(sep) < -1e-4):
            problems.append("separation falls during the last 50 epochs")
    elif zero_dir is not None:
        zero = read_csv(zero_dir / "weights.csv")
        s_mid, s_zero = stability_epoch(w), stability_epoch(zero[:, 1:])
        if s_mid is None or s_zero is None or not s_mid < s_zero:
            problems.append(f"midpoint stability epoch {s_mid} not before zero's {s_zero}")
        if zero.shape == weights.shape and np.abs(zero[-1, 1:] - w[-1]).max() > 0.05:
            problems.append("final maps of the two inits differ by > 0.05")
    return problems


# -- registry and self-test --------------------------------------------------------------


CHECKS = {
    "hysteresis": ("hysteresis", check_hysteresis),
    "switch-rate": ("switch-rate", check_switch_rate),
    "synapse-pd": ("synapse-pd", check_synapse_pd),
    "weak-strong-calibration": ("weak-strong-calibration", check_calibration),
    "stdp-window": ("stdp-window", check_stdp_window),
    "stdp-window-vteam": ("stdp-window-vteam", check_stdp_window_vteam),
    "pattern-learn-zero": ("pattern-learn", check_pattern),
    "pattern-learn-midpoint": ("pattern-learn", check_pattern),
}


def check(label: str, d: Path, round_dir: Path):
    """Every problem with the outputs of operation `label` in directory d;
    round_dir holds the outputs of the other operations of its round."""
    experiment, checker = CHECKS[label]
    if not (d / "manifest").exists():
        return ["no manifest written"]
    try:
        problems = check_manifest(d, experiment)
        if label == "pattern-learn-midpoint":
            return problems + checker(d, zero_dir=round_dir / "pattern-learn-zero")
        return problems + checker(d)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _edit_cell(path: Path, row: int, col: int, edit):
    """Replace one CSV cell (row 0 is the first data row) by edit(value)."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = f"{edit(float(cells[col])):.9g}"
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _rehash(d: Path):
    """Rewrite the manifest hashes, so a perturbed CSV fails on content alone."""
    text = (d / "manifest").read_text().splitlines()
    out = []
    for line in text:
        if line.startswith("sha256 "):
            _, _, name = line.split(maxsplit=2)
            line = f"sha256 {hashlib.sha256((d / name).read_bytes()).hexdigest()}  {name}"
        out.append(line)
    (d / "manifest").write_text("\n".join(out) + "\n")


def _push_past_range(d: Path):
    _, cfg, _ = read_manifest(d)
    lo, hi = weight_range(cfg)
    _edit_cell(d / "weights.csv", 150, 1, lambda w: hi + 0.01 if lo == 0.0 else lo - 0.01)


def _scale_strong(d: Path):
    """dpsi_strong out of its band, with the ratio kept consistent."""
    _edit_cell(d / "calibration.csv", 0, 1, lambda x: 1.2 * x)
    strong, weak, _ = read_calibration(d)
    _edit_cell(d / "calibration.csv", 2, 1, lambda _: weak / strong)


PERTURB = {
    "hysteresis": lambda d: _edit_cell(d / "hysteresis_pinched.csv", 700, 2,
                                       lambda x: x * (1 + 1e-6)),
    "switch-rate": lambda d: _edit_cell(d / "switch_rate.csv", 30, 1, lambda x: x * (1 + 1e-6)),
    "synapse-pd": lambda d: _edit_cell(d / "synapse_pd.csv", 200, 2, lambda x: x * (1 + 1e-6)),
    "weak-strong-calibration": _scale_strong,
    "stdp-window": lambda d: _edit_cell(d / "stdp_window_excitatory.csv", 8, 2, lambda x: -x),
    "stdp-window-vteam": lambda d: _edit_cell(d / "stdp_window_excitatory_vteam.csv", 8, 2,
                                              lambda x: -x),
    "pattern-learn-zero": _push_past_range,
    "pattern-learn-midpoint": _push_past_range,
}


def _flip_hash_byte(d: Path):
    lines = (d / "manifest").read_text().splitlines()
    k = next(n for n, line in enumerate(lines) if line.startswith("sha256 "))
    digit = lines[k][7]
    lines[k] = lines[k][:7] + ("0" if digit != "0" else "1") + lines[k][8:]
    (d / "manifest").write_text("\n".join(lines) + "\n")


def self_test(label: str, d: Path, scratch: Path):
    """Problems found when the checker of `label` accepts a perturbed copy of
    its (correct) outputs in d: one data cell moved, with the manifest
    rehashed, and one manifest hash off by one byte."""
    failures = []
    for what, perturb in (("data", lambda c: (PERTURB[label](c), _rehash(c))),
                          ("manifest hash", _flip_hash_byte)):
        copy = scratch / label
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(d, copy)
        perturb(copy)
        if not check(label, copy, d.parent):
            failures.append(f"{label}: the checker accepts a perturbed {what}")
        shutil.rmtree(copy)
    return failures
