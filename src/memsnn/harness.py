"""Configuration loading, the experiment registry, and the CLI.

Configuration is a flat key-tree text format: one `dotted.path = value` per
line, `#` comments, blank lines ignored.  Every key has a default, so an
empty (or absent) file yields the stock device / neuron constants.  CLI
overrides use the same dotted paths (`--set key=value`).

Each experiment writes its CSVs plus a `manifest` recording the fully
resolved configuration and a content hash of every output, so any CSV can be
re-derived from its manifest alone.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .device import (MemristorParams, MemristorState, SineDrive, VteamParams,
                     WindowSpec, dwdt, hysteresis_sweep)
from .errors import ConfigError, SimulationFault
from .network import (NetworkConfig, default_pattern_stimulus, pattern_learning,
                      stdp_window)
from .plasticity import TraceParams
from .synapse import SynapseAssembly, SynapseConfig

EXPERIMENTS = ("hysteresis", "switch-rate", "synapse-pd", "weak-strong-calibration",
               "stdp-window", "stdp-window-vteam", "pattern-learn")


def _parse_int(s):
    return int(s)


def _parse_float(s):
    return float(s)


def _parse_str(s):
    return str(s)


def _parse_int_list(s):
    s = str(s).strip()
    if not s:
        return ()
    return tuple(int(x) for x in s.split(","))


def _parse_pair_list(s):
    """"a:b,c:d" -> ((a, b), (c, d))"""
    s = str(s).strip()
    if not s:
        return ()
    out = []
    for item in s.split(","):
        a, b = item.split(":")
        out.append((int(a), int(b)))
    return tuple(out)


# key -> (default, parser).  Dotted paths mirror the module structure.
DEFAULTS = {
    "clock.base_freq": (100.0, _parse_float),
    "clock.dt": (1e-5, _parse_float),
    "device.kind": ("proposed", _parse_str),
    "device.r_on": (100.0, _parse_float),
    "device.r_off": (16000.0, _parse_float),
    "device.d": (1e-8, _parse_float),
    "device.mu_v": (1e-14, _parse_float),
    "device.a0": (40.0, _parse_float),
    "device.i0": (1e-3, _parse_float),
    "device.q": (3, _parse_int),
    "device.window.kind": ("zha", _parse_str),
    "device.window.p": (4, _parse_int),
    "device.window.j": (1.0, _parse_float),
    "vteam.v_on": (-0.7, _parse_float),
    "vteam.v_off": (0.7, _parse_float),
    "vteam.k_on": (-1e-7, _parse_float),
    "vteam.k_off": (1e-7, _parse_float),
    "vteam.alpha_on": (3, _parse_int),
    "vteam.alpha_off": (3, _parse_int),
    "vteam.w_on": (0.0, _parse_float),
    "vteam.w_off": (3e-9, _parse_float),
    "vteam.r_on": (1000.0, _parse_float),
    "vteam.r_off": (8000.0, _parse_float),
    "vteam.window.kind": ("none", _parse_str),
    "vteam.window.p": (1, _parse_int),
    "vteam.window.j": (1.0, _parse_float),
    "synapse.polarity": ("excitatory", _parse_str),
    "synapse.r1": (16000.0, _parse_float),
    "synapse.r2": (16000.0, _parse_float),
    "synapse.gain_a": (1.1, _parse_float),
    "lif.r_in": (100e3, _parse_float),
    "lif.r_ref": (900e3, _parse_float),
    "lif.c": (1e-6, _parse_float),
    "lif.v_th": (-0.45, _parse_float),
    "lif.v_cc": (2.0, _parse_float),
    "trace.v_p": (2.0, _parse_float),
    "trace.tau": (0.045, _parse_float),
    "network.n_pre": (9, _parse_int),
    "stimulus.epoch_frames": (10, _parse_int),
    "stimulus.pattern_frame": (0, _parse_int),
    "stimulus.pattern_pres": ((0, 2, 3, 5, 7), _parse_int_list),
    "stimulus.noise_map": ((((1, 2), (4, 3), (6, 4), (8, 5))), _parse_pair_list),
    "pattern.epochs": (300, _parse_int),
    "pattern.init": ("zero", _parse_str),
    "stdp.max_offset": (6, _parse_int),
    "stdp.settle_frames": (10, _parse_int),
    "hysteresis.w0": (5e-9, _parse_float),
    "hysteresis.pinched_amplitude": (1.0, _parse_float),
    "hysteresis.pinched_freq": (10.0, _parse_float),
    "hysteresis.pinched_cycles": (2, _parse_int),
    "hysteresis.hard_amplitude": (2.0, _parse_float),
    "hysteresis.hard_freq": (1.0, _parse_float),
    "hysteresis.hard_cycles": (2, _parse_int),
    "hysteresis.sample_every": (10, _parse_int),
    "switchrate.i_min": (1e-4, _parse_float),
    "switchrate.i_max": (3e-3, _parse_float),
    "switchrate.points": (61, _parse_int),
    "switchrate.w_frac": (0.5, _parse_float),
    "pd.phase_seconds": (0.15, _parse_float),
    "pd.cycles": (2, _parse_int),
    "pd.sample_dt": (1e-3, _parse_float),
    "calibration.pulse_seconds": (0.01, _parse_float),
}


@dataclass
class Config:
    """Fully resolved flat configuration."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key: str, raw):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        default, parser = DEFAULTS[key]
        try:
            self.values[key] = parser(raw) if isinstance(raw, str) else raw
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"bad value for {key!r}: {raw!r} (default {format_value(default)}; {exc})") from exc

    def lines(self):
        return [f"{k} = {format_value(self.values[k])}" for k in sorted(self.values)]


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return ",".join(f"{a}:{b}" for a, b in v)
        return ",".join(str(x) for x in v)
    return str(v)


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        out[key] = value
    return out


def load_config(path: str | Path | None = None, overrides=()) -> Config:
    """Build the effective configuration: defaults, then file, then overrides.

    Every embedded parameter invariant is checked here; violations raise
    ConfigError quoting the violated rule.
    """
    cfg = Config({k: v for k, (v, _) in DEFAULTS.items()})
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {p} does not exist")
        for key, value in parse_config_text(p.read_text()).items():
            cfg.set(key, value)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        cfg.set(key, value)
    validate_config(cfg)
    return cfg


def device_params(cfg: Config) -> MemristorParams:
    return MemristorParams(
        r_on=cfg["device.r_on"], r_off=cfg["device.r_off"], d=cfg["device.d"],
        mu_v=cfg["device.mu_v"], a0=cfg["device.a0"], i0=cfg["device.i0"],
        q=cfg["device.q"],
        window=WindowSpec(kind=cfg["device.window.kind"], p=cfg["device.window.p"],
                          j=cfg["device.window.j"]))


def vteam_params(cfg: Config) -> VteamParams:
    return VteamParams(
        v_on=cfg["vteam.v_on"], v_off=cfg["vteam.v_off"],
        k_on=cfg["vteam.k_on"], k_off=cfg["vteam.k_off"],
        alpha_on=cfg["vteam.alpha_on"], alpha_off=cfg["vteam.alpha_off"],
        w_on=cfg["vteam.w_on"], w_off=cfg["vteam.w_off"],
        r_on=cfg["vteam.r_on"], r_off=cfg["vteam.r_off"],
        window=WindowSpec(kind=cfg["vteam.window.kind"], p=cfg["vteam.window.p"],
                          j=cfg["vteam.window.j"]))


def selected_device(cfg: Config) -> MemristorParams | VteamParams:
    return vteam_params(cfg) if cfg["device.kind"] == "vteam" else device_params(cfg)


def synapse_config(cfg: Config) -> SynapseConfig:
    return SynapseConfig(polarity=cfg["synapse.polarity"], r1=cfg["synapse.r1"],
                         r2=cfg["synapse.r2"], gain_a=cfg["synapse.gain_a"],
                         device=selected_device(cfg))


def network_config(cfg: Config, n_pre: int | None = None) -> NetworkConfig:
    return NetworkConfig(
        n_pre=n_pre if n_pre is not None else cfg["network.n_pre"],
        base_freq=cfg["clock.base_freq"], dt=cfg["clock.dt"],
        synapse=synapse_config(cfg),
        lif_r_in=cfg["lif.r_in"], lif_r_ref=cfg["lif.r_ref"], lif_c=cfg["lif.c"],
        lif_v_th=cfg["lif.v_th"], v_cc=cfg["lif.v_cc"],
        trace=TraceParams(v_p=cfg["trace.v_p"], tau=cfg["trace.tau"]))


def validate_config(cfg: Config):
    if cfg["device.kind"] not in ("proposed", "vteam"):
        raise ConfigError("device.kind must be proposed or vteam")
    device_params(cfg).validate()
    vteam_params(cfg).validate()
    synapse_config(cfg).validate()
    TraceParams(v_p=cfg["trace.v_p"], tau=cfg["trace.tau"]).validate()
    if cfg["clock.base_freq"] <= 0.0:
        raise ConfigError("base_freq > 0")
    if cfg["clock.dt"] <= 0.0:
        raise ConfigError("dt > 0")
    slot = 1.0 / cfg["clock.base_freq"]
    if abs(slot / cfg["clock.dt"] - round(slot / cfg["clock.dt"])) > 1e-9:
        raise ConfigError("dt must divide the slot width")
    if cfg["pattern.init"] not in ("zero", "midpoint"):
        raise ConfigError("pattern.init must be zero or midpoint")
    if cfg["pattern.epochs"] < 0:
        raise ConfigError("pattern.epochs >= 0")
    pres = (*cfg["stimulus.pattern_pres"], *(pre for pre, _ in cfg["stimulus.noise_map"]))
    if any(not 0 <= pre < cfg["network.n_pre"] for pre in pres):
        raise ConfigError("every stimulus pre index in [0, network.n_pre)")
    if cfg["lif.v_cc"] <= 0.0:
        raise ConfigError("lif.v_cc > 0")
    if cfg["stdp.max_offset"] < 0:
        raise ConfigError("stdp.max_offset >= 0")
    if cfg["stdp.settle_frames"] < 0:
        raise ConfigError("stdp.settle_frames >= 0")
    if not 0.0 < cfg["switchrate.i_min"] < cfg["switchrate.i_max"]:
        raise ConfigError("0 < switchrate.i_min < switchrate.i_max")
    if cfg["switchrate.points"] < 1:
        raise ConfigError("switchrate.points >= 1")
    if not 0.0 <= cfg["switchrate.w_frac"] <= 1.0:
        raise ConfigError("0 <= switchrate.w_frac <= 1")
    for series in ("pinched", "hard"):
        if cfg[f"hysteresis.{series}_freq"] <= 0.0:
            raise ConfigError(f"hysteresis.{series}_freq > 0")
        if cfg[f"hysteresis.{series}_cycles"] < 0:
            raise ConfigError(f"hysteresis.{series}_cycles >= 0")
    if cfg["pd.sample_dt"] <= 0.0:
        raise ConfigError("pd.sample_dt > 0")
    if cfg["calibration.pulse_seconds"] <= 0.0:
        raise ConfigError("calibration.pulse_seconds > 0")


def vteam_variant(cfg: Config) -> Config:
    """The faster-clock threshold-device variant of the circuit: device kind,
    resistor values, gain, clock rate and trace constants all retuned."""
    out = Config(dict(cfg.values))
    out.set("device.kind", "vteam")
    out.set("synapse.r1", cfg["vteam.r_off"])
    out.set("synapse.r2", cfg["vteam.r_off"])
    out.set("synapse.gain_a", 1.7)
    out.set("clock.base_freq", 1000.0)
    out.set("clock.dt", 1e-6)
    out.set("trace.tau", 0.010)
    validate_config(out)
    return out


# -- CSV / manifest helpers ----------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def write_csv(path: Path, header: str, rows) -> Path:
    lines = [header]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_manifest(outdir: Path, name: str, cfg: Config, files: list[Path]):
    lines = [f"experiment = {name}", ""]
    lines.extend(cfg.lines())
    lines.append("")
    for f in sorted(files):
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        lines.append(f"sha256 {digest}  {f.name}")
    (outdir / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- experiments ----------------------------------------------------------------


def run_hysteresis(cfg: Config, outdir: Path) -> list[Path]:
    params = selected_device(cfg)
    # checked here, not in validate_config: the stock w0 lies outside the
    # threshold device's range, which every other experiment may select
    lo, hi = params.state_range
    if not lo <= cfg["hysteresis.w0"] <= hi:
        raise ConfigError(f"hysteresis.w0 in the device state range [{lo:.9g}, {hi:.9g}]")
    dt = cfg["clock.dt"]
    every = cfg["hysteresis.sample_every"]
    files = []
    for tag, amp_key, freq_key, cyc_key in (
            ("pinched", "hysteresis.pinched_amplitude", "hysteresis.pinched_freq",
             "hysteresis.pinched_cycles"),
            ("hard", "hysteresis.hard_amplitude", "hysteresis.hard_freq",
             "hysteresis.hard_cycles")):
        drive = SineDrive(amplitude=cfg[amp_key], freq=cfg[freq_key])
        duration = cfg[cyc_key] / drive.freq
        series = hysteresis_sweep(params, MemristorState(w=cfg["hysteresis.w0"]),
                                  drive, duration, dt, every)
        files.append(write_csv(outdir / f"hysteresis_{tag}.csv", series.HEADER, series.rows()))
    return files


def run_switch_rate(cfg: Config, outdir: Path) -> list[Path]:
    if cfg["device.kind"] != "proposed":
        raise ConfigError("switch-rate models the current-driven device: device.kind = proposed")
    params = device_params(cfg)
    w = cfg["switchrate.w_frac"] * params.d
    currents = np.geomspace(cfg["switchrate.i_min"], cfg["switchrate.i_max"],
                            cfg["switchrate.points"])
    rows = [(i, dwdt(params, MemristorState(w=w), i)) for i in currents]
    files = [write_csv(outdir / "switch_rate.csv", "i,rate", rows)]
    # rate surface over the state range, both current signs
    surf = []
    for frac in np.linspace(0.0, 1.0, 21):
        for i in np.concatenate([-currents[::6][::-1], currents[::6]]):
            surf.append((frac, i, dwdt(params, MemristorState(w=frac * params.d), i)))
    files.append(write_csv(outdir / "switch_rate_surface.csv", "w_over_d,i,rate", surf))
    return files


def run_synapse_pd(cfg: Config, outdir: Path) -> list[Path]:
    syn = SynapseAssembly.fresh(synapse_config(cfg))
    dt = cfg["clock.dt"]
    phase = cfg["pd.phase_seconds"]
    sample = cfg["pd.sample_dt"]
    rows = []
    t = 0.0
    level = 2.0 * cfg["lif.v_cc"]
    for _ in range(cfg["pd.cycles"]):
        for v in (level, -level):
            elapsed = 0.0
            while elapsed < phase - 1e-12:
                chunk = min(sample, phase - elapsed)
                syn.drive(v, dt, duration=chunk)
                elapsed += chunk
                t += chunk
                m1, m2, m3, m4 = syn.resistances()
                rows.append((t, m1, m2, m3, m4, syn.weight()))
    return [write_csv(outdir / "synapse_pd.csv", "t,M1,M2,M3,M4,psi", rows)]


def calibration_values(cfg: Config) -> tuple[float, float, float]:
    """Weight increments of one strong and one weak pulse from the canonical
    half-range state, plus their ratio."""
    dt = cfg["clock.dt"]
    pulse = cfg["calibration.pulse_seconds"]
    strong = 2.0 * cfg["lif.v_cc"]
    weak = cfg["lif.v_cc"]

    def pulse_delta(level):
        syn = SynapseAssembly.fresh(synapse_config(cfg))
        psi0 = syn.program_to_weight(0.5, tolerance=1e-3, dt=dt)
        syn.drive(level, dt, duration=pulse)
        return syn.weight() - psi0

    d_strong = pulse_delta(strong)
    d_weak = pulse_delta(weak)
    return d_strong, d_weak, d_weak / d_strong


def run_calibration(cfg: Config, outdir: Path) -> list[Path]:
    d_strong, d_weak, ratio = calibration_values(cfg)
    rows = [("dpsi_strong", d_strong), ("dpsi_weak", d_weak), ("ratio", ratio)]
    return [write_csv(outdir / "calibration.csv", "quantity,value", rows)]


def _window_files(cfg: Config, outdir: Path, suffix: str) -> list[Path]:
    offsets = list(range(-cfg["stdp.max_offset"], cfg["stdp.max_offset"] + 1))
    settle = cfg["stdp.settle_frames"]
    files = []
    for polarity in ("excitatory", "inhibitory"):
        ncfg = network_config(cfg, n_pre=1)
        ncfg = replace(ncfg, synapse=replace(ncfg.synapse, polarity=polarity))
        rows = stdp_window(ncfg, offsets, settle_frames=settle)
        files.append(write_csv(outdir / f"stdp_window_{polarity}{suffix}.csv",
                               "dt_frames,dt_seconds,dpsi", rows))
    return files


def run_stdp_window(cfg: Config, outdir: Path) -> list[Path]:
    return _window_files(cfg, outdir, "")


def run_stdp_window_vteam(cfg: Config, outdir: Path) -> list[Path]:
    """The window of the threshold-device circuit; cfg is a vteam_variant."""
    if cfg["device.kind"] != "vteam":
        raise ConfigError("stdp-window-vteam runs the vteam_variant configuration")
    return _window_files(cfg, outdir, "_vteam")


def run_pattern_learn(cfg: Config, outdir: Path) -> list[Path]:
    stim = default_pattern_stimulus(
        n_epochs=cfg["pattern.epochs"],
        pattern_pres=cfg["stimulus.pattern_pres"],
        pattern_frame=cfg["stimulus.pattern_frame"],
        noise_map=cfg["stimulus.noise_map"],
        epoch_frames=cfg["stimulus.epoch_frames"])
    result = pattern_learning(network_config(cfg), stim, init=cfg["pattern.init"])
    n_syn = result.weights_per_epoch.shape[1]
    header = "epoch," + ",".join(f"psi_{i + 1}" for i in range(n_syn))
    rows = [(e + 1, *result.weights_per_epoch[e])
            for e in range(result.weights_per_epoch.shape[0])]
    files = [write_csv(outdir / "weights.csv", header, rows)]
    files.append(write_csv(outdir / "post_log.csv", "frame,t,fired",
                           [(f, t, fired) for f, t, _, fired in result.post_log]))
    files.append(write_csv(outdir / "post_events.csv", "frame,t,v_mp_at_edge,fired",
                           result.post_log))
    files.append(write_csv(outdir / "final_weights.csv", "synapse,psi",
                           [(i + 1, w) for i, w in enumerate(result.final_weights)]))
    return files


RUNNERS = {
    "hysteresis": run_hysteresis,
    "switch-rate": run_switch_rate,
    "synapse-pd": run_synapse_pd,
    "weak-strong-calibration": run_calibration,
    "stdp-window": run_stdp_window,
    "stdp-window-vteam": run_stdp_window_vteam,
    "pattern-learn": run_pattern_learn,
}

# experiments that run a derived configuration; the manifest records it
VARIANTS = {"stdp-window-vteam": vteam_variant}


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    config_path: str | None = None
    out_dir: str = "out"
    overrides: tuple[str, ...] = ()
    plot: bool = False

    def validate(self):
        if self.name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.name!r}; expected one of {', '.join(EXPERIMENTS)}")
        return self


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    spec.validate()
    cfg = load_config(spec.config_path, spec.overrides)
    if spec.name in VARIANTS:
        cfg = VARIANTS[spec.name](cfg)
    plt = _pyplot() if spec.plot else None  # before the run, which may be long
    outdir = Path(spec.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = RUNNERS[spec.name](cfg, outdir)
    if plt is not None:
        files.extend(emit_plots(plt, files))
    write_manifest(outdir, spec.name, cfg, files)
    return files


def _pyplot():
    """matplotlib.pyplot on the Agg backend."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError("plot output requires matplotlib") from exc
    return plt


def emit_plots(plt, csv_files: list[Path]) -> list[Path]:
    """Optional SVG plots, derived purely from the CSVs."""
    out = []
    for f in csv_files:
        if f.suffix != ".csv":
            continue
        data = np.genfromtxt(f, delimiter=",", names=True)
        if data.dtype.names is None or len(data.dtype.names) < 2:
            continue
        names = data.dtype.names
        fig, ax = plt.subplots(figsize=(5, 4))
        for col in names[1:]:
            ax.plot(np.atleast_1d(data[names[0]]), np.atleast_1d(data[col]), label=col)
        ax.set_xlabel(names[0])
        ax.legend(fontsize=7)
        ax.set_title(f.stem)
        svg = f.with_suffix(".svg")
        fig.savefig(svg)
        plt.close(fig)
        out.append(svg)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memsnn",
        description="Memristive-synapse SNN circuit simulator: run one of the "
                    "packaged experiments and write CSV artifacts.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="key-tree config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path config override")
    parser.add_argument("--dt", type=float, default=None,
                        help="programming micro-pulse width and shortest integrator "
                             "step (clock.dt), s")
    parser.add_argument("--epochs", type=int, default=None, help="pattern-learn epochs")
    parser.add_argument("--init", choices=("zero", "midpoint"), default=None,
                        help="pattern-learn weight initialization")
    parser.add_argument("--plot", action="store_true", help="emit SVG plots from the CSVs")
    args = parser.parse_args(argv)

    overrides = list(args.overrides)
    if args.dt is not None:
        overrides.append(f"clock.dt={args.dt!r}")
    if args.epochs is not None:
        overrides.append(f"pattern.epochs={args.epochs}")
    if args.init is not None:
        overrides.append(f"pattern.init={args.init}")

    spec = ExperimentSpec(name=args.experiment, config_path=args.config,
                          out_dir=args.out, overrides=tuple(overrides), plot=args.plot)
    try:
        files = run_experiment(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
