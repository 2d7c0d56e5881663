"""Configuration loading, the experiment registry, and the CLI.

Configuration is a flat key-tree text format: one `dotted.path = value` per
line, `#` comments, blank lines ignored.  Every key has a default, so an
empty (or absent) file yields the stock device / neuron constants.  CLI
overrides use the same dotted paths (`--set key=value`).

The keys are the fields of the frozen config dataclasses in `GROUPS`: a
field's default is the key's default, its type picks the parser, and its
rule (`params.key`), or for a rule across fields the class's `validate()`,
states the key's valid range.  `SCHEMA` lists the keys.

Each experiment writes its CSVs plus a `manifest` recording the fully
resolved configuration and a content hash of every output, so any CSV can be
re-derived from its manifest alone.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .device import (MemristorParams, MemristorState, SineDrive, VteamParams, dwdt,
                     hysteresis_sweep)
from .errors import ConfigError, SimulationFault
from .network import NetworkConfig, StimulusParams, pattern_learning, stdp_window
from .neuron import LifParams
from .params import AT_LEAST_ONE, NONNEGATIVE, POSITIVE, Params, key, one_of
from .plasticity import ClockParams, TraceParams
from .synapse import SynapseAssembly, SynapseConfig


# -- config groups of the circuit as a whole and of the experiments ----------


@dataclass(frozen=True)
class DeviceKind(Params):
    kind: str = key("proposed", one_of("proposed", "vteam"))  # the device.* or vteam.* model


@dataclass(frozen=True)
class NetworkParams(Params):
    n_pre: int = key(9, AT_LEAST_ONE)


@dataclass(frozen=True)
class PatternParams(Params):
    epochs: int = key(300, NONNEGATIVE)
    init: str = key("zero", one_of("zero", "midpoint"))


@dataclass(frozen=True)
class StdpParams(Params):
    max_offset: int = key(6, NONNEGATIVE)
    settle_frames: int = key(10, NONNEGATIVE)


@dataclass(frozen=True)
class HysteresisParams(Params):
    MAX_STEPS = 10_000_000  # per sweep, about 45 s; the stock hard sweep takes 200 000
    w0: float = 5e-9  # its range is the selected device's (see run_hysteresis)
    pinched_amplitude: float = 1.0
    pinched_freq: float = key(10.0, POSITIVE)
    pinched_cycles: int = key(2, NONNEGATIVE)
    hard_amplitude: float = 2.0
    hard_freq: float = key(1.0, POSITIVE)
    hard_cycles: int = key(2, NONNEGATIVE)
    sample_every: int = key(10, AT_LEAST_ONE)


@dataclass(frozen=True)
class SwitchRateParams(Params):
    i_min: float = 1e-4
    i_max: float = 3e-3
    points: int = key(61, AT_LEAST_ONE)
    w_frac: float = key(0.5, (lambda x: 0.0 <= x <= 1.0, "0 <= {} <= 1"))

    def validate(self, prefix: str = ""):
        if not 0.0 < self.i_min < self.i_max:
            raise ConfigError(f"0 < {prefix}i_min < {prefix}i_max")
        return super().validate(prefix)


@dataclass(frozen=True)
class PdParams(Params):
    phase_seconds: float = key(0.15, POSITIVE)
    cycles: int = key(2, NONNEGATIVE)
    sample_dt: float = key(1e-3, POSITIVE)


@dataclass(frozen=True)
class CalibrationParams(Params):
    pulse_seconds: float = key(0.01, POSITIVE)


# -- the key tree ---------------------------------------------------------------

# config dataclass -> the key prefix of its fields, in validation order
GROUPS = {
    ClockParams: "clock", DeviceKind: "device", MemristorParams: "device",
    VteamParams: "vteam", SynapseConfig: "synapse", LifParams: "lif", TraceParams: "trace",
    NetworkParams: "network", StimulusParams: "stimulus", PatternParams: "pattern",
    StdpParams: "stdp", HysteresisParams: "hysteresis", SwitchRateParams: "switchrate",
    PdParams: "pd", CalibrationParams: "calibration",
}


def _parse_float(s):
    x = float(s)
    if not math.isfinite(x):
        raise ValueError("not finite")
    return x


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


PARSERS = {float: _parse_float, int: int, str: str,
           tuple[int, ...]: _parse_int_list, tuple[tuple[int, int], ...]: _parse_pair_list}


SCHEMA = {}  # key -> (default, parser), filled by _plan


def _plan(cls, prefix: str, default):
    """How to build `cls` from flat values: (cls, [(field, key)], [(field,
    nested plan)]).  Adds its keys to SCHEMA, with defaults read off
    `default`, an instance, so a nested group takes its parent's default (the
    vteam window is not WindowSpec()).  A field of any other type (the
    synapse's device, picked by device.kind) is not a key."""
    hints = typing.get_type_hints(cls)
    leaves, nested = [], []
    for f in fields(cls):
        dotted, tp, value = f"{prefix}.{f.name}", hints[f.name], getattr(default, f.name)
        if is_dataclass(tp):
            nested.append((f.name, _plan(tp, dotted, value)))
        elif tp in PARSERS:
            leaves.append((f.name, dotted))
            SCHEMA[dotted] = (value, PARSERS[tp])
    return cls, leaves, nested


PLANS = {cls: _plan(cls, prefix, cls()) for cls, prefix in GROUPS.items()}


def _build(plan, values, given):
    cls, leaves, nested = plan
    kwargs = {name: values[dotted] for name, dotted in leaves}
    for name, sub in nested:
        kwargs[name] = _build(sub, values, {})
    return cls(**kwargs, **given)


@dataclass
class Config:
    """Fully resolved flat configuration."""

    values: dict = field(default_factory=lambda: {k: d for k, (d, _) in SCHEMA.items()})

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key: str, raw):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        default, parser = SCHEMA[key]
        try:
            self.values[key] = parser(raw) if isinstance(raw, str) else raw
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"bad value for {key!r}: {raw!r} (default {format_value(default)}; {exc})") from exc

    def group(self, cls, **given):
        """The config dataclass `cls` (a key of GROUPS) holding these values;
        `given` fills its fields that are not keys."""
        return _build(PLANS[cls], self.values, given)

    def lines(self):
        return [f"{k} = {format_value(self.values[k])}" for k in sorted(self.values)]


def format_value(v) -> str:
    if isinstance(v, float):
        s = f"{v:.9g}"
        return s if float(s) == v else repr(v)  # a manifest reproduces its run
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
    cfg = Config()
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


def selected_device(cfg: Config) -> MemristorParams | VteamParams:
    return cfg.group(VteamParams if cfg["device.kind"] == "vteam" else MemristorParams)


def synapse_config(cfg: Config) -> SynapseConfig:
    return cfg.group(SynapseConfig, device=selected_device(cfg))


def network_config(cfg: Config, n_pre: int | None = None) -> NetworkConfig:
    return NetworkConfig(n_pre=cfg["network.n_pre"] if n_pre is None else n_pre,
                         clock=cfg.group(ClockParams), synapse=synapse_config(cfg),
                         lif=cfg.group(LifParams), trace=cfg.group(TraceParams))


def validate_config(cfg: Config):
    """Each group's own rules, then the one rule across groups."""
    for cls, prefix in GROUPS.items():
        cfg.group(cls).validate(prefix + ".")
    pres = (*cfg["stimulus.pattern_pres"], *(pre for pre, _ in cfg["stimulus.noise_map"]))
    if any(not 0 <= pre < cfg["network.n_pre"] for pre in pres):
        raise ConfigError("every stimulus pre index in [0, network.n_pre)")


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
    h = cfg.group(HysteresisParams)
    # checked here, not at load: the stock w0 lies outside the threshold
    # device's range, which every other experiment may select
    lo, hi = params.state_range
    if not lo <= h.w0 <= hi:
        raise ConfigError(f"hysteresis.w0 in the device state range [{lo:.9g}, {hi:.9g}]")
    sweeps = (("pinched", h.pinched_amplitude, h.pinched_freq, h.pinched_cycles),
              ("hard", h.hard_amplitude, h.hard_freq, h.hard_cycles))
    dt = cfg["clock.dt"]
    for tag, _, freq, cycles in sweeps:  # before a sweep sizes its arrays from the count
        if cycles / freq / dt > h.MAX_STEPS:
            raise ConfigError(f"hysteresis.{tag}_cycles / hysteresis.{tag}_freq / clock.dt"
                              f" <= {h.MAX_STEPS}")
    files = []
    for tag, amplitude, freq, cycles in sweeps:
        series = hysteresis_sweep(params, MemristorState(w=h.w0), SineDrive(amplitude, freq),
                                  cycles / freq, dt, h.sample_every)
        files.append(write_csv(outdir / f"hysteresis_{tag}.csv", series.HEADER, series.rows()))
    return files


def run_switch_rate(cfg: Config, outdir: Path) -> list[Path]:
    if cfg["device.kind"] != "proposed":
        raise ConfigError("switch-rate models the current-driven device: device.kind = proposed")
    params = cfg.group(MemristorParams)
    sr = cfg.group(SwitchRateParams)
    w = sr.w_frac * params.d
    # Python floats, whose power law raises OverflowError where numpy's gives inf
    currents = np.geomspace(sr.i_min, sr.i_max, sr.points)
    rows = [(i, dwdt(params, MemristorState(w=w), i)) for i in currents.tolist()]
    files = [write_csv(outdir / "switch_rate.csv", "i,rate", rows)]
    # rate surface over the state range, both current signs
    surf = []
    for frac in np.linspace(0.0, 1.0, 21):
        for i in np.concatenate([-currents[::6][::-1], currents[::6]]).tolist():
            surf.append((frac, i, dwdt(params, MemristorState(w=frac * params.d), i)))
    files.append(write_csv(outdir / "switch_rate_surface.csv", "w_over_d,i,rate", surf))
    return files


def run_synapse_pd(cfg: Config, outdir: Path) -> list[Path]:
    syn = SynapseAssembly.fresh(synapse_config(cfg))
    dt = cfg["clock.dt"]
    pd = cfg.group(PdParams)
    # checked here, not at load, where it would refuse clock.dt values for
    # runs that never read pd.*; each sample is one drive (1.5e11 at 1e-12 s)
    if pd.sample_dt < dt:
        raise ConfigError("pd.sample_dt >= clock.dt")
    rows = []
    t = 0.0
    level = 2.0 * cfg["lif.v_cc"]
    for _ in range(pd.cycles):
        for v in (level, -level):
            elapsed = 0.0
            while elapsed < pd.phase_seconds - 1e-12:
                chunk = min(pd.sample_dt, pd.phase_seconds - elapsed)
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
    if d_strong == 0.0:
        raise SimulationFault("the strong pulse left the weight unchanged: no weak/strong ratio")
    return d_strong, d_weak, d_weak / d_strong


def run_calibration(cfg: Config, outdir: Path) -> list[Path]:
    d_strong, d_weak, ratio = calibration_values(cfg)
    rows = [("dpsi_strong", d_strong), ("dpsi_weak", d_weak), ("ratio", ratio)]
    return [write_csv(outdir / "calibration.csv", "quantity,value", rows)]


def _window_files(cfg: Config, outdir: Path, suffix: str) -> list[Path]:
    offsets = list(range(-cfg["stdp.max_offset"], cfg["stdp.max_offset"] + 1))
    files = []
    for polarity in ("excitatory", "inhibitory"):
        ncfg = network_config(cfg, n_pre=1)
        ncfg = replace(ncfg, synapse=replace(ncfg.synapse, polarity=polarity))
        rows = stdp_window(ncfg, offsets, settle_frames=cfg["stdp.settle_frames"])
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
    stim = cfg.group(StimulusParams).program(cfg["pattern.epochs"])
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
EXPERIMENTS = tuple(RUNNERS)

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
