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
re-derived from its manifest alone.  `write_csv` formats and writes a block
of rows at a time, and `write_manifest` hashes each file from disk in
chunks, so neither holds a whole CSV in memory.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import numbers
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .device import (MemristorParams, MemristorState, SineDrive, VteamParams, dwdt,
                     hysteresis_sweep)
from .errors import ConfigError, SimulationFault
from .network import (NetworkConfig, StimulusParams, pattern_learning, stdp_window,
                      window_start)
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
    settle_frames: int = key(10, AT_LEAST_ONE)


@dataclass(frozen=True)
class HysteresisParams(Params):
    # dt per sweep, which also sizes its sample arrays.  A sweep that long
    # takes about 23 s (pure Python, one core of a 2-vCPU AMD EPYC host)
    # when every step sits at the dt floor and costs 6 rate evaluations:
    # 1 000 000 such steps (hysteresis.sample_every = 1) took 2.2-2.4 s,
    # scaled linearly; the stock hard sweep spans 200 000 dt in about
    # 20 000 steps.
    MAX_STEPS = 10_000_000
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
    ConfigError quoting the violated rule, as does a file that cannot be
    read as UTF-8 text.
    """
    cfg = Config()
    if path is not None:
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {p}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read config file {p} as UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
        for key, value in parse_config_text(text).items():
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


# Rows per formatted and written block: one write per block costs little,
# and a block's strings stay far below a sweep's sample arrays.
CSV_BLOCK = 1024


def _column(x):
    """The `%` conversion of a column whose first cell is x, and the types
    every cell of the column must have (None: any number)."""
    if isinstance(x, str):
        return "%s", str
    if isinstance(x, numbers.Integral):  # bool and numpy's integers register
        # int first: every cell is checked, and an ABC's check costs 8x a type's
        return "%d", (int, numbers.Integral)
    return "%.9g", None


def _open_output(path: Path):
    """`path` opened for writing UTF-8 text.  An earlier run's output is
    unlinked, not truncated: truncating or replacing a file that holds data
    can block on flushing its old blocks (about 60 ms a file on ext4), where
    unlinking costs 0.02 ms.  A path that cannot be written, such as a
    directory of the output's name, raises ConfigError naming it."""
    try:
        path.unlink(missing_ok=True)
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from None


def write_csv(path: Path, header: str, rows) -> Path:
    """Write `header`, then each row (a tuple) as a comma-separated line;
    return `path`.

    Each column's format is chosen from its first cell: a string as it is,
    a `numbers.Integral` (bool and numpy's integers too) in decimal, any
    other number to 9 significant digits.  A later cell of another type in a
    string or integer column raises TypeError, since `%d` would truncate a
    float.  Rows are formatted and written CSV_BLOCK at a time, so a long row
    source, such as `SweepSeries.rows()`, is never held whole as lines, text
    or bytes.
    """
    rows = iter(rows)
    with _open_output(path) as out:
        out.write(header + "\n")
        block = list(itertools.islice(rows, CSV_BLOCK))
        if block:
            first = block[0]
            columns = [_column(x) for x in first]
            line = ",".join(conv for conv, _ in columns) + "\n"
            exact = [(j, types) for j, (_, types) in enumerate(columns) if types]
        while block:
            for j, types in exact:
                for row in block:
                    if not isinstance(row[j], types):
                        raise TypeError(f"{path.name}: {row[j]!r} in column {j + 1}, "
                                        f"whose first cell is {first[j]!r}")
            out.write("".join([line % row for row in block]))
            block = list(itertools.islice(rows, CSV_BLOCK))
    return path


def write_manifest(outdir: Path, name: str, cfg: Config, files: list[Path]):
    lines = [f"experiment = {name}", ""]
    lines.extend(cfg.lines())
    lines.append("")
    for f in sorted(files):
        sha = hashlib.sha256()
        with open(f, "rb") as data:
            # 64 KiB reads: hashlib.file_digest zeroes a 256 KiB buffer per
            # file, which costs more than it saves on small outputs
            while chunk := data.read(1 << 16):
                sha.update(chunk)
        lines.append(f"sha256 {sha.hexdigest()}  {f.name}")
    with _open_output(outdir / "manifest") as out:
        out.write("\n".join(lines) + "\n")


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
    # log-spaced as numpy's geomspace spaces them, with exact endpoints
    lo = math.log10(sr.i_min)
    step = (math.log10(sr.i_max) - lo) / max(sr.points - 1, 1)
    currents = [10.0 ** (k * step + lo) for k in range(sr.points)]
    currents[0] = sr.i_min
    if sr.points > 1:
        currents[-1] = sr.i_max
    rows = [(i, dwdt(params, MemristorState(w=w), i)) for i in currents]
    files = [write_csv(outdir / "switch_rate.csv", "i,rate", rows)]
    # rate surface over the state range, both current signs
    surf = []
    signed = [-i for i in reversed(currents[::6])] + currents[::6]
    for frac in [k * 0.05 for k in range(20)] + [1.0]:
        for i in signed:
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
    """Weight increments of one strong and one weak pulse from one synapse
    programmed to the canonical half-range state, plus their ratio.  A pulse
    that ends within the programming tolerance of the far bound of
    `weight_range` saturates the weight, so no ratio is measured."""
    dt = cfg["clock.dt"]
    pulse = cfg["calibration.pulse_seconds"]
    tolerance = 1e-3
    programmed = SynapseAssembly.fresh(synapse_config(cfg))
    psi0 = programmed.program_to_weight(programmed.config.sign * 0.5, tolerance, dt=dt)
    far = max(programmed.weight_range(), key=abs)

    def pulse_delta(level):
        syn = programmed.copy().drive(level, dt, duration=pulse)
        if abs(syn.weight() - far) <= tolerance:
            raise SimulationFault(f"the {level:g} V pulse saturates the weight at {far:.6g}, "
                                  "the far bound of its range: no weak/strong ratio")
        return syn.weight() - psi0

    d_strong = pulse_delta(2.0 * cfg["lif.v_cc"])
    d_weak = pulse_delta(cfg["lif.v_cc"])
    if d_strong == 0.0:
        raise SimulationFault("the strong pulse left the weight unchanged: no weak/strong ratio")
    return d_strong, d_weak, d_weak / d_strong


def run_calibration(cfg: Config, outdir: Path) -> list[Path]:
    d_strong, d_weak, ratio = calibration_values(cfg)
    rows = [("dpsi_strong", d_strong), ("dpsi_weak", d_weak), ("ratio", ratio)]
    return [write_csv(outdir / "calibration.csv", "quantity,value", rows)]


def _window_files(cfg: Config, outdir: Path, suffix: str) -> list[Path]:
    offsets = list(range(-cfg["stdp.max_offset"], cfg["stdp.max_offset"] + 1))
    ncfg = network_config(cfg, n_pre=1)
    # the start state and the excitatory-frame memo entries do not depend on
    # the polarity: both windows share them
    files, memo, start = [], {}, window_start(ncfg)
    for polarity in ("excitatory", "inhibitory"):
        pcfg = replace(ncfg, synapse=replace(ncfg.synapse, polarity=polarity))
        rows = stdp_window(pcfg, offsets, settle_frames=cfg["stdp.settle_frames"], memo=memo,
                           start=start)
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
    n_syn = len(result.final_weights)
    header = "epoch," + ",".join(f"psi_{i + 1}" for i in range(n_syn))
    rows = [(e + 1, *w) for e, w in enumerate(result.weights_per_epoch)]
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
    outdir = Path(spec.out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {outdir}: {exc.strerror}") from None
    files = RUNNERS[spec.name](cfg, outdir)
    write_manifest(outdir, spec.name, cfg, files)
    return files


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
                        help="programming micro-pulse width and integrator step "
                             "floor (clock.dt), s")
    parser.add_argument("--epochs", type=int, default=None, help="pattern-learn epochs")
    parser.add_argument("--init", choices=("zero", "midpoint"), default=None,
                        help="pattern-learn weight initialization")
    args = parser.parse_args(argv)

    overrides = list(args.overrides)
    if args.dt is not None:
        overrides.append(f"clock.dt={args.dt!r}")
    if args.epochs is not None:
        overrides.append(f"pattern.epochs={args.epochs}")
    if args.init is not None:
        overrides.append(f"pattern.init={args.init}")

    spec = ExperimentSpec(name=args.experiment, config_path=args.config,
                          out_dir=args.out, overrides=tuple(overrides))
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
