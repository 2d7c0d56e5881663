"""Frame-synchronous simulation engine.

Wires an array of sending (pre) neurons through bridge synapses into
receiving (post) neurons and executes the three-timeslot protocol:

    slot 0 - spike transmission: each firing pre drives +v_cc through its
             synapse; the weighted outputs feed the post integrators;
    slot 1 - potentiation: the pre-side PWM pulse against the post's firing
             rail (strong +2*v_cc overlap only when both coincide);
    slot 2 - depression: the mirrored composition.

Fires are decided at frame edges only.  Within a slot every drive is
piecewise constant, so synapse branches integrate per segment with
error-controlled RK4 (`SynapseAssembly.drive`, steps no shorter than dt),
the LIF membranes advance with the exact constant-input exponential, and
traces decay analytically.  Everything is deterministic: identical
configurations give bit-identical results.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, SimulationFault
from .neuron import LifNeuron, LifParams
from .plasticity import (FrameClock, TraceParams, TraceState, compose_post_port,
                         compose_pre_port, differential_frame, frame_debug_rows,
                         pwm_encode, trace_step)
from .synapse import EXCITATORY, SynapseAssembly, SynapseConfig


@contextmanager
def _fault_context(where: str):
    """Prefix any SimulationFault raised inside with `where`."""
    try:
        yield
    except SimulationFault as exc:
        raise SimulationFault(f"{where}: {exc}") from None


@dataclass(frozen=True)
class StimulusProgram:
    """Per-pre spike schedule, repeated every epoch.

    schedule holds (epoch-relative frame, pre index) pairs, both 0-based.
    """

    schedule: tuple[tuple[int, int], ...]
    epoch_frames: int = 10
    n_epochs: int = 1

    def validate(self):
        for frame, pre in self.schedule:
            if not (0 <= frame < self.epoch_frames):
                raise ConfigError(f"scheduled frame {frame} outside epoch of {self.epoch_frames}")
            if pre < 0:
                raise ConfigError("pre index must be >= 0")
        return self

    def pres_firing(self, epoch_frame: int) -> tuple[int, ...]:
        return tuple(p for f, p in self.schedule if f == epoch_frame)

    @classmethod
    def empty(cls, epoch_frames: int = 10, n_epochs: int = 1) -> "StimulusProgram":
        return cls(schedule=(), epoch_frames=epoch_frames, n_epochs=n_epochs)


@dataclass(frozen=True)
class NetworkConfig:
    n_pre: int = 1
    n_post: int = 1
    # pre index -> (post index, polarity); default wires every pre to post 0
    topology: tuple[tuple[int, str], ...] | None = None
    base_freq: float = 100.0
    dt: float = 1e-5  # micro-pulse width, reference RK4 step, shortest drive step
    synapse: SynapseConfig = field(default_factory=SynapseConfig)
    lif_r_in: float = 100e3
    lif_r_ref: float = 900e3
    lif_c: float = 1e-6
    lif_v_th: float = -0.45
    v_cc: float = 2.0
    trace: TraceParams = field(default_factory=TraceParams)

    def validate(self):
        if self.n_pre < 1 or self.n_post < 1:
            raise ConfigError("need at least one pre and one post")
        slot = 1.0 / self.base_freq
        steps = slot / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError("dt must divide the slot width")
        self.synapse.validate()
        self.trace.validate()
        return self

    def resolved_topology(self):
        if self.topology is not None:
            return self.topology
        return tuple((0, self.synapse.polarity) for _ in range(self.n_pre))


@dataclass
class FrameReport:
    frame: int
    t: float
    pre_fired: tuple[int, ...]
    post_fired: tuple[int, ...]
    post_v_mp_at_edge: tuple[float, ...]
    weights: tuple[float, ...]


class Network:
    """One simulation instance; single-threaded stepping."""

    def __init__(self, config: NetworkConfig, collect_debug: bool = False):
        self.config = config.validate()
        self.clock = FrameClock(base_freq=config.base_freq).validate()
        self.collect_debug = collect_debug
        self.debug_rows = []  # per-slot waveform diagnostics for synapse 0
        topo = config.resolved_topology()
        if len(topo) != config.n_pre:
            raise ConfigError("topology must map every pre")
        self.synapses: list[SynapseAssembly] = []
        self.syn_post: list[int] = []
        for post_idx, polarity in topo:
            if not (0 <= post_idx < config.n_post):
                raise ConfigError(f"post index {post_idx} out of range")
            sc = replace(config.synapse, polarity=polarity)
            self.synapses.append(SynapseAssembly.fresh(sc))
            self.syn_post.append(post_idx)
        afferents = [[] for _ in range(config.n_post)]
        for si, pj in enumerate(self.syn_post):
            afferents[pj].append(si)
        self.post_afferents = [tuple(a) for a in afferents]
        self.pres = [LifNeuron(LifParams(r_in=(config.lif_r_in,), v_cc=config.v_cc))
                     for _ in range(config.n_pre)]
        self.posts = [LifNeuron(LifParams(
            r_in=tuple(config.lif_r_in for _ in self.post_afferents[j]) or (config.lif_r_in,),
            r_ref=config.lif_r_ref, c=config.lif_c,
            v_th=config.lif_v_th, v_cc=config.v_cc))
            for j in range(config.n_post)]
        self.pre_traces = [TraceState() for _ in range(config.n_pre)]
        self.post_traces = [TraceState() for _ in range(config.n_post)]

    # -- helpers -----------------------------------------------------------

    def weights(self) -> tuple[float, ...]:
        return tuple(s.weight() for s in self.synapses)

    def _sample_width(self, trace: TraceState, fired: bool) -> float:
        """PWM width for this frame: trace sampled at the slot-1 start."""
        tp = self.config.trace
        slot = self.clock.slot_width
        if fired:
            return pwm_encode(tp, tp.v_p, slot, True)
        sampled = trace.v_cp * math.exp(-slot / tp.tau)
        return pwm_encode(tp, sampled, slot, False)

    def _step_synapse_segments(self, si: int, segments, slot_idx: int):
        v_cc = self.config.v_cc
        with _fault_context(f"slot {slot_idx}, synapse {si}"):
            for duration, v in segments:
                if abs(v) > v_cc + 1e-9 and slot_idx == 0:
                    raise SimulationFault("strong differential outside programming slots")
                if abs(v) > 2.0 * v_cc + 1e-9:
                    raise SimulationFault(f"differential drive {v} exceeds 2*v_cc")
                self.synapses[si].drive(v, self.config.dt, duration)

    # -- frame execution ----------------------------------------------------

    def run_frame(self, forced_pre=(), forced_post=(), load_pre=(), load_post=(),
                  load_slot: int = 1) -> FrameReport:
        """Execute one full frame.

        forced_* indices fire at this frame's edge (the external command
        arrives with the edge, bypassing the integrator).  load_* indices get
        their trigger loaded mid-frame, after slot `load_slot`, and therefore
        fire at the NEXT frame's edge regardless of which slot the load lands
        in - the sub-frame phase insensitivity the trigger provides.

        Faults abort the run annotated with the frame (and slot and synapse)
        they hit.
        """
        with _fault_context(f"frame {self.clock.frame}"):
            return self._run_frame(forced_pre, forced_post, load_pre, load_post, load_slot)

    def _run_frame(self, forced_pre, forced_post, load_pre, load_post,
                   load_slot) -> FrameReport:
        cfg = self.config
        slot = self.clock.slot_width
        frame_idx = self.clock.frame
        t0 = self.clock.t

        def inject_loads(after_slot: int):
            if after_slot != load_slot:
                return
            for i in load_pre:
                self.pres[i].load_fire()
            for j in load_post:
                self.posts[j].load_fire()

        # frame edge: forced commands arrive now; natural loads came from
        # comparator crossings during earlier frames.  Tick every neuron.
        for i in forced_pre:
            self.pres[i].load_fire()
        for j in forced_post:
            self.posts[j].load_fire()
        pre_fired = tuple(i for i, n in enumerate(self.pres) if n.trigger_tick(frame_edge=True))
        post_v_edge = tuple(n.state.v_mp for n in self.posts)
        post_fired = tuple(j for j, n in enumerate(self.posts) if n.trigger_tick(frame_edge=True))

        pre_fired_set = set(pre_fired)
        post_fired_set = set(post_fired)

        width_a = [self._sample_width(self.pre_traces[i], i in pre_fired_set)
                   for i in range(cfg.n_pre)]
        width_b = [self._sample_width(self.post_traces[j], j in post_fired_set)
                   for j in range(cfg.n_post)]

        ports_a = [compose_pre_port(i in pre_fired_set, width_a[i], cfg.v_cc, slot)
                   for i in range(cfg.n_pre)]
        ports_b = [compose_post_port(j in post_fired_set, width_b[j], cfg.v_cc, slot)
                   for j in range(cfg.n_post)]
        if self.collect_debug:
            self.debug_rows.extend(frame_debug_rows(
                frame_idx, ports_a[0], ports_b[self.syn_post[0]], slot, cfg.v_cc))

        # slot 0: transmission.  Weighted outputs are evaluated from the
        # entry weights, then the spike biases the synapse for the slot.
        post_inputs = [[0.0] * max(1, len(self.post_afferents[j])) for j in range(cfg.n_post)]
        for si, syn in enumerate(self.synapses):
            pre_i = si  # one synapse per pre, same ordering
            if pre_i in pre_fired_set:
                pj = self.syn_post[si]
                slot_in = self.post_afferents[pj].index(si)
                with _fault_context(f"slot 0, synapse {si}"):
                    v_out = syn.transmit(cfg.v_cc, cfg.dt, duration=slot)
                post_inputs[pj][slot_in] = v_out
        for j, post in enumerate(self.posts):
            post.integrate(post_inputs[j], slot)
            post.trigger_tick(frame_edge=False)
        inject_loads(0)

        # slots 1 and 2: programming segments; post membranes just leak.
        for slot_idx in (1, 2):
            for si in range(len(self.synapses)):
                segs = differential_frame(ports_a[si], ports_b[self.syn_post[si]], slot)[slot_idx]
                self._step_synapse_segments(si, segs, slot_idx)
            for j, post in enumerate(self.posts):
                post.integrate([0.0] * max(1, len(self.post_afferents[j])), slot)
                post.trigger_tick(frame_edge=False)
            inject_loads(slot_idx)

        # traces: held at v_p through the owner's firing frame, else decay
        # across the whole frame width.
        frame_w = self.clock.frame_width
        tp = cfg.trace
        for i in range(cfg.n_pre):
            self.pre_traces[i] = trace_step(tp, self.pre_traces[i], i in pre_fired_set, frame_w)
        for j in range(cfg.n_post):
            self.post_traces[j] = trace_step(tp, self.post_traces[j], j in post_fired_set, frame_w)

        for _ in range(FrameClock.SLOTS_PER_FRAME):
            self.clock.tick()

        weights = self.weights()
        if not all(math.isfinite(w) for w in weights):
            raise SimulationFault("non-finite synapse state")
        return FrameReport(frame=frame_idx, t=t0, pre_fired=pre_fired,
                           post_fired=post_fired, post_v_mp_at_edge=post_v_edge,
                           weights=weights)


@dataclass
class SimulationResult:
    """Per-epoch weight samples plus the post event log."""

    weights_per_epoch: np.ndarray          # (n_epochs, n_synapses)
    post_log: list                         # (frame, t, v_mp_at_edge, fired)
    first_fire_epoch: int | None
    final_weights: np.ndarray
    frames_run: int


def run_simulation(config: NetworkConfig, program: StimulusProgram,
                   forced_post: dict[int, tuple[int, ...]] | None = None) -> SimulationResult:
    """Run a stimulus program to completion; deterministic for a config.

    Returns the per-epoch weight series and the post-0 event log.
    """
    program.validate()
    net = Network(config)
    return _run_program(net, program, forced_post or {})


def _run_program(net: Network, program: StimulusProgram, forced_post) -> SimulationResult:
    n_syn = len(net.synapses)
    weights = np.empty((program.n_epochs, n_syn))
    post_log = []
    first_fire_epoch = None
    frame_abs = 0
    for epoch in range(program.n_epochs):
        for ef in range(program.epoch_frames):
            fp = forced_post.get(frame_abs, ())
            report = net.run_frame(forced_pre=program.pres_firing(ef), forced_post=fp)
            post_log.append((report.frame, report.t,
                             report.post_v_mp_at_edge[0] if report.post_v_mp_at_edge else 0.0,
                             1 if 0 in report.post_fired else 0))
            if report.post_fired and first_fire_epoch is None:
                first_fire_epoch = epoch
            frame_abs += 1
        weights[epoch] = net.weights()
    return SimulationResult(weights_per_epoch=weights, post_log=post_log,
                            first_fire_epoch=first_fire_epoch,
                            final_weights=weights[-1] if program.n_epochs else np.zeros(n_syn),
                            frames_run=frame_abs)


# -- timing-window experiment -------------------------------------------------


def _programmed_network(config: NetworkConfig, target: float) -> Network:
    net = Network(config)
    for syn in net.synapses:
        syn.program_to_weight(target, tolerance=1e-3, dt=config.dt)
    return net


def stdp_window(config: NetworkConfig, offsets, settle_frames: int = 10,
                phase_slot: int | None = None):
    """Weight change induced by exactly one pre/post spike pair per offset.

    For each frame offset the synapse is freshly programmed to |weight| 0.5,
    a single pre spike and a single post spike are placed `offset` frames
    apart (negative offsets mean post first), the run continues until the
    traces have effectively extinguished, and the net weight change is
    recorded.  Returns rows (offset_frames, offset_seconds, d_weight).

    With phase_slot=None the fire commands arrive on the edges themselves;
    otherwise the triggers are loaded after that slot of the preceding frame,
    which must produce bit-identical windows (quantization in sub-frame
    phase).
    """
    cfg = replace(config, n_pre=1, n_post=1, topology=None)
    frame_w = FrameClock(base_freq=cfg.base_freq).frame_width
    sign = 1.0 if cfg.synapse.polarity == EXCITATORY else -1.0
    rows = []
    for off in offsets:
        net = _programmed_network(cfg, sign * 0.5)
        psi0 = net.synapses[0].weight()
        pre_frame = 1 + max(0, -off)
        post_frame = pre_frame + off
        horizon = max(pre_frame, post_frame) + settle_frames
        for frame in range(horizon):
            if phase_slot is None:
                net.run_frame(forced_pre=(0,) if frame == pre_frame else (),
                              forced_post=(0,) if frame == post_frame else ())
            else:
                net.run_frame(load_pre=(0,) if frame == pre_frame - 1 else (),
                              load_post=(0,) if frame == post_frame - 1 else (),
                              load_slot=phase_slot)
        rows.append((off, off * frame_w, net.synapses[0].weight() - psi0))
    return rows


# -- pattern learning ---------------------------------------------------------


def default_pattern_stimulus(n_epochs: int,
                             pattern_pres=(0, 2, 3, 5, 7),
                             pattern_frame: int = 0,
                             noise_map=((1, 2), (4, 3), (6, 4), (8, 5)),
                             epoch_frames: int = 10) -> StimulusProgram:
    """3x3 input schedule: the pattern group fires together in one frame and
    each noise input fires alone in a later frame.  Indices are 0-based."""
    schedule = [(pattern_frame, p) for p in pattern_pres]
    schedule += [(frame, pre) for pre, frame in noise_map]
    return StimulusProgram(schedule=tuple(schedule), epoch_frames=epoch_frames,
                           n_epochs=n_epochs)


@dataclass
class PatternResult:
    weights_per_epoch: np.ndarray
    post_log: list
    first_fire_epoch: int | None
    final_weights: np.ndarray
    stability_epoch: int | None
    pattern_pres: tuple[int, ...]
    noise_pres: tuple[int, ...]


def stability_epoch(weights: np.ndarray, window: int = 20, tol: float = 0.005) -> int | None:
    """First epoch after which every weight stays within tol of its trailing
    mean over `window` epochs, through the end of the run."""
    n = weights.shape[0]
    if n < window:
        return None
    stable = np.zeros(n, dtype=bool)
    for e in range(window - 1, n):
        mean = weights[e - window + 1:e + 1].mean(axis=0)
        stable[e] = bool(np.all(np.abs(weights[e] - mean) <= tol))
    last_bad = -1
    for e in range(window - 1, n):
        if not stable[e]:
            last_bad = e
    first = last_bad + 1
    if first >= n:
        return None
    return max(first, window - 1)


def pattern_learning(config: NetworkConfig, stimulus: StimulusProgram,
                     init: str = "zero") -> PatternResult:
    """Train the 3x3 array; init is 'zero' (1 s negative programming drive)
    or 'midpoint' (every weight programmed to half range)."""
    stimulus.validate()
    net = Network(config)
    sign = 1.0 if config.synapse.polarity == EXCITATORY else -1.0
    if init == "zero":
        for syn in net.synapses:
            syn.drive(-sign * 4.0, config.dt, duration=1.0)
    elif init == "midpoint":
        for syn in net.synapses:
            syn.program_to_weight(sign * 0.5, tolerance=0.01, dt=config.dt)
    else:
        raise ConfigError(f"init must be zero or midpoint, got {init!r}")
    result = _run_program(net, stimulus, {})
    if stimulus.schedule:
        first_frame = min(f for f, _ in stimulus.schedule)
        pattern = tuple(sorted({p for f, p in stimulus.schedule if f == first_frame}))
    else:
        pattern = ()
    noise = tuple(i for i in range(config.n_pre) if i not in pattern)
    return PatternResult(weights_per_epoch=result.weights_per_epoch,
                         post_log=result.post_log,
                         first_fire_epoch=result.first_fire_epoch,
                         final_weights=result.final_weights,
                         stability_epoch=stability_epoch(result.weights_per_epoch),
                         pattern_pres=pattern, noise_pres=noise)
