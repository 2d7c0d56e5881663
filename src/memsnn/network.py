"""Frame-synchronous simulation engine.

Wires an array of sending (pre) inputs through bridge synapses of one
polarity into a single receiving (post) neuron and executes the
three-timeslot protocol:

    slot 0 - spike transmission: each firing pre drives +v_cc through its
             synapse; the weighted outputs feed the post integrator;
    slot 1 - potentiation: the pre-side PWM pulse against the post's firing
             rail (strong +2*v_cc overlap only when both coincide);
    slot 2 - depression: the mirrored composition.

Fires are decided at frame edges only.  Within a slot every drive is
piecewise constant, so a synapse's frame is a list of (duration, voltage)
pieces, which `SynapseAssembly.frame` integrates in one call with
error-controlled Dormand-Prince 5(4) steps (on the dopant manifold, one
span per drive sign; this module stays free of the device law), the LIF
membrane advances with the exact constant-input exponential, and traces
decay analytically.  Everything is deterministic: identical
configurations give bit-identical results.

Each distinct synapse frame is stepped once per run.  A synapse's frame is
a function of its state `w` (the excitatory-frame branch-1 pair, a tuple),
its pre's trace and fire, and the post's trace and fire (the post PWM
width), given the run's config.  The network's memo maps that key (float
equality) to the frame's new state, transmitted output and weight, all in
the excitatory frame: the network multiplies the output and the weight by
its `synapse.sign` where it reads them, which is exact.  The state
trajectory does not depend on polarity (see synapse.py), so networks whose
configs differ at most in `synapse.polarity` may share one memo; where
their posts fire differently the keys differ and the second simply misses.
A frame visits the synapses in index order: one whose key the memo holds
takes the entry, so synapses in lockstep within a frame share one stepping,
and any other steps its whole frame, all three slots, and enters the
result.  So a fault names the lowest-index synapse whose frame faults, and
the first slot of the span that faults (on the dopant manifold a span
takes the frame's pieces of one drive sign, else one piece), and no
faulting state is entered.
The memo is emptied at a frame start once it holds over MEMO_ENTRIES
results.  The experiments likewise set up one fresh synapse and copy its
state.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

from .errors import ConfigError, SimulationFault
from .neuron import LifNeuron, LifParams
from .params import AT_LEAST_ONE, Params, key
from .plasticity import (ClockParams, TraceParams, differential_frame, pwm_encode,
                         trace_step)
from .synapse import SynapseAssembly, SynapseConfig

# 1 024 results are about 0.3 MB; a 300-epoch 3x3 run enters 13 000, and at
# this bound takes 0.4 % more stage evaluations than with all of them kept.
MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class StimulusProgram:
    """Per-pre spike schedule, repeated every epoch.

    schedule holds (epoch-relative frame, pre index) pairs, both 0-based.
    """

    schedule: tuple[tuple[int, int], ...]
    epoch_frames: int
    n_epochs: int = 1

    def validate(self):
        if self.epoch_frames < 1:
            raise ConfigError("epoch_frames >= 1")
        for frame, pre in self.schedule:
            if not (0 <= frame < self.epoch_frames):
                raise ConfigError(f"scheduled frame {frame} outside epoch of {self.epoch_frames}")
            if pre < 0:
                raise ConfigError("pre index must be >= 0")
        return self

    @classmethod
    def empty(cls, epoch_frames: int, n_epochs: int = 1) -> "StimulusProgram":
        return cls(schedule=(), epoch_frames=epoch_frames, n_epochs=n_epochs)


@dataclass(frozen=True)
class NetworkConfig:
    n_pre: int
    clock: ClockParams = field(default_factory=ClockParams)
    synapse: SynapseConfig = field(default_factory=SynapseConfig)
    lif: LifParams = field(default_factory=LifParams)  # the post neuron; v_cc is the rail
    trace: TraceParams = field(default_factory=TraceParams)

    def validate(self):
        if self.n_pre < 1:
            raise ConfigError("need at least one pre")
        self.clock.validate()
        self.synapse.validate()
        self.lif.validate()
        self.trace.validate()
        return self


@dataclass
class FrameReport:
    frame: int
    t: float
    pre_fired: tuple[int, ...]
    post_fired: bool
    post_v_mp_at_edge: float
    weights: tuple[float, ...]


class Network:
    """One simulation instance; single-threaded stepping.

    Pre i drives synapse i.  A pre never integrates: a fire command only
    latches it (`pre_loaded`) until the next frame edge.  Networks whose
    configs differ at most in `synapse.polarity` may share one frame `memo`:
    its entries are excitatory-frame (see the module docstring).
    """

    def __init__(self, config: NetworkConfig, memo: dict | None = None):
        self.config = config.validate()
        self.memo = {} if memo is None else memo
        # per-frame constants, derived once
        clock = config.clock
        self._dt, self._v_cc, self._sign = clock.dt, config.lif.v_cc, config.synapse.sign
        self._slot, self._frame_width = clock.slot_width, clock.frame_width
        self._slot_decay = math.exp(-self._slot / config.trace.tau)  # trace at the slot-1 start
        self.frame = 0  # the next frame's number
        self.synapses = [SynapseAssembly.fresh(config.synapse) for _ in range(config.n_pre)]
        self.post = LifNeuron(config.lif, n_inputs=config.n_pre)
        self.pre_loaded: set[int] = set()
        self.pre_traces = [0.0] * config.n_pre
        self.post_trace = 0.0

    # -- helpers -----------------------------------------------------------

    def weights(self) -> tuple[float, ...]:
        return tuple(s.weight() for s in self.synapses)

    def _sample_width(self, v_cp: float, fired: bool) -> float:
        """PWM width for this frame: trace sampled at the slot-1 start."""
        tp = self.config.trace
        if fired:
            return pwm_encode(tp, tp.v_p, self._slot, True)
        return pwm_encode(tp, v_cp * self._slot_decay, self._slot, False)

    def _step_frame(self, si: int, pre_fired: bool, post_fired: bool, width_b: float):
        """Step synapse si through its whole frame, one `SynapseAssembly.frame`
        call over its pieces: the slot-0 transmission if its pre fired, then
        the slot-1 and slot-2 `differential_frame` segments.  The output is
        read before stepping.  Returns the memo entry: the new state and the
        excitatory-frame transmitted output and weight.  A fault names its
        slot (that of the first piece of the span that faulted; slot 2 for
        a non-finite weight) and the synapse."""
        v_cc, sign = self._v_cc, self._sign
        syn = self.synapses[si]
        slot1, slot2 = differential_frame(
            pre_fired, post_fired, self._sample_width(self.pre_traces[si], pre_fired),
            width_b, v_cc, self._slot)
        pieces = [(self._slot, v_cc), *slot1, *slot2] if pre_fired else slot1 + slot2
        # piece k lies in slot (k >= first1) + (k >= first2)
        first1 = 1 if pre_fired else 0
        first2 = first1 + len(slot1)
        for k, (_, v) in enumerate(pieces):
            if abs(v) > 2.0 * v_cc + 1e-9:
                raise SimulationFault(f"slot {(k >= first1) + (k >= first2)}, synapse {si}: "
                                      f"differential drive {v} exceeds 2*v_cc")
        v_out = syn.weight() * v_cc if pre_fired else 0.0
        try:
            syn.frame(pieces, self._dt)
        except SimulationFault as exc:
            k = exc.piece
            raise SimulationFault(
                f"slot {(k >= first1) + (k >= first2)}, synapse {si}: {exc}") from None
        weight = syn.weight()
        if not math.isfinite(weight):
            raise SimulationFault(f"slot 2, synapse {si}: non-finite synapse state")
        return syn.w, sign * v_out, sign * weight

    # -- frame execution ----------------------------------------------------

    def run_frame(self, forced_pre=(), forced_post: bool = False, load_pre=(),
                  load_post: bool = False, load_slot: int = 1) -> FrameReport:
        """Execute one full frame.

        forced_pre indices and a forced_post fire at this frame's edge (the
        external command arrives with the edge, bypassing the integrator).
        load_pre indices and a load_post get their trigger loaded mid-frame,
        after slot `load_slot`, and therefore fire at the NEXT frame's edge
        regardless of which slot the load lands in - the sub-frame phase
        insensitivity the trigger provides.

        Faults abort the run annotated with the frame (and slot and synapse)
        they hit.
        """
        if load_slot not in (0, 1, 2):
            raise ConfigError(f"load_slot in {{0, 1, 2}}, a slot of the frame: got {load_slot!r}")
        frame = self.frame
        try:
            return self._run_frame(forced_pre, forced_post, load_pre, load_post, load_slot)
        except SimulationFault as exc:
            raise SimulationFault(f"frame {frame}: {exc}") from None

    def _run_frame(self, forced_pre, forced_post, load_pre, load_post,
                   load_slot) -> FrameReport:
        cfg = self.config
        frame_idx = self.frame
        t0 = frame_idx * self._frame_width
        post = self.post

        # frame edge: forced commands arrive now; natural loads came from
        # comparator crossings during earlier frames.
        fired = self.pre_loaded.union(forced_pre)
        if not all(0 <= i < cfg.n_pre for i in fired):
            raise ConfigError(f"pre index outside [0, {cfg.n_pre})")
        self.pre_loaded = set()
        pre_fired = tuple(sorted(fired))
        if forced_post:
            post.load_fire()
        post_v_edge = post.state.v_mp
        post_fired = post.trigger_tick(frame_edge=True)

        # each synapse's frame, keyed on all of its inputs (see the module
        # docstring): a key the memo lacks is stepped on this synapse, and
        # each synapse leaves the frame in its entry's state
        memo = self.memo
        if len(memo) > MEMO_ENTRIES:
            memo.clear()
        width_b = self._sample_width(self.post_trace, post_fired)
        results = []
        for si, syn in enumerate(self.synapses):
            pre = si in fired
            key = (syn.w, self.pre_traces[si], pre, self.post_trace, post_fired)
            result = memo.get(key)
            if result is None:
                result = memo[key] = self._step_frame(si, pre, post_fired, width_b)
            syn.w = result[0]
            results.append(result)

        # the post takes the outputs, signed by the polarity, in slot 0 and
        # leaks through slots 1 and 2
        sign, slot = self._sign, self._slot
        post_inputs = [sign * r[1] for r in results]
        zeros = [0.0] * cfg.n_pre
        for slot_idx in range(3):
            post.integrate(zeros if slot_idx else post_inputs, slot)
            post.trigger_tick(frame_edge=False)
            if slot_idx == load_slot:
                self.pre_loaded.update(load_pre)
                if load_post:
                    post.load_fire()

        # traces: held at v_p through the owner's firing frame, else decay
        # across the whole frame width.
        frame_w = self._frame_width
        self.pre_traces = [trace_step(cfg.trace, v, si in fired, frame_w)
                           for si, v in enumerate(self.pre_traces)]
        self.post_trace = trace_step(cfg.trace, self.post_trace, post_fired, frame_w)

        self.frame += 1
        # tuple of a list: tuple of a generator raised the memory peak
        return FrameReport(frame=frame_idx, t=t0, pre_fired=pre_fired,
                           post_fired=post_fired, post_v_mp_at_edge=post_v_edge,
                           weights=tuple([sign * r[2] for r in results]))


@dataclass
class SimulationResult:
    """Per-epoch weight samples, the post event log and what they show."""

    weights_per_epoch: list[tuple[float, ...]]  # one n_synapses tuple per epoch
    post_log: list                         # (frame, t, v_mp_at_edge, fired)
    first_fire_epoch: int | None
    final_weights: tuple[float, ...]       # the last epoch's, or the init's
    stability_epoch: int | None            # see stability_epoch()
    pattern_pres: tuple[int, ...]          # the pres of the earliest scheduled frame
    noise_pres: tuple[int, ...]            # the other pres


def run_simulation(config: NetworkConfig, program: StimulusProgram) -> SimulationResult:
    """Run a stimulus program to completion; deterministic for a config.

    Returns the per-epoch weight series, the post event log and the
    epochs and input groups read from them.
    """
    program.validate()
    return _run_program(Network(config), program)


def _run_program(net: Network, program: StimulusProgram) -> SimulationResult:
    n_syn = len(net.synapses)
    weights = []
    post_log = []
    first_fire_epoch = None
    firing = {}  # epoch frame -> the pres scheduled in it
    for f, p in program.schedule:
        firing.setdefault(f, []).append(p)
    for epoch in range(program.n_epochs):
        for ef in range(program.epoch_frames):
            report = net.run_frame(forced_pre=firing.get(ef, ()))
            post_log.append((report.frame, report.t, report.post_v_mp_at_edge,
                             1 if report.post_fired else 0))
            if report.post_fired and first_fire_epoch is None:
                first_fire_epoch = epoch
        weights.append(report.weights)  # every epoch has a frame (validate)
    if program.schedule:
        first_frame = min(f for f, _ in program.schedule)
        pattern = tuple(sorted({p for f, p in program.schedule if f == first_frame}))
    else:
        pattern = ()
    return SimulationResult(weights_per_epoch=weights, post_log=post_log,
                            first_fire_epoch=first_fire_epoch,
                            final_weights=weights[-1] if weights else net.weights(),
                            stability_epoch=stability_epoch(weights), pattern_pres=pattern,
                            noise_pres=tuple(i for i in range(n_syn) if i not in pattern))


# -- timing-window experiment -------------------------------------------------


def window_start(config: NetworkConfig) -> tuple[float, float]:
    """The excitatory-frame state a timing window starts from: a fresh
    synapse after one closed-loop programming to |weight| 0.5.  It does not
    depend on `synapse.polarity`: the inhibitory programming compares and
    pulses as the excitatory one does, each sign applied twice, so it ends
    in the same state bit for bit."""
    programmed = SynapseAssembly.fresh(config.synapse)
    programmed.program_to_weight(config.synapse.sign * 0.5, tolerance=1e-3,
                                 dt=config.clock.dt)
    return programmed.w


def stdp_window(config: NetworkConfig, offsets, settle_frames: int,
                phase_slot: int | None = None, memo: dict | None = None,
                start: tuple[float, float] | None = None):
    """Weight change induced by exactly one pre/post spike pair per offset.

    For each frame offset a fresh network starts from the synapse state
    `start` (by default `window_start(config)`: one programming serves every
    offset), a single pre spike and a single post spike are placed `offset`
    frames apart (negative offsets mean post first), the run continues until
    the traces have effectively extinguished (`settle_frames` frames from
    the later spike's frame, that frame included), and the net weight
    change is recorded.  Returns rows
    (offset_frames, offset_seconds, d_weight).  The networks of all offsets
    share one frame memo, `memo` if given: the frames before the later spike
    repeat across offsets.  Its entries are excitatory-frame, so the windows
    of configs that differ at most in `synapse.polarity` may share it, and
    their `window_start`; at the defaults the inhibitory window then steps
    no frame of its own.

    With phase_slot=None the fire commands arrive on the edges themselves;
    otherwise the triggers are loaded after that slot of the preceding frame,
    which must produce bit-identical windows (quantization in sub-frame
    phase).
    """
    if settle_frames < 1:
        raise ConfigError("settle_frames >= 1")
    cfg = replace(config, n_pre=1).validate()
    frame_w = cfg.clock.frame_width
    start = window_start(cfg) if start is None else start
    rows = []
    memo = {} if memo is None else memo
    for off in offsets:
        net = Network(cfg, memo)
        net.synapses[0].w = start
        psi0 = net.synapses[0].weight()
        pre_frame = 1 + max(0, -off)
        post_frame = pre_frame + off
        horizon = max(pre_frame, post_frame) + settle_frames
        for frame in range(horizon):
            if phase_slot is None:
                net.run_frame(forced_pre=(0,) if frame == pre_frame else (),
                              forced_post=frame == post_frame)
            else:
                net.run_frame(load_pre=(0,) if frame == pre_frame - 1 else (),
                              load_post=frame == post_frame - 1, load_slot=phase_slot)
        rows.append((off, off * frame_w, net.synapses[0].weight() - psi0))
    return rows


# -- pattern learning ---------------------------------------------------------


@dataclass(frozen=True)
class StimulusParams(Params):
    """The 3x3 input schedule: the pattern group fires together in one frame
    and each noise input fires alone in a later frame.  Indices are 0-based;
    noise_map holds (pre, frame) pairs."""

    epoch_frames: int = key(10, AT_LEAST_ONE)
    pattern_frame: int = 0
    pattern_pres: tuple[int, ...] = (0, 2, 3, 5, 7)
    noise_map: tuple[tuple[int, int], ...] = ((1, 2), (4, 3), (6, 4), (8, 5))

    def validate(self, prefix: str = ""):
        super().validate(prefix)
        self.program(0).validate()
        return self

    def program(self, n_epochs: int) -> StimulusProgram:
        schedule = [(self.pattern_frame, p) for p in self.pattern_pres]
        schedule += [(frame, pre) for pre, frame in self.noise_map]
        return StimulusProgram(schedule=tuple(schedule), epoch_frames=self.epoch_frames,
                               n_epochs=n_epochs)


def stability_epoch(weights, window: int = 20, tol: float = 0.005) -> int | None:
    """First epoch after which every weight stays within tol of its trailing
    mean over `window` epochs, through the end of the run.

    `weights` holds one row of weights per epoch.  Each window's column sum
    adds the column in epoch order, one `+` at a time: `sum()` compensates
    from Python 3.12 on, and a sliding sum rounds differently.
    """
    n = len(weights)
    if n < window:
        return None
    columns = list(zip(*weights))
    last_bad = -1
    for e in range(window - 1, n):
        a = e - window + 1
        if not all(abs(c[e] - functools.reduce(operator.add, c[a:e + 1]) / window) <= tol
                   for c in columns):
            last_bad = e
    first = last_bad + 1
    if first >= n:
        return None
    return max(first, window - 1)


def pattern_learning(config: NetworkConfig, stimulus: StimulusProgram,
                     init: str = "zero") -> SimulationResult:
    """Train the 3x3 array; init is 'zero' (1 s negative programming drive)
    or 'midpoint' (every weight programmed to half range)."""
    stimulus.validate()
    net = Network(config)
    first = net.synapses[0]
    if init == "zero":
        # -4 V drives either polarity toward its zero-weight corner: the
        # inhibitory weight is the negated excitatory one under one drive
        first.drive(-4.0, config.clock.dt, duration=1.0)
    elif init == "midpoint":
        first.program_to_weight(config.synapse.sign * 0.5, tolerance=0.01, dt=config.clock.dt)
    else:
        raise ConfigError(f"init must be zero or midpoint, got {init!r}")
    # fresh synapses are equal and the init is deterministic: one serves all
    for syn in net.synapses[1:]:
        syn.w = first.w
    return _run_program(net, stimulus)
