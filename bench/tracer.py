"""Per-layer tracing of memsnn from outside the package.

`Tracer.install` replaces public functions and methods of the memsnn modules
with wrappers that record a span (name, start, end, parent) per call and a
few counts.  Spans are kept in flat arrays in memory and written out once,
by `Tracer.save`.  Nothing inside `src/` is changed; the wrappers only live
in the traced worker process.

On the pure-Python backend the segment and fixed-step drivers of
`memsnn._kernels` look up `dopant_branch_rk4` / `vteam_branch_rk4` as module
globals, so wrapping those two counts every branch RK4 step.  Each step is
attributed to the outermost enclosing call among `Network.run_frame`
(engine), `program_to_weight` (program), a `drive` outside the engine (init:
the zero-init drive of pattern learning) and an `apply_differential` outside
programming (fixed).  Under numba the kernels call each other inside
compiled code and the step counts read 0.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

RK4_KINDS = ("engine", "init", "program", "fixed")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.rk4_steps = dict.fromkeys(RK4_KINDS, 0)
        self.counts = {"kernels.sweep_steps": 0, "harness.csv_bytes": 0,
                       "synapse.program_pulses": 0}
        self._kind = None  # RK4 attribution of the outermost enclosing call

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, kind: str | None = None):
        """Wrap fn so that every call records a span named `name`.  A call
        that sets `kind` attributes the RK4 steps beneath it, unless an
        enclosing call already did."""
        nid = self._name_id(name)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_kind = self._kind
            if outer_kind is None:
                self._kind = kind
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                self._kind = outer_kind

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        from memsnn import _kernels, harness, network
        from memsnn.neuron import LifNeuron
        from memsnn.synapse import SynapseAssembly

        def patch(owner, attr, name, kind=None):
            setattr(owner, attr, self.span(name, getattr(owner, attr), kind))

        patch(harness, "load_config", "harness.load_config")
        patch(harness, "write_manifest", "harness.write_manifest")
        patch(harness, "hysteresis_sweep", "device.hysteresis_sweep")
        patch(network.Network, "run_frame", "network.run_frame", kind="engine")
        patch(network, "differential_frame", "plasticity.differential_frame")
        patch(LifNeuron, "integrate", "neuron.integrate")
        patch(SynapseAssembly, "program_to_weight", "synapse.program_to_weight",
              kind="program")
        patch(SynapseAssembly, "drive", "synapse.drive", kind="init")
        patch(SynapseAssembly, "transmit", "synapse.transmit")
        patch(SynapseAssembly, "weight", "synapse.weight")

        apply_differential = self.span("synapse.apply_differential",
                                       SynapseAssembly.apply_differential, kind="fixed")

        def counted_apply_differential(*args, **kwargs):
            if self._kind == "program":
                self.counts["synapse.program_pulses"] += 1
            return apply_differential(*args, **kwargs)

        SynapseAssembly.apply_differential = counted_apply_differential

        write_csv = self.span("harness.write_csv", harness.write_csv)

        def counted_write_csv(*args, **kwargs):
            path = write_csv(*args, **kwargs)
            self.counts["harness.csv_bytes"] += path.stat().st_size
            return path

        harness.write_csv = counted_write_csv

        steps = self.rk4_steps
        for attr in ("dopant_branch_rk4", "vteam_branch_rk4"):
            rk4 = getattr(_kernels, attr)

            def counted_rk4(*args, _rk4=rk4):
                steps[self._kind] += 1
                return _rk4(*args)

            setattr(_kernels, attr, counted_rk4)

        for attr in ("dopant_sine_sweep", "vteam_sine_sweep"):
            sweep = getattr(_kernels, attr)

            def counted_sweep(*args, _sweep=sweep):
                # positional (w0, orient, amp, freq, duration, dt, ...)
                self.counts["kernels.sweep_steps"] += int(round(args[4] / args[5]))
                return _sweep(*args)

            setattr(_kernels, attr, counted_sweep)

    # -- results ---------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def metrics(self):
        """The per-layer figures as {name: (value, unit)} (see README.md)."""
        times = self.layer_times()
        absent = (0, 0.0, 0.0, np.zeros(0))
        m = {f"kernels.rk4_steps.{kind}": (n, "count") for kind, n in self.rk4_steps.items()}
        m["kernels.sweep_steps"] = (self.counts["kernels.sweep_steps"], "count")
        m["device.hysteresis_sweep_s"] = (times.get("device.hysteresis_sweep", absent)[1], "s")
        for layer in ("synapse.drive", "synapse.transmit", "synapse.apply_differential",
                      "synapse.program_to_weight", "synapse.weight", "neuron.integrate",
                      "plasticity.differential_frame"):
            calls, total, _, _ = times.get(layer, absent)
            m[layer + "_calls"] = (calls, "count")
            m[layer + "_s"] = (total, "s")
        programs = m["synapse.program_to_weight_calls"][0]
        m["synapse.program_pulses_per_call"] = (
            self.counts["synapse.program_pulses"] / programs if programs else 0.0, "pulses/call")
        calls, total, own, frames = times.get("network.run_frame", absent)
        m["network.frames"] = (calls, "count")
        m["network.run_frame_s"] = (total, "s")
        m["network.run_frame_self_s"] = (own, "s")
        m["network.frame_ms_p50"] = (1e3 * float(np.median(frames)) if calls else 0.0, "ms")
        # the 99th percentile only where at least ten frames lie beyond it
        m["network.frame_ms_p99"] = (
            1e3 * float(np.percentile(frames, 99)) if calls >= 1000 else 0.0, "ms")
        for layer in ("harness.load_config", "harness.write_csv", "harness.write_manifest"):
            m[layer + "_s"] = (times.get(layer, absent)[1], "s")
        m["harness.csv_bytes"] = (self.counts["harness.csv_bytes"], "bytes")
        return m

    def layer_times(self):
        """Per span name: (calls, total seconds, self seconds, durations).

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on this single thread."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()),
                          dur[sel])
        return out
