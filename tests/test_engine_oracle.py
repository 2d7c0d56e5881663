"""Differential property test of the network engine: on drawn short stimulus
programs, the engine, whose frames go through the error-controlled
`frame`, against the same run with every segment stepped by the fixed-step
reference `apply_differential` (McKeeman, "Differential testing for
software", Digital Technical Journal 10(1), 1998)."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from memsnn import _kernels as K  # noqa: E402
from memsnn.harness import load_config, network_config, vteam_variant  # noqa: E402
from memsnn.network import Network, StimulusProgram, pattern_learning  # noqa: E402
from memsnn.synapse import SynapseAssembly  # noqa: E402
from test_synapse import piecewise  # noqa: E402

STOCK = load_config(None)
VARIANTS = {"proposed": STOCK, "vteam": vteam_variant(STOCK)}
TOLERANCES = (1e-8, 1e-10, 1e-12)  # the last is the default SEGMENT_TOL
# run in every case besides the drawn ones: three pres fire together at the
# lower threshold, so the post fires from the excitatory midpoint init
FIRING = (3, -0.05, StimulusProgram(((0, 0), (0, 1), (0, 2)), 4, 3))


@st.composite
def programs(draw):
    """(n_pre, post threshold, program): at most 3 pres and 12 frames, at
    least one pre spike.  The lower threshold, drawn first, makes one
    transmission at the midpoint weight fire the post, so the runs also hold
    post fires and the drives they make."""
    n_pre = draw(st.integers(1, 3))
    v_th = draw(st.sampled_from((-0.05, STOCK["lif.v_th"])))
    epoch_frames = draw(st.integers(1, 6))
    n_epochs = draw(st.integers(1, 12 // epoch_frames))
    pairs = st.tuples(st.integers(0, epoch_frames - 1), st.integers(0, n_pre - 1))
    schedule = tuple(sorted(draw(st.sets(pairs, min_size=1, max_size=2 * epoch_frames))))
    return n_pre, v_th, StimulusProgram(schedule, epoch_frames, n_epochs)


def frames_of(monkeypatch, run, drive=None, tol=None):
    """The post fire frames and the per-frame weights of one pattern run,
    with `drive` (and with it each piece of a `frame`) and SEGMENT_TOL
    replaced where given."""
    reports = []
    run_frame = Network.run_frame

    def recorded(net, *args, **kwargs):
        reports.append(run_frame(net, *args, **kwargs))
        return reports[-1]

    with monkeypatch.context() as m:
        m.setattr(Network, "run_frame", recorded)
        if drive is not None:
            m.setattr(SynapseAssembly, "drive", drive)
            m.setattr(SynapseAssembly, "frame", piecewise(drive))
        if tol is not None:
            m.setattr(K, "SEGMENT_TOL", tol)
        pattern_learning(*run)
    return [r.frame for r in reports if r.post_fired], np.array([r.weights for r in reports])


def test_engine_matches_fixed_step_oracle_on_drawn_programs(monkeypatch):
    """For both device kinds, polarities and inits: fire frames are
    identical and weights within 1e-9 of the oracle at the default
    tolerance, and over all drawn runs the largest weight error falls with
    SEGMENT_TOL.  (The zero-init runs stay at round-off error at every
    tolerance; the midpoint runs carry the fall.)"""
    errors, fired = [], []
    fixed = {}

    def fixed_step(syn, v_ab, dt, duration=None):
        """`apply_differential`, memoized over the drawn runs, which repeat
        their init: the 1 s zero-init drive is 10^6 RK4 steps for VTEAM.
        Polarity is only a sign on the readout, so the key leaves it out."""
        key = (syn.w, syn.config.device, syn.config.r1, v_ab, dt, duration)
        if key not in fixed:
            fixed[key] = SynapseAssembly.apply_differential(syn, v_ab, dt, duration).w
        syn.w = fixed[key]
        return syn

    for case in itertools.product(sorted(VARIANTS), ("excitatory", "inhibitory"),
                                  ("zero", "midpoint")):
        kind, polarity, init = case

        @settings(max_examples=5, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(programs())
        @example(FIRING)
        def check(drawn):
            n_pre, v_th, program = drawn
            cfg = network_config(VARIANTS[kind], n_pre=n_pre)
            cfg = replace(cfg, synapse=replace(cfg.synapse, polarity=polarity),
                          lif=replace(cfg.lif, v_th=v_th))
            run = (cfg, program, init)
            ref_fires, ref = frames_of(monkeypatch, run, drive=fixed_step)
            errs = []
            for tol in TOLERANCES:
                fires, got = frames_of(monkeypatch, run, tol=tol)
                errs.append(float(np.max(np.abs(got - ref))))
            assert fires == ref_fires, case  # at the default tolerance, the last
            assert errs[-1] < 1e-9, (case, errs)
            errors.append(errs)
            fired.append(bool(fires))

        check()
    worst = np.max(errors, axis=0)
    assert worst[0] > worst[1] > worst[2], worst
    assert any(fired)  # some runs make the post fire
