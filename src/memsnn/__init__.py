"""memsnn: behavioral simulator of a memristive-synapse spiking neural
network with frame-synchronous, multiple-step-quantized STDP."""

from .device import (MemristorParams, MemristorState, SineDrive, VteamParams,
                     WindowSpec, dwdt, hysteresis_sweep, joule_g, memristance,
                     window_value)
from .errors import ConfigError, SimulationFault
from .network import (Network, NetworkConfig, PatternResult, StimulusProgram,
                      default_pattern_stimulus, pattern_learning, run_simulation,
                      stdp_window)
from .neuron import LifNeuron, LifParams, LifState
from .plasticity import (FrameClock, SlotWaveform, TraceParams, TraceState,
                         compose_post_port, compose_pre_port, differential_frame,
                         pwm_encode, trace_step)
from .synapse import SynapseAssembly, SynapseConfig

__version__ = "0.1.0"
