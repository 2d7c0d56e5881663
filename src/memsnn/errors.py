class ConfigError(ValueError):
    """A caller's bad argument: an unknown key, an unparsable value or a
    violated invariant of the configuration, an unreadable config file or
    output directory, or a bad argument to a step (`Network.run_frame` raises
    it mid-run for a pre index outside [0, n_pre) or a bad `load_slot`).  A
    fault of the integration itself raises SimulationFault.  The CLI exits 2.
    """


class SimulationFault(RuntimeError):
    """Non-finite value or otherwise unrecoverable state hit mid-run.

    One raised by `SynapseAssembly.frame` carries `piece`, the index of the
    first drive piece of the span that faulted."""

    piece: int | None = None
