class ConfigError(ValueError):
    """Bad configuration: unknown key, unparsable value, or violated invariant.

    Raised while loading/validating configuration, never during stepping.
    """


class SimulationFault(RuntimeError):
    """Non-finite value or otherwise unrecoverable state hit mid-run.

    One raised by `SynapseAssembly.frame` carries `piece`, the index of the
    first drive piece of the span that faulted."""

    piece: int | None = None
