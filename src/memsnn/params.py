"""Config dataclass fields that state their own valid range.

Each field of a config dataclass is one config key (`harness.GROUPS` names
the groups): the field's default is the key's default, its type picks the
key's parser, and `key()` attaches the key's range as a rule, a predicate
with the message that names it.  `Params.validate` checks every rule.
"""
from __future__ import annotations

from dataclasses import field, fields

from .errors import ConfigError

POSITIVE = (lambda x: x > 0.0, "{} > 0")
NONNEGATIVE = (lambda x: x >= 0, "{} >= 0")
AT_LEAST_ONE = (lambda x: x >= 1, "{} >= 1")
EXPONENT = (lambda x: isinstance(x, int) and x >= 1, "{} must be an integer >= 1")


def one_of(*choices):
    return (lambda x: x in choices, "{} must be " + " or ".join(choices))


def key(default, rule):
    """A field with its default and its rule, a (predicate, message) pair
    whose message names the field at `{}`."""
    return field(default=default, metadata={"rule": rule})


class Params:
    """Base of the frozen config dataclasses."""

    def validate(self, prefix: str = ""):
        """Raise ConfigError quoting the rule of the first field out of its
        range, naming the field as prefix + its name.  Classes with rules
        across fields extend this."""
        for f in fields(self):
            if "rule" in f.metadata:
                ok, message = f.metadata["rule"]
                if not ok(getattr(self, f.name)):
                    raise ConfigError(message.format(prefix + f.name))
        return self
