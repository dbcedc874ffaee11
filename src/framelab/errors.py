"""Exception types shared across the package.

Every error raised by library code derives from FramelabError; the CLI maps
FramelabError to exit code 1 and argparse usage errors to exit code 2.
InvariantError marks an internal consistency check that failed (a numeric
value drifting from its closed form, a construction failing re-verification):
a library defect rather than bad input, but still exit code 1 with a message
instead of a traceback.
"""


class FramelabError(Exception):
    """Base class for all domain errors raised by framelab."""


class InvalidElementError(FramelabError):
    """An element has a coordinate outside its cyclic factor's range."""


class InvalidSubsetError(FramelabError):
    """A generator subset is empty, has duplicates, or is too small."""


class InvalidSubgroupError(FramelabError):
    """A claimed subgroup is not closed under the group operations."""


class InvalidOperationError(FramelabError):
    """An operation's structural precondition does not hold."""


class InvalidParametersError(FramelabError):
    """Numeric parameters are mutually inconsistent for the requested rule."""


class InconsistentAnglesError(FramelabError):
    """Angle data does not yield integral multiplicities."""


class CapacityError(FramelabError):
    """A computation exceeds the configured size bound."""


class DomainError(FramelabError):
    """An argument is outside the mathematical domain of the operation."""


class InvariantError(FramelabError):
    """An internal consistency check failed; the library, not the input, is at fault."""
