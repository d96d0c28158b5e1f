"""Exception taxonomy shared across the package.

Each error class carries its machine-readable ``category`` and the
process ``exit_code`` the CLI returns for it.
"""

import numbers
import operator
from typing import get_args, get_type_hints


class PathCutError(Exception):
    category = "internal"
    exit_code = 70


class InputError(PathCutError):
    """Malformed input: bad node ids, missing edges, invalid parameters."""

    category = "input"
    exit_code = 2


class SizeError(PathCutError):
    """Instance too large for an exact (brute-force) operation."""

    category = "size"
    exit_code = 3


class InfeasibleError(PathCutError):
    category = "infeasible"
    exit_code = 4


class ConvergenceError(PathCutError):
    category = "convergence"
    exit_code = 5


class IterationLimitError(PathCutError):
    """Attack outer loop exceeded its iteration cap. ``partial`` is
    ``{"constraints": cap + 1, "removed_edges": <cut in force>}``."""

    category = "iteration-limit"
    exit_code = 6

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class RoundingFailureError(PathCutError):
    """Randomized rounding hit its retry cap; carries the fractional solution."""

    category = "rounding"
    exit_code = 7

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class InstanceSkip(PathCutError):
    """An experiment instance cannot be set up (e.g. too few paths for the
    requested rank); recorded and skipped, never fatal to a batch."""

    category = "skip"
    exit_code = 8


class MismatchError(PathCutError):
    """Two computations that must agree do not (``reduce-check``)."""

    category = "mismatch"
    exit_code = 9


#: Checked type -> (accepted type, its name in the message).
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string")}


def check_field_types(config) -> None:
    """Raise :class:`InputError` for a dataclass field whose value does not
    fit its ``int``, ``float`` or ``str`` type; an optional one
    (``Optional[int]``, ``int | None``) admits None too. A config read
    from JSON can hold any JSON value."""
    for name, hint in get_type_hints(type(config)).items():
        args = get_args(hint)
        optional = len(args) == 2 and args[1] is type(None)
        kind, what = _KINDS.get(args[0] if optional else hint, (object, ""))
        value = getattr(config, name)
        if not isinstance(value, kind) and not (optional and value is None):
            raise InputError(f"{name} must be {what}, got {value!r}")


def check_count(name: str, value, least: int) -> None:
    """Raise :class:`InputError` unless ``value`` is an integer >= ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")

