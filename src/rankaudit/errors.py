"""Exception types shared across the package, and RULES: what each value a
caller sets must be, in words, with its test.  The config schema, the
`theory` flags and the library's entry points all check through it, by
`require` in the library.  A bool is never a number.
"""

import math
from numbers import Real
from pathlib import Path


class AuditError(Exception):
    """Base class for all rankaudit errors."""


# --- dataset ---------------------------------------------------------------

class MissingColumn(AuditError):
    pass


class DuplicateColumn(AuditError):
    pass


class NonBinarySensitive(AuditError):
    pass


class NonBinaryTarget(AuditError):
    pass


class EmptyFile(AuditError):
    pass


# --- scorer ----------------------------------------------------------------

class EmptyTrain(AuditError):
    pass


class NonFiniteTrainColumn(AuditError):
    pass


class UnknownId(AuditError):
    pass


class ScoreOutOfRange(AuditError):
    pass


class IdMismatch(AuditError):
    pass


# --- mitigation ------------------------------------------------------------

class NonNumericColumn(AuditError):
    pass


class EmptyGroup(AuditError):
    pass


class RateOutOfRange(AuditError):
    pass


class DegenerateGroup(AuditError):
    pass


# --- decisions and metrics ---------------------------------------------------

class MisalignedIds(AuditError):
    pass


class SingleClass(AuditError):
    pass


class LengthMismatch(AuditError):
    pass


class TooShort(AuditError):
    pass


class NoPositivesInGroup(AuditError):
    pass


# --- synthetic worlds --------------------------------------------------------

class ZeroMassDenominator(AuditError):
    pass


# --- cli ---------------------------------------------------------------------

class PolicyMismatch(AuditError):
    pass


class ConfigError(AuditError):
    pass


# --- the values a caller sets ---------------------------------------------------

RATE = 'a number in [0, 1], "baseline-pdr" or "base-rate"'
NAME = 'a non-empty string other than "baseline", "instance_id" or "group"'


def _number(v, low=-math.inf, high=math.inf) -> bool:
    return (isinstance(v, Real) and not isinstance(v, bool)
            and low <= v <= high and abs(v) != math.inf)


RULES = {  # what a value must be: its test
    "anything": lambda v: True,
    "a JSON object": lambda v: type(v) is dict,
    "a list of JSON objects": lambda v: type(v) is list and all(type(e) is dict for e in v),
    "an existing file": lambda v: type(v) is str and Path(v).is_file(),
    "a spec name, path or object": lambda v: type(v) in (str, dict),
    "three numbers >= 0 that sum to 1": lambda v: type(v) in (list, tuple) and len(v) == 3
    and all(_number(f, 0) for f in v) and abs(sum(v) - 1) <= 1e-9,
    "an integer": lambda v: type(v) is int,
    "an integer >= 1": lambda v: type(v) is int and v >= 1,
    "an integer >= 2": lambda v: type(v) is int and v >= 2,
    "a finite number": _number,
    "a finite number > 0": lambda v: _number(v, 0) and v > 0,
    "a finite number >= 0": lambda v: _number(v, 0),
    "a number in [0, 1]": lambda v: _number(v, 0, 1),
    "a number in (0, 1)": lambda v: _number(v, 0, 1) and 0 < v < 1,
    "a number in [0, 0.5]": lambda v: _number(v, 0, 0.5),
    "null or a number in [0, 1]": lambda v: v is None or _number(v, 0, 1),
    RATE: lambda v: v in ("baseline-pdr", "base-rate") or _number(v, 0, 1),
    "true or false": lambda v: type(v) is bool,
    '"tau-a" or "tau-b"': lambda v: v in ("tau-a", "tau-b"),
    "null or a list of column names": lambda v: v is None
    or type(v) is list and all(type(c) is str for c in v),
    NAME: lambda v: type(v) is str and v not in ("", "baseline", "instance_id", "group"),
}


def require(value, name: str, what: str, error=ValueError) -> None:
    """Raise error, naming name, unless value is what (a key of RULES)."""
    if not RULES[what](value):
        raise error(f"{name} must be {what}, got {value!r}")
