"""Exception types shared across the package."""


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


class NonFiniteLoss(AuditError):
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
