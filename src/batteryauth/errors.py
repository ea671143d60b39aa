"""Exception hierarchy shared by all batteryauth modules.

Every error raised by the library derives from BatteryAuthError so callers
can catch one base class at the CLI boundary and map it to an exit code.
"""


class BatteryAuthError(Exception):
    """Base class for all library errors."""


# === data parsing / validation ===

class MissingColumn(BatteryAuthError):
    pass


class NonFiniteValue(BatteryAuthError):
    pass


class NonPositiveFrequency(BatteryAuthError):
    pass


class TooShortCycle(BatteryAuthError):
    pass


class TooShortSweep(BatteryAuthError):
    pass


class NonMonotonicCapacity(BatteryAuthError):
    pass


class EmptyDataset(BatteryAuthError):
    pass


class MalformedCsv(BatteryAuthError):
    pass


# === dca / eis processing ===

class AllPointsDropped(BatteryAuthError):
    pass


class BadWindow(BatteryAuthError):
    pass


class DegenerateVoltageRange(BatteryAuthError):
    pass


class DegenerateFrequencyRange(BatteryAuthError):
    pass


# === features / selection ===

class UnsupportedChannelCount(BatteryAuthError):
    pass


class EmptySeries(BatteryAuthError):
    pass


class BadInterval(BatteryAuthError):
    pass


class IndexOutOfRange(BatteryAuthError):
    pass


class BadWidth(BatteryAuthError):
    pass


class CatalogMismatch(BatteryAuthError):
    pass


class TooFewSamples(BatteryAuthError):
    pass


class SingleClass(BatteryAuthError):
    pass


# === models / search ===

class SingularCovariance(BatteryAuthError):
    pass


class DimensionMismatch(BatteryAuthError):
    pass


class ClassTooSmall(BatteryAuthError):
    pass


class GridExhausted(BatteryAuthError):
    pass


class UnsupportedKind(BatteryAuthError):
    pass


class FormatVersionMismatch(BatteryAuthError):
    pass


# === evaluation ===

class LabelAbsent(BatteryAuthError):
    pass


class InfeasibleBalance(BatteryAuthError):
    pass


class EmptyCounts(BatteryAuthError):
    pass


# === synth / config ===

class BadSpec(BatteryAuthError):
    pass


class ConfigError(BatteryAuthError):
    pass
