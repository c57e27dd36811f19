"""Exception types shared across the package."""


class PnrError(Exception):
    """Base class for package-specific failures."""


class StreamFormatError(PnrError):
    """Malformed input file: a binary stream or record file with a bad magic,
    a bad channel or a truncated record, or a CSV table with a short or
    non-integer row."""

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
        self.byte_offset = byte_offset


class StreamOrderError(PnrError):
    """Tags are not sorted by (timestamp, channel)."""


class CalibrationError(PnrError):
    """Calibration could not be established from the supplied events."""


class EmptySampleError(CalibrationError):
    """No detected events to histogram or fit."""


class DataError(PnrError):
    """An event carries values that cannot be decoded (e.g. non-finite)."""


class AlignmentError(PnrError):
    """Two record sets do not cover the same trigger indices."""


class CompatibilityError(PnrError):
    """Stream, calibration, or record sets do not belong together."""


class InsufficientDataError(PnrError):
    """Too few counts for the requested estimate."""


class UnboundedFitError(PnrError):
    """The likelihood has no interior maximum (all mass in the top category)."""


class UndefinedRatioError(PnrError):
    """A ratio estimate has a zero-count denominator."""


class UndetectablePulseError(PnrError):
    """A pulse amplitude never exceeds the discriminator threshold."""


class ConfigError(PnrError, ValueError):
    """Invalid or unknown configuration entries, or an argument outside its
    range; a ValueError too, so library callers may catch either."""
