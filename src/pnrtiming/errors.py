"""Exception types shared across the package, one per command-line exit
status: each class carries the status that the CLI exits with."""


class PnrError(Exception):
    """Base class for package-specific failures."""

    exit_code = 2


class ConfigError(PnrError, ValueError):
    """Invalid or unknown configuration entries, or an argument outside its
    range; a ValueError too, so library callers may catch either."""

    exit_code = 2


class StreamFormatError(PnrError):
    """Malformed input file: a binary stream or record file with a bad magic,
    a bad channel or a truncated record, or a truth CSV with a short or
    non-integer row."""

    exit_code = 2

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
        self.byte_offset = byte_offset


class CalibrationError(PnrError):
    """Calibration could not be established from the supplied events: none
    or too few detected, or no peaks to label them by."""

    exit_code = 3


class DataError(PnrError):
    """Inputs that do not belong together or cannot be processed: a stream,
    calibration or record sets from different runs, record sets covering
    different triggers, tags out of order, or values that cannot be decoded
    or stored."""

    exit_code = 4


class InsufficientDataError(PnrError):
    """Too few counts for the requested estimate, or counts that leave it
    undefined: a likelihood without an interior maximum, or a ratio with a
    zero-count denominator."""

    exit_code = 5
