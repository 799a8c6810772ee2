"""Exception types shared across the package."""


class BloomMapError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistribution(BloomMapError):
    """Value distribution is malformed (bad weights, labels, or parse input)."""


class InvalidEpsilon(BloomMapError):
    """Error budget outside the open interval (0, 1)."""


class InvalidScheme(BloomMapError, ValueError):
    """Unknown variant, custom counts given to another variant, or counts
    that violate per-node floors; a ValueError too, as a bad argument is."""


class UnknownValue(BloomMapError):
    """A pair names a value label that the distribution does not contain."""


class DuplicateKey(BloomMapError):
    """The same key was stored with two different values."""


class FrozenError(BloomMapError):
    """Write attempted on a frozen structure."""


class IoError(BloomMapError):
    """A sink or source failed while writing or reading a map file."""


class FormatError(BloomMapError):
    """A map file is malformed; the message names the failing field."""
