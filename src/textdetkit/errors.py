"""Exception types shared across the toolkit, the range check that
configurations use to raise :class:`ConfigError`, and the integer and string
checks that file readers share."""


class ShapeError(ValueError):
    """An array argument has an incompatible shape.

    Messages name the offending dimension so callers can report it directly.
    """


class ConfigError(ValueError):
    """A module or pipeline configuration is invalid (kernel sizes, head
    counts, thresholds out of range, ...)."""


class GeometryError(ValueError):
    """A geometric input is degenerate or out of range (zero-area polygon,
    inverted box, polygon outside its raster canvas)."""


class ParseError(ValueError):
    """An input file cannot be parsed or fails schema validation."""


class ImageIdMismatch(ValueError):
    """Inputs that must describe the same image disagree on the image id."""


class EmptyProposalSet(ValueError):
    """An instance-level operation received zero proposals."""


def check_range(name: str, value, low: float, high: float, *,
                low_closed: bool = False, high_closed: bool = False) -> None:
    """Raise ConfigError unless low < value < high (<= at a closed end).

    Phrased as "inside", so NaN, which compares false with everything, fails.
    """
    above = value >= low if low_closed else value > low
    below = value <= high if high_closed else value < high
    if not (above and below):
        interval = f"{'[' if low_closed else '('}{low:g}, {high:g}{']' if high_closed else ')'}"
        raise ConfigError(f"{name} must be in {interval}, got {value}")


def _json_int(value, what: str, error=ParseError) -> int:
    """An integer read from JSON; floats, bools and strings raise ``error``."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def _json_str(value, what: str) -> str:
    """A string read from JSON; any other JSON type raises ParseError."""
    if type(value) is not str:
        raise ParseError(f"{what} must be a JSON string, got {value!r}")
    return value
