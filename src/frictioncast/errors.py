"""Exception types shared across the package, and the JSON reader that
turns a bad file into one of them."""

import json


class FrictionCastError(Exception):
    """Base class for all package errors."""


class ShapeError(FrictionCastError, ValueError):
    """Operand shapes are incompatible."""


class DataError(FrictionCastError, ValueError):
    """Malformed or unusable input data."""


class ConfigError(FrictionCastError, ValueError):
    """Invalid configuration."""


class UnimputedValueError(FrictionCastError, ValueError):
    """A missing-value sentinel reached a model that cannot handle it."""


class DivergenceError(FrictionCastError, RuntimeError):
    """Training produced a non-finite loss."""


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; a missing, unreadable or
    malformed file raises ConfigError naming the path and `what` it held."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: {what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return doc
