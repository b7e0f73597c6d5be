"""Exception types shared across the package, and its one JSON file reader,
integer rule and Laurent table rule (``read_json``, ``is_int``, ``mode_table``).

Two failure families matter to callers: bad input (DomainError and
friends, mapped to exit code 2 by the CLI) and numerical trouble
(QuadratureError, mapped to exit code 3).
"""

import json
import math
import numbers


class DomainError(ValueError):
    """A parameter lies outside the domain an operation is defined on."""


class ValidationError(ValueError):
    """Malformed input data: JSON files, grids, coefficient tables."""


def read_json(path):
    """The parsed contents of a JSON file; malformed JSON is a
    ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def is_int(x) -> bool:
    """Whether x is an integral number (numpy integers included); a bool
    is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def mode_table(coeffs) -> dict[int, complex]:
    """{mode: coefficient} with integer modes and finite complex
    coefficients, exact zeros dropped so that an absent mode means 0."""
    table = {}
    for n, b in dict(coeffs).items():
        if not is_int(n):
            raise ValidationError(f"mode index {n!r} is not an integer")
        b = complex(b)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ValidationError(f"coefficient of mode {n} is not finite: {b!r}")
        if b != 0:
            table[int(n)] = b
    return table


class InvalidMoveError(ValueError):
    """A pinch move cannot be applied to the surface it was aimed at."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class RankDeficiencyError(ValueError):
    """A Gram matrix failed its positive-definiteness check.

    Carries the offending (smallest) eigenvalue so callers can see how
    close to singular the basis was.
    """

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, message: str, estimate: float | None = None,
                 error: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
