"""Exception types shared across the package, and its one JSON file reader,
integer rule, number rule, Laurent table rule and table file form
(``read_json``, ``is_int``, ``json_double``, ``mode_table``,
``modes_from_json``/``modes_to_json``).

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
    """The parsed contents of a JSON file; a file json cannot read (not
    JSON, too deep, an integer too long) is a ValidationError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def is_int(x) -> bool:
    """Whether x is an integral number (numpy integers included); a bool
    is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def json_double(x) -> float:
    """A JSON number as a double: an int or a float, not a bool, inside the
    double range; a ValidationError otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"{x!r} is not a number")
    try:
        return float(x)
    except OverflowError:
        raise ValidationError("an integer beyond the double range") from None


#: largest |mode| of a Laurent table, and of a sweep's n_max.  lp_norm's
#: largest quadrature round samples phi at ~4200 heights on 8 max|n|
#: angles: about 4200 x 8192 complex values, 550 MB, at this bound.
MODE_MAX = 1024


def _mode_index(n, where: str = "") -> int:
    """n as an int, or a ValidationError whose message starts ``where``."""
    if not is_int(n):
        raise ValidationError(f"{where}mode index {n!r} is not an integer")
    if abs(n) > MODE_MAX:
        raise ValidationError(f"{where}mode index beyond +-{MODE_MAX}")
    return int(n)


def mode_table(coeffs) -> dict[int, complex]:
    """{mode: coefficient} with integer modes within +-MODE_MAX and finite
    complex coefficients, exact zeros dropped so that an absent mode
    means 0."""
    table = {}
    for n, b in dict(coeffs).items():
        n = _mode_index(n)
        b = complex(b)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ValidationError(f"coefficient of mode {n} is not finite: {b!r}")
        if b != 0:
            table[n] = b
    return table


def modes_from_json(data, key: str) -> dict[int, complex]:
    """A Laurent table file: a JSON array of {key, "re", "im"} entries with
    a mode as mode_table takes it, no mode twice and numeric re/im."""
    if not isinstance(data, list):
        raise ValidationError(f"file must be a JSON array of {{{key}, re, im}}")
    table: dict[int, complex] = {}
    for i, item in enumerate(data):
        if not isinstance(item, dict) or not {key, "re", "im"} <= set(item):
            raise ValidationError(f"entry {i} needs keys {key}/re/im, got {item!r}")
        n = _mode_index(item[key], f"entry {i}: ")
        if n in table:
            raise ValidationError(f"entry {i}: duplicate mode {key}={n}")
        try:
            table[n] = complex(*map(json_double, (item["re"], item["im"])))
        except ValidationError as exc:
            raise ValidationError(
                f"entry {i}: bad coefficient for {key}={n}: {exc}") from exc
    return table


def modes_to_json(table, key: str) -> list:
    """The file form of ``table``, sorted by mode."""
    return [{key: int(n), "re": float(b.real), "im": float(b.imag)}
            for n, b in sorted(dict(table).items())]


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
