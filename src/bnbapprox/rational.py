"""Exact rational arithmetic shared by every solver component.

All bounds, profits, processing times and profile coordinates are
`fractions.Fraction` values. Fraction already guarantees the invariants the
solvers rely on: canonical form after every operation (positive denominator,
gcd-reduced), arbitrary-precision integers underneath, and a total order
consistent with the reals. This module adds the small set of operations the
rest of the package needs on top of that: construction from text, floor
division, the "num/den" text form of instance and result files and grids.

Values are immutable; sharing them across threads is safe.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Rat = Fraction

RatLike = Union[Rat, int, str]


def rat(value: RatLike, den: int | None = None) -> Rat:
    """Build a canonical rational from an int, a Fraction or "num/den" text."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, str):
        return parse_rat(value)
    return Fraction(value)


def parse_rat(text: str) -> Rat:
    """Parse the canonical text form: "num" or "num/den"."""
    if not isinstance(text, str):
        raise ValueError(f"rational literal {text!r} is not a \"num/den\" string")
    body = text.strip()
    if not body:
        raise ValueError("empty rational literal")
    num, sep, den = body.partition("/")
    try:
        if not sep:
            return Fraction(int(num))
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_rat(value: Rat) -> str:
    """Canonical text form; integers print without the "/1" suffix."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def floor_div(a: RatLike, b: RatLike) -> int:
    """Exact floor(a / b) for rational a, b with b != 0."""
    a, b = rat(a), rat(b)
    if b == 0:
        raise ZeroDivisionError("floor_div by zero")
    q = a / b
    return q.numerator // q.denominator


def grid_scale(values: Iterable[Rat]) -> int:
    """lcm of the denominators: the smallest scale putting values on integers."""
    return math.lcm(*[v.denominator for v in values])


def on_grid(values: Iterable[Rat], scale: int) -> tuple[int, ...]:
    """The values times `scale`, a multiple of every denominator, as ints."""
    return tuple([v.numerator * (scale // v.denominator) for v in values])
