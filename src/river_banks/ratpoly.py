"""Dense univariate polynomials with exact rational coefficients, the integer and
coefficient rules read from text and the exact-number rules for coefficients,
multiplicities, label parts and multidegrees.  A refusal echoes text through
``reprlib.repr``.  Only this module reads the interpreter's limit on the digits
of an integer as text: ``_check_digits`` refuses a count past it (text, a cell,
a grid's bound, a number an answer writes) naming it, and ``_written`` writes a
refusal's own numbers."""

from __future__ import annotations

import re
import reprlib
import sys
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

#: Every integer read from text, the grammar's INT included (every subcommand
#: loads this module): '1_0' and '٣', which int() reads, are refused.
_INT = re.compile(r"[+-]?[0-9]+")
#: Every coefficient or multiplicity read from text, in the CLI and the library alike:
#: "p" or "p/q" in ASCII digits after an optional '-' (Fraction() also reads ' 7', '+2', '1e3').
_COEFF = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")


def _int(text):
    """The integer ``text`` spells by the rule ``_INT``, surrounding whitespace ignored."""
    digits = text.strip()
    if _INT.fullmatch(digits) is None:
        raise ValueError("expected an integer (an optional sign and ASCII digits), "
                         f"got {reprlib.repr(text)}")
    _check_digits(len(digits.lstrip("+-")), "an integer has")
    return int(digits)


def _check_digits(digits, what):
    """Refuse ``digits`` decimal digits past the interpreter's limit (0 for none)."""
    limit = sys.get_int_max_str_digits()
    if 0 < limit < digits:
        raise ValueError(f"{what} {digits} digits, past the limit of {limit} digits for "
                         "integer string conversion (sys.set_int_max_str_digits)")


def _digits(v):
    """The decimal digits of ``|v|``, counted without ``str`` (which refuses past the limit)."""
    # 0.30103 > log10(2): the estimate is exact or one too many
    digits = abs(v).bit_length() * 30103 // 100000 + 1
    return digits - (abs(v) < 10 ** (digits - 1))


def _written(v: int) -> str:
    """``v`` in decimal, or "<D digits>" when the interpreter refuses to write it.

    For a refusal's own numbers: past the limit ``str`` raises, and a refusal
    that wrote the number would name the interpreter's limit, not its own.
    """
    try:
        return str(v)
    except ValueError:
        return f"<{_digits(v)} digits>"


def _decimal(v) -> str:
    """``str(v)`` of an int or a Fraction an answer writes, counted only once ``str`` refuses."""
    try:
        return str(v)
    except ValueError:
        _check_digits(max(_digits(v.numerator), _digits(v.denominator)),
                      "an integer in the answer has")
        raise


def _exact(v):
    """Collapse integral fractions to int so entries compare cleanly."""
    # an exact type test: isinstance on an int goes through the numbers ABCs
    if type(v) is Fraction and v.denominator == 1:
        return int(v)
    return v


def _coeff(c):
    """An exact number: an int passes through, anything else becomes an ``_exact`` Fraction.

    A Rational (a bool aside), a Decimal and "p" or "p/q" text (``_COEFF``)
    are read; any other value, a float or a bool included, is refused rather
    than read at its binary value.  q = 0 raises ZeroDivisionError.
    """
    if type(c) is int:
        return c
    if isinstance(c, bool) or not isinstance(c, (str, Rational, Decimal)):
        raise TypeError(f"expected an exact number, got {reprlib.repr(c)}")
    if isinstance(c, str) and _COEFF.fullmatch(c) is None:
        raise ValueError('expected "p" or "p/q" in ASCII digits after an optional "-", '
                         f"got {reprlib.repr(c)}")
    return _exact(Fraction(c))


def _ints(values):
    """A label's parts or a multidegree as ints; any other value is refused, not truncated."""
    values = tuple(values)
    if all(type(v) is int for v in values):
        return values
    raise TypeError(f"expected integers, got {next(v for v in values if type(v) is not int)!r}")


class RatPoly:
    """Immutable polynomial; ``coeffs[k]`` multiplies x**k, trailing zeros trimmed.

    Each coefficient is read by the exact-number rule (``_coeff``) and kept as a Fraction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(_coeff(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "RatPoly(0)"
        terms = [f"{c}*x^{k}" if k else str(c) for k, c in enumerate(self.coeffs) if c]
        return "RatPoly(" + " + ".join(terms) + ")"


def _expand(roots) -> list:
    """The integer coefficients of ``prod(x - r for r in roots)``, constant term first."""
    coeffs = [1]
    for r in roots:
        coeffs = [below - r * c for below, c in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs
