"""Exact rational scalars at the boundary: parsing and formatting.

Everything in this package computes over Q.  Matrices hold integer rows
over one common denominator (exactalg.Matrix); a single rational, such as
an entry, a determinant or a polynomial coefficient, is the stdlib
fractions.Fraction, named Q here.
"""

from fractions import Fraction as Q

from .errors import ParseError

ZERO = Q(0)
ONE = Q(1)


def parse_rational(value):
    """Parse "p/q" / "p" strings; JSON integers are accepted too."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Q(value)
    if not isinstance(value, str):
        raise ParseError(f"not a rational: {value!r}")
    text = value.strip()
    num_s, sep, den_s = text.partition("/")
    try:
        num = int(num_s)
        den = int(den_s) if sep else 1
    except ValueError:
        raise ParseError(f"malformed rational {value!r}") from None
    if den == 0:
        raise ParseError(f"zero denominator in {value!r}")
    return Q(num, den)


def format_rational(x):
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"
