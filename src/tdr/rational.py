"""Exact rational scalars at the boundary: parsing and formatting.

Everything in this package computes over Q.  Matrices hold integer rows
over one common denominator (exactalg.Matrix); a single rational, such as
an entry, a determinant or a polynomial coefficient, is the stdlib
fractions.Fraction, named Q here.  format_ratio writes the "p/q" (or "p")
form from a numerator and a denominator, so a Matrix entry is written
from its integer row and the matrix's denominator without a Fraction;
format_rational writes a Q through it.  It writes every digit, past the
int-string limit that parse_rational keeps: a result outgrows its input.
"""

from fractions import Fraction as Q
from math import gcd

from .errors import ParseError

ZERO = Q(0)
ONE = Q(1)


def parse_rational(value):
    """Parse "p/q" / "p" strings; JSON integers are accepted too.

    A str is tested first, since records are text; "p" is Q(p), with no
    normalisation to pay for."""
    if type(value) is not str:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ParseError(f"not a rational: {value!r}")
        if isinstance(value, int):
            return Q(value)
    num_s, sep, den_s = value.strip().partition("/")
    try:
        num = int(num_s)
        if not sep:
            return Q(num)
        den = int(den_s)
    except ValueError:
        raise ParseError(f"malformed rational {value!r}") from None
    if den == 0:
        raise ParseError(f"zero denominator in {value!r}")
    return Q(num, den)


def format_rational(x):
    return format_ratio(x.numerator, x.denominator)


def format_ratio(num, den):
    """The rational num / den (den > 0) as "p/q" in lowest terms, or "p"
    when it is an integer: a Matrix entry is written from its numerator
    and the matrix's denominator, with no Fraction."""
    g = gcd(num, den)
    if g == den:
        return _digits(num // g)
    return f"{_digits(num // g)}/{_digits(den // g)}"


def _digits(n):
    """str(n), also past Python's int-string limit: an n of 2000 bits or
    more (over 600 digits, which any setting of the limit allows) is cut
    at a power of ten about half way, and each part is written so."""
    if n.bit_length() < 2000:
        return str(n)
    k = n.bit_length() * 3 // 20
    hi, lo = divmod(abs(n), 10 ** k)
    return "-" * (n < 0) + _digits(hi) + _digits(lo).zfill(k)
