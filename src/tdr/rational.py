"""Exact rational scalars.

Everything in this package computes over Q.  The scalar type is gmpy2.mpq
when gmpy2 happens to be installed (it is not a dependency) and the stdlib
fractions.Fraction otherwise.  Both expose .numerator/.denominator and hash
alike, so results are identical either way; the elimination and product
kernels read those through int() and compute on Python integers.
"""

from .errors import ParseError

try:
    from gmpy2 import mpq as Q
except ImportError:
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def rat(num, den=1):
    return Q(num, den)


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
