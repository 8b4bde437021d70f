import random
import sys

import pytest

from tdr.errors import ParseError
from tdr.rational import Q, format_ratio, format_rational, parse_rational


def test_parse_fraction_strings():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-3/4") == Q(-3, 4)
    assert parse_rational("7") == Q(7)
    assert parse_rational("-7") == Q(-7)
    assert parse_rational(5) == Q(5)
    assert parse_rational("6/4") == Q(3, 2)


def test_parse_rejects_bad_values():
    for bad in ("1/0", "0/0", "x", "1.5", "1/2/3", "", 1.5, True, None, [1]):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_format_integers_have_no_slash():
    assert format_rational(Q(6, 3)) == "2"
    assert format_rational(Q(-6, 4)) == "-3/2"
    assert format_rational(Q(0)) == "0"


@pytest.mark.parametrize("num, den, text", [
    (3, 4, "3/4"), (-3, 4, "-3/4"), (0, 1, "0"), (0, 7, "0"), (5, 1, "5"),
    (-5, 1, "-5"), (6, 4, "3/2"), (-6, 4, "-3/2"), (12, 4, "3"), (-12, 6, "-2"),
    (10 ** 30, 10 ** 29, "10"), (2 ** 70 + 1, 2 ** 70, f"{2 ** 70 + 1}/{2 ** 70}"),
])
def test_format_ratio_writes_lowest_terms(num, den, text):
    assert format_ratio(num, den) == text
    assert format_rational(Q(num, den)) == text


def test_format_ratio_writes_every_digit_past_the_int_string_limit():
    """Seeded numerators and denominators of 600 to 20000 digits, and powers
    of ten and their neighbours, are written digit for digit; str, with the
    limit lifted in this test only, is the oracle."""
    rng = random.Random(2937)
    cases = [(10 ** k + j, 1) for k in (602, 4300, 9000) for j in (-1, 0, 1)]
    cases += [(rng.choice((1, -1)) * rng.randrange(10 ** rng.randint(600, 20000)),
               rng.randrange(1, 10 ** rng.randint(1, 20000))) for _ in range(20)]
    got = [format_ratio(num, den) for num, den in cases]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert got == [str(Q(num, den)) for num, den in cases]
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_parse_round_trip():
    rng = random.Random(0)
    for _ in range(300):
        q = Q(rng.randint(-99, 99), rng.randint(1, 40))
        assert parse_rational(format_rational(q)) == q


def test_exact_arithmetic():
    assert Q(1, 3) + Q(1, 6) == Q(1, 2)
    assert Q(2, 3) * Q(3, 2) == 1
    assert Q(1, 10) + Q(2, 10) == Q(3, 10)


def _parse_rational_reference(value):
    """parse_rational as it read before it tested for text first: the
    reference of the differential test below."""
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


class _Text(str):
    pass


class _Halved(str):
    """Text whose strip() keeps its first half: a subclass's own strip is
    what reads it."""

    def strip(self, chars=None):
        return str(self)[:len(self) // 2]


class _Count(int):
    def __repr__(self):
        return f"_Count({int(self)})"


def _read(parse, value):
    try:
        got = parse(value)
    except Exception as exc:   # the class and message are what is compared
        return type(exc), str(exc)
    return type(got), got, got.numerator, got.denominator


def test_parse_rational_agrees_with_its_reference():
    """Every value and refusal equal to the reference's, on fixed edge cases
    and 3000 seeded strings over digits, signs, slashes, blanks, underscores,
    points, exponents and non-ASCII digits."""
    long = "7" * 4301
    cases = ["+3", " -3/4 ", "3/-4", "0/5", "-0", "1_000", "1__0", "_1",
             "٣", "７/８", "٣/٤", "3/0", "0/0", "-3/-0",
             "", " ", "/", "3/", "/4", "3.5", "1e3", "1/2/3", "3 /4", "\t9\n",
             long, "1/" + long, long[:4300], "-" + long[:4300] + "/3",
             _Text("5/10"), _Text(" 6 "), _Halved("12/34"), _Halved("1/0xyz"),
             _Count(4), _Count(-9), True, False, None, 1.5, 2.0,
             float("nan"), [1], (1, 2), b"3", Q(1, 2), 10 ** 40, -7, 0]
    rng = random.Random(3329)
    alphabet = "0123456789+-/ _.e٣７x"
    cases += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
              for _ in range(3000)]
    cases += [f"{rng.randint(-10 ** 30, 10 ** 30)}/{rng.randint(-99, 10 ** 20)}"
              for _ in range(500)]
    values = 0
    for value in cases:
        want = _read(_parse_rational_reference, value)
        assert _read(parse_rational, value) == want, value
        values += want[0] is Q
    assert 600 < values < len(cases) - 600   # both outcomes are exercised
