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
