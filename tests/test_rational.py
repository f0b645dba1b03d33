import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from bnbapprox.rational import floor_div, format_rat, parse_rat, rat
from guarantees import c_alpha_m


def test_compare_against_left_turn_constant():
    # 5389901/1000 vs c_{alpha,m} at alpha=97/100, m=5, evaluated exactly
    c = c_alpha_m(rat(97, 100), 5)
    assert c == 1 + rat(5 * 97, 100) / rat(3, 100) ** 2  # max attained by the first term
    assert c == rat(48509, 9)
    # independent high-precision check
    getcontext().prec = 60
    a = Decimal(97) / Decimal(100)
    dec = 1 + max(5 * a / (1 - a) ** 2, (5 + 1) / (1 - a))
    assert abs(Decimal(c.numerator) / Decimal(c.denominator) - dec) < Decimal("1e-40")
    assert rat(5389901, 1000) > c


def test_parse_format_roundtrip():
    for text in ["0", "5", "-7", "2/3", "-9/4", "48509/9"]:
        assert format_rat(parse_rat(text)) == text
    assert parse_rat("6/2") == 3
    assert format_rat(parse_rat("6/2")) == "3"
    assert parse_rat(" 4/8 ") == rat(1, 2)
    for bad in ["", "a", "1/0", "1/2/3", "1.5"]:
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_canonical_form():
    q = rat(6, -4)
    assert q.denominator > 0
    assert (q.numerator, q.denominator) == (-3, 2)


def test_algebraic_properties_random():
    # associativity / commutativity / distributivity on random triples
    rnd = random.Random(20240817)

    def draw():
        return Fraction(rnd.randint(-50, 50), rnd.randint(1, 50))

    for _ in range(10_000):
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if c != 0:
            assert (a + b) / c == a / c + b / c


def test_floor_and_pow_match_integer_arithmetic():
    rnd = random.Random(7)
    for _ in range(2000):
        a, b = rnd.randint(-100, 100), rnd.randint(1, 40)
        assert floor_div(rat(a), rat(b)) == a // b
    assert floor_div(rat(7, 2), rat(1, 3)) == 10  # 21/2
