import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_hochschild import series
from wreath_hochschild.series import BiSeries, _slot_width, check_cap, check_count


def geometric(q_bound, t_bound, q_exp, t_exp):
    # sum_r q^(r*q_exp) t^(r*t_exp) by hand
    terms = []
    r = 0
    while r * q_exp <= q_bound and r * t_exp <= t_bound:
        terms.append((r * q_exp, r * t_exp, 1))
        r += 1
    return BiSeries.from_terms(q_bound, t_bound, terms)


def test_one_and_zero():
    one = BiSeries.one(4, 4)
    zero = BiSeries(4, 4)
    assert zero.is_zero()
    assert not one.is_zero()
    assert one * one == one
    assert one + zero == one
    assert one - one == zero


@pytest.mark.parametrize("combine", [lambda s: s + 1, lambda s: s - 1, lambda s: s * 1],
                         ids=["+", "-", "*"])
def test_a_series_combines_only_with_a_series(combine):
    # an int operand used to end in AttributeError ('int' object has no attribute 'q_bound')
    with pytest.raises(TypeError, match="^a BiSeries combines only with a BiSeries, got int$"):
        combine(BiSeries.one(3, 3))


def test_mul_truncates():
    s = BiSeries.from_terms(3, 2, [(1, 1, 1), (3, 2, 4)])
    p = s * s
    assert p.get(2, 2) == 1
    # q^4 and t^3 contributions fall outside the window
    assert all(n <= 3 and i <= 2 for n, i, _ in p.terms())


@pytest.mark.parametrize("build, message", [
    (lambda: BiSeries.from_terms(2, 2, [(1, 1, 2.9)]), "term (1, 1, 2.9) is not integral"),
    (lambda: BiSeries.from_terms(2, 2, [(1, 1, True)]), "term (1, 1, True) is not integral"),
    (lambda: BiSeries.from_terms(2, 2, [(1.0, 1, 1)]), "term (1.0, 1, 1) is not integral"),
    (lambda: BiSeries(True, 1), "q_bound must be a nonnegative int, got True"),
    (lambda: BiSeries(1, 1.0), "t_bound must be a nonnegative int, got 1.0"),
], ids=["coefficient 2.9", "coefficient True", "degree 1.0", "q_bound True",
        "t_bound 1.0"])
def test_series_refuses_non_int_entries(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("value, low, message", [
    (-1, 0, "x must be a nonnegative int, got -1"),
    (True, 0, "x must be a nonnegative int, got True"),
    (2.0, 1, "x must be a positive int, got 2.0"),
    ("2", 1, "x must be a positive int, got '2'"),
    (0, 1, "x must be a positive int, got 0"),
    (3, 4, "x must be an int >= 4, got 3"),
    (None, 4, "x must be an int >= 4, got None"),
])
def test_check_count_refuses_non_ints_and_values_below_low(value, low, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_count(value, "x", low)


def test_check_count_admits_ints_from_low_up():
    for low in (0, 1, 4):
        for value in (low, low + 1, 10 ** 30):
            assert check_count(value, "x", low) is None


def test_check_cap_admits_up_to_the_cap_and_refuses_above_it():
    assert check_cap("x 300", 300, 300) is None
    with pytest.raises(ValueError, match=r"^x 301 is above the cap of 300$"):
        check_cap("x 301", 301, 300)
    with pytest.raises(RuntimeError, match=r"^y is above the cap of 0$"):
        check_cap("y", 1, 0, RuntimeError)


def test_bound_mismatch_rejected():
    a = BiSeries.one(3, 3)
    b = BiSeries.one(3, 4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        try:
            op()
        except ValueError:
            pass
        else:
            assert False


def test_apply_factor_negative_power_is_geometric():
    one = BiSeries.one(8, 8)
    s = one.apply_factor(-1, 2, 1, -1)
    assert s == geometric(8, 8, 2, 1)


def test_apply_factor_inverse_pairs():
    rng = random.Random(11)
    one = BiSeries.one(7, 9)
    for _ in range(25):
        sign = rng.choice([1, -1])
        q_exp = rng.randrange(1, 4)
        t_exp = rng.randrange(0, 4)
        power = rng.randrange(1, 5)
        s = one.apply_factor(sign, q_exp, t_exp, power)
        back = s.apply_factor(sign, q_exp, t_exp, -power)
        assert back == one


def test_apply_factor_positive_power_is_binomial():
    one = BiSeries.one(5, 5)
    s = one.apply_factor(1, 1, 1, 3)
    # (1 + q t)^3
    assert s.q_coefficient(0) == {0: 1}
    assert s.q_coefficient(1) == {1: 3}
    assert s.q_coefficient(2) == {2: 3}
    assert s.q_coefficient(3) == {3: 1}
    assert s.q_coefficient(4) == {}


def test_q_coefficient_refuses_an_n_outside_the_truncation():
    s = BiSeries.one(3, 3)
    for n in (-1, 4, 9):
        with pytest.raises(IndexError, match="^coefficient outside truncation bounds$"):
            s.q_coefficient(n)


def test_apply_factor_rejects_divergent_expansion():
    one = BiSeries.one(4, 4)
    try:
        one.apply_factor(-1, 0, 2, -1)
    except ValueError:
        pass
    else:
        assert False


def test_apply_factor_sign_conventions():
    one = BiSeries.one(6, 6)
    # 1/(1 + q t) = 1 - q t + q^2 t^2 - ...
    s = one.apply_factor(1, 1, 1, -1)
    for r in range(7):
        assert s.q_coefficient(r) == {r: (-1) ** r}


def test_restrict():
    s = BiSeries.from_terms(5, 5, [(0, 0, 1), (2, 3, 7), (5, 5, 2)])
    r = s.restrict(3, 3)
    assert r.q_bound == 3 and r.t_bound == 3
    assert r.get(2, 3) == 7
    assert list(r.terms()) == [(0, 0, 1), (2, 3, 7)]


def test_q_coefficient_and_terms_roundtrip():
    rng = random.Random(3)
    terms = [(rng.randrange(5), rng.randrange(5), rng.randrange(-4, 5))
             for _ in range(12)]
    s = BiSeries.from_terms(4, 4, terms)
    rebuilt = BiSeries.from_terms(4, 4, s.terms())
    assert rebuilt == s
    total = {}
    for n, i, c in terms:
        total[(n, i)] = total.get((n, i), 0) + c
    for n in range(5):
        assert s.q_coefficient(n) == {
            i: c for (m, i), c in total.items() if m == n and c
        }


def expanded_factor(q_bound, t_bound, sign, q_exp, t_exp, power):
    # (1 + sign u)^power with u = q^q_exp t^t_exp, from dense products only
    if q_exp == t_exp == 0:
        base = BiSeries.from_terms(q_bound, t_bound, [(0, 0, 1 + sign)])
    else:
        # 1 + sign u, or its inverse sum_r (-sign)^r u^r
        steps = range(2) if power > 0 else range(q_bound + t_bound + 1)
        base = BiSeries.from_terms(q_bound, t_bound, [
            (r * q_exp, r * t_exp, sign if power > 0 and r else (-sign) ** r)
            for r in steps if r * q_exp <= q_bound and r * t_exp <= t_bound])
    out = BiSeries.one(q_bound, t_bound)
    for _ in range(abs(power)):
        out = out * base
    return out


def test_apply_factor_matches_dense_product():
    rng = random.Random(17)
    cases = [(sign, q_exp, t_exp, power)
             for sign in (1, -1)
             for power in range(-5, 6)
             for q_exp, t_exp in ((1, 0), (1, 1), (2, 3), (3, 1), (5, 0), (4, 2))]
    # factors entirely outside the bounds (q_bound 5, t_bound 6) leave the series as it is
    cases += [(sign, q_exp, t_exp, power)
              for sign in (1, -1) for power in (-3, 2)
              for q_exp, t_exp in ((1, 7), (6, 0), (9, 9))]
    # q_exp == 0 is allowed for positive powers, (1 + sign)^power included
    cases += [(sign, 0, t_exp, power)
              for sign in (1, -1) for power in range(1, 6) for t_exp in (0, 1, 2, 7)]
    for sign, q_exp, t_exp, power in cases:
        s = BiSeries.from_terms(5, 6, [(rng.randrange(6), rng.randrange(7),
                                        rng.randrange(-5, 6)) for _ in range(8)])
        before = BiSeries.from_terms(5, 6, s.terms())
        want = s * expanded_factor(5, 6, sign, q_exp, t_exp, power)
        assert s.apply_factor(sign, q_exp, t_exp, power) == want, (sign, q_exp, t_exp, power)
        assert s == before


def test_apply_factor_long_power_matches_passes():
    # a power longer than the truncated expansion takes the one-sweep route;
    # splitting it into short powers takes the pass route
    s = BiSeries.from_terms(6, 8, [(0, 0, 1), (1, 2, -3), (2, 1, 4)])
    for sign in (1, -1):
        for power in (9, -9, 40, -40):
            short = s
            for _ in range(abs(power)):
                short = short.apply_factor(sign, 2, 1, 1 if power > 0 else -1)
            assert s.apply_factor(sign, 2, 1, power) == short


def binomial(e, r):
    # e (e - 1) ... (e - r + 1) / r!, for any integer e
    num = den = 1
    for j in range(r):
        num *= e - j
        den *= j + 1
    return num // den


def truncated_expansion(q_bound, t_bound, sign, q_exp, t_exp, power):
    # (1 + sign u)^power = sum_r binomial(power, r) sign^r u^r, u = q^q_exp t^t_exp
    if q_exp == t_exp == 0:
        return BiSeries.from_terms(q_bound, t_bound, [(0, 0, (1 + sign) ** power)])
    terms, r = [], 0
    while r * q_exp <= q_bound and r * t_exp <= t_bound and (power < 0 or r <= power):
        terms.append((r * q_exp, r * t_exp, binomial(power, r) * sign ** r))
        r += 1
    return BiSeries.from_terms(q_bound, t_bound, terms)


def dense_euler_product(factors, q_bound, t_bound):
    out = BiSeries.one(q_bound, t_bound)
    for m in range(1, q_bound + 1):
        for sign, slope, offset, power in factors:
            out = truncated_expansion(q_bound, t_bound, sign, m, slope * m + offset, power) * out
    return out


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def euler_factors(draw):
    slope = draw(st.integers(0, 3))
    # the t exponent slope * m + offset is >= 0 from m = 1 on
    return (draw(st.sampled_from((1, -1))), slope, draw(st.integers(-slope, 3)),
            draw(st.integers(-6, 6)))


@PROPERTY
@given(st.lists(euler_factors(), max_size=4), st.integers(0, 12), st.integers(0, 30))
def test_euler_product_matches_the_dense_product_property(factors, q_bound, t_bound):
    want = dense_euler_product(factors, q_bound, t_bound)
    assert series._euler_product(factors, q_bound, t_bound) == want


@st.composite
def signed_series_and_factor(draw):
    q_bound, t_bound = draw(st.integers(0, 8)), draw(st.integers(0, 12))
    coefficient = st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80))
    terms = draw(st.lists(st.tuples(st.integers(0, q_bound), st.integers(0, t_bound),
                                    coefficient), max_size=12))
    q_exp = draw(st.integers(0, q_bound + 1))
    power = draw(st.integers(-6 if q_exp else 0, 6))
    factor = (draw(st.sampled_from((1, -1))), q_exp, draw(st.integers(0, t_bound + 1)), power)
    return BiSeries.from_terms(q_bound, t_bound, terms), factor


@PROPERTY
@given(signed_series_and_factor())
def test_apply_factor_matches_the_dense_product_property(case):
    s, (sign, q_exp, t_exp, power) = case
    before = BiSeries.from_terms(s.q_bound, s.t_bound, s.terms())
    want = truncated_expansion(s.q_bound, s.t_bound, sign, q_exp, t_exp, power) * s
    assert s.apply_factor(sign, q_exp, t_exp, power) == want
    assert s == before


def coloured_partition_counts(colours, n_max):
    # p_M(0..n_max): partitions into parts of M colours, one colour at a time
    counts = [1] + [0] * n_max
    for _ in range(colours):
        for part in range(1, n_max + 1):
            for n in range(part, n_max + 1):
                counts[n] += counts[n - part]
    return counts


# p_M(q_bound) has 7 or 15 bits (the sign bit fills its last byte) or 8 or
# 16 (it needs the sign bit of a byte more)
@pytest.mark.parametrize("colours, q_bound", [(2, 7), (4, 11), (1, 16), (4, 12), (6, 9)])
def test_euler_product_reads_p_M_at_the_width_bound(colours, q_bound):
    # (1 - q^m)^(-M) at slope 0 and offset 0 puts p_M(n) itself in slot t^0
    want = coloured_partition_counts(colours, q_bound)
    assert _slot_width(colours, q_bound) == want[-1].bit_length()
    s = series._euler_product([(-1, 0, 0, -colours)], q_bound, 3)
    assert s.coeff == [[c, 0, 0, 0] for c in want]


def test_apply_factor_error_checks():
    one = BiSeries.one(4, 4)
    for args in ((0, 1, 1, 1), (2, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1)):
        try:
            one.apply_factor(*args)
        except ValueError:
            pass
        else:
            assert False, args
    # power 0 returns an equal copy, even with q_exp == 0
    s = one.apply_factor(-1, 0, 2, 0)
    assert s == one and s is not one and s.coeff[0] is not one.coeff[0]


def test_repr_signs_units_and_zero():
    # 1/(1 + qt) = 1 - qt + q^2 t^2: a -1 coefficient after the constant row
    s = BiSeries.one(2, 3).apply_factor(1, 1, 1, -1)
    assert repr(s) == "BiSeries[q<=2, t<=3](1 + q^1*(-t) + q^2*(t^2))"
    s = BiSeries.one(3, 3).apply_factor(-1, 1, 1, 2).apply_factor(1, 0, 1, 1)
    assert repr(s) == "BiSeries[q<=3, t<=3](1 + t + q^1*(-2*t - 2*t^2) + q^2*(t^2 + t^3))"
    s = BiSeries.from_terms(2, 3, [(0, 0, -1), (0, 1, 1), (0, 2, -2), (2, 3, -1)])
    assert repr(s) == "BiSeries[q<=2, t<=3](-1 + t - 2*t^2 + q^2*(-t^3))"
    assert repr(BiSeries(1, 1)) == "BiSeries[q<=1, t<=1](0)"
