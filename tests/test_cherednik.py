import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_hochschild import cherednik
from wreath_hochschild.cherednik import (
    CherednikElement,
    _kp,
    NormalMonomial,
    associativity_check,
    confluence_check,
    crossed_weyl_normal_order,
    multiply,
    normal_monomial_count,
    normal_order,
    pbw_dimension_check,
    spherical_check,
    spherical_idempotent,
    spherical_product,
)


def test_defining_relations():
    assert str(normal_order("p1 x1", 2)) == "x1 p1 - 1 + k s12"
    assert str(normal_order("p2 x1", 2)) == "x1 p2 - k s12"
    assert str(normal_order("p1 x1", 3)) == "x1 p1 - 1 + k s12 + k s13"
    # conjugation relabels indices
    assert str(normal_order("s12 x1 s12", 2)) == "x2"
    assert str(normal_order("s12 p2 s12", 2)) == "p1"


def test_commuting_blocks():
    assert normal_order("x2 x1", 2) == normal_order("x1 x2", 2)
    assert normal_order("p2 p1", 2) == normal_order("p1 p2", 2)
    assert str(normal_order("x2 x1 x1", 2)) == "x1^2 x2"


def test_word_input_forms():
    seq = [("p", 1), ("x", 1)]
    assert normal_order(seq, 2) == normal_order("p1 x1", 2)
    cyc = normal_order([("perm", (2, 3, 1))], 3)
    two = normal_order([("s", 1, 2), ("s", 2, 3)], 3)
    assert cyc == two
    assert str(cyc) == "(1 2 3)"


def test_bad_words():
    with pytest.raises(ValueError):
        normal_order("x3", 2)
    with pytest.raises(ValueError):
        normal_order([("s", 1, 1)], 2)
    with pytest.raises(ValueError):
        normal_order([("perm", (1, 1))], 2)
    with pytest.raises(ValueError):
        normal_order("y1", 2)
    with pytest.raises(ValueError):
        normal_order("p1 x1", 2, strategy="middle")
    # an index must be an int: not a float, and not True read as 1
    for word in ([("x", 1.0)], [("s", 1, 2.0)], [("p", 2.0)], [("x", True)]):
        with pytest.raises(ValueError, match="^generator index out of range$"):
            normal_order(word, 2)
    for one_line in ((1.0, 2.0), (True, 2), (2, True)):
        with pytest.raises(ValueError, match="^not a permutation in one-line notation$"):
            normal_order([("perm", one_line)], 2)


@pytest.mark.parametrize("word", [[5], 5, None, b"x1", [("perm", 5)], [()], [("perm",)]],
                         ids=["int letter", "int word", "None", "bytes", "perm of an int",
                              "empty letter", "perm without one-line"])
@pytest.mark.parametrize("reduce", [normal_order, crossed_weyl_normal_order],
                         ids=["normal_order", "crossed_weyl_normal_order"])
def test_a_malformed_word_is_a_value_error(reduce, word):
    # these raised TypeError or IndexError from inside the parser
    with pytest.raises(ValueError):
        reduce(word, 2)


def test_strategy_independence():
    for word in ("p1 p2 x1", "p1 x1 p1 x1", "s12 p1 x2 s12"):
        assert normal_order(word, 2, "leftmost") == normal_order(word, 2, "rightmost")


def test_long_words_are_rewritten_longest_first(monkeypatch):
    # (p1 x1)^6 at n = 3: a last-in, first-out work list rewrote 69456 words;
    # only the pairs rewritten count, not the pairs looked at (None)
    calls = []
    rewrite = cherednik._rewrite

    def counting(*args):
        terms = rewrite(*args)
        if terms is not None:
            calls.append(1)
        return terms

    monkeypatch.setattr(cherednik, "_rewrite", counting)
    assert len(normal_order(" ".join(["p1 x1"] * 6), 3).terms) == 1006
    assert len(calls) <= 25000


def test_powers_of_p1_x1_agree_across_strategies_and_the_letter_fold():
    for k in range(1, 7):
        word = " ".join(["p1 x1"] * k)
        left = normal_order(word, 3, "leftmost")
        assert normal_order(word, 3, "rightmost") == left
        if k <= 5:
            fold = CherednikElement.one(3)
            for letter in word.split():
                fold = multiply(fold, normal_order(letter, 3))
            assert fold == left


def test_multiply_matches_word_reduction():
    p1 = normal_order("p1", 2)
    x1 = normal_order("x1", 2)
    assert multiply(p1, x1) == normal_order("p1 x1", 2)
    assert multiply(x1, p1) == normal_order("x1 p1", 2)
    a = normal_order("p1 x2 s12", 2)
    assert multiply(a, CherednikElement.one(2)) == a
    with pytest.raises(ValueError):
        multiply(normal_order("x1", 2), normal_order("x1", 3))


def test_ring_operations():
    a = normal_order("x1", 2)
    b = normal_order("p2", 2)
    assert a + b - a == b
    assert 3 * a == a + a + a
    assert (a - a) == CherednikElement.zero(2)
    assert str(CherednikElement.zero(2)) == "0"
    # k-linear scaling
    ka = a.scale((Fraction(0), Fraction(1)))
    assert str(ka) == "k x1"


@pytest.mark.parametrize("mono", [
    NormalMonomial((1.5,), (0,), (0,)),
    NormalMonomial((0,), (0,), (2.0,)),
    NormalMonomial((True,), (0,), (0,)),
    NormalMonomial((0, 0), (1.0, 0.0), (0, 0)),
    NormalMonomial((0, 0), (1, False), (0, 0)),
    NormalMonomial([0, 0], (1, 0), (0, 0)),
    NormalMonomial((0, 0), [1, 0], (0, 0)),
    NormalMonomial((0, 0), (1, 0), [0, 0]),
], ids=["float x", "float p", "bool x", "float perm", "bool perm", "list x", "list perm",
        "list p"])
def test_constructor_refuses_a_monomial_field_that_is_not_a_tuple_of_ints(mono):
    with pytest.raises(ValueError, match=r"^bad monomial "):
        CherednikElement(len(mono.perm), [(mono, 1)])  # pairs: a list field is unhashable


@pytest.mark.parametrize("key", [((0,), (0,), (0,)), ((0,), (0,)), 5],
                         ids=["plain triple", "pair", "int"])
def test_constructor_refuses_a_key_that_is_not_a_normal_monomial(key):
    with pytest.raises(ValueError, match=r"^bad monomial "):
        CherednikElement(1, {key: 1})


def test_specialize_is_integer_first():
    mono = NormalMonomial((0, 0), (0, 1), (0, 0))
    got = CherednikElement(2, {mono: (0, 2)}).specialize(Fraction(1, 2))
    assert got == {mono: 1} and type(got[mono]) is int
    half = CherednikElement(2, {mono: (0, 1)}).specialize(Fraction(1, 2))[mono]
    assert half == Fraction(1, 2) and type(half) is Fraction


def test_degree_filtration():
    elem = normal_order("p1 x1 p1 x1", 2)
    top = NormalMonomial((2, 0), (0, 1), (2, 0))
    assert elem.terms[top] == (Fraction(1),)
    assert all(m.degree() <= 4 for m in elem.terms)


def test_specialize_at_zero_matches_crossed_product():
    rng = random.Random(11)
    for n, max_len in ((2, 5), (3, 4)):
        letters = ["x", "p"]
        for _ in range(25):
            word = []
            for _ in range(rng.randint(0, max_len)):
                if rng.random() < 0.25:
                    i, j = rng.sample(range(1, n + 1), 2)
                    word.append(("s", i, j))
                else:
                    word.append((rng.choice(letters), rng.randint(1, n)))
            assert normal_order(word, n).specialize(0) == crossed_weyl_normal_order(word, n)


def test_crossed_product_oracle_runs_without_the_rewriter(monkeypatch):
    samples = ["p1 x1", "p1 x1 s12 p2 x2", "x2 p2 p1 s12 x1 p1"]
    expected = [crossed_weyl_normal_order(w, 2) for w in samples]

    def no_rewriting(*args, **kwargs):
        raise AssertionError("the k = 0 oracle called the rewriting engine")

    for name in ("_reduce_words", "_rewrite", "_normal_form", "normal_order", "multiply"):
        monkeypatch.setattr(cherednik, name, no_rewriting)
    assert [crossed_weyl_normal_order(w, 2) for w in samples] == expected
    one = NormalMonomial((0, 0), (0, 1), (0, 0))
    x1p1 = NormalMonomial((1, 0), (0, 1), (1, 0))
    assert expected[0] == {x1p1: 1, one: -1}


def test_crossed_product_drops_k_terms():
    got = crossed_weyl_normal_order("p1 x1", 2)
    one = NormalMonomial((0, 0), (0, 1), (0, 0))
    x1p1 = NormalMonomial((1, 0), (0, 1), (1, 0))
    assert got == {x1p1: Fraction(1), one: Fraction(-1)}


def test_normal_monomial_counts():
    assert normal_monomial_count(2, 2) == 30
    assert normal_monomial_count(2, 0) == 2
    assert normal_monomial_count(3, 1) == 42
    for n, d in ((2, 3), (3, 2)):
        assert normal_monomial_count(n, d) == factorial(n) * comb(2 * n + d, d)


def test_confluence_reports():
    for n, d in ((2, 3), (3, 2)):
        rep = confluence_check(n, d)
        assert rep.passed, rep.lines


def test_confluence_failure_names_the_word_in_parser_tokens(monkeypatch):
    oracle = cherednik.crossed_weyl_normal_order

    def wrong_on_s1_10(word, n):
        return {} if list(word) == [("s", 1, 10)] else oracle(word, n)

    monkeypatch.setattr(cherednik, "crossed_weyl_normal_order", wrong_on_s1_10)
    rep = confluence_check(10, 1)
    assert not rep.passed
    assert rep.lines == ("[FAIL] k = 0 normal form of s1,10 disagrees with the crossed product",)
    assert normal_order("s1,10", 10) == normal_order([("s", 1, 10)], 10)


def test_pbw_reports():
    for n in (2, 3):
        rep = pbw_dimension_check(n, 2)
        assert rep.passed, rep.lines


def test_associativity_report():
    for n in (2, 3):
        rep = associativity_check(n, trials=25, seed=3)
        assert rep.passed, rep.lines


def test_spherical_idempotent():
    for n in (2, 3):
        e = spherical_idempotent(n)
        assert multiply(e, e) == e
        assert spherical_check(n).passed
    e = spherical_idempotent(2)
    assert spherical_product(CherednikElement.one(2)) == e
    assert spherical_product(normal_order("s12", 2)) == e


def test_formatting():
    e = spherical_idempotent(2)
    assert str(e) == "1/2 + 1/2 s12"
    assert str(-normal_order("x1", 2)) == "-x1"
    combined = normal_order("x1", 2).scale((Fraction(1), Fraction(-1)))
    assert str(combined) == "(1 - k) x1"


def test_generators_with_two_digit_indices():
    assert str(normal_order("x10 p10", 11)) == "x10 p10"
    assert normal_order("s1,10", 11) == normal_order([("s", 1, 10)], 11)
    assert str(normal_order([("s", 1, 10)], 11)) == "s1,10"
    assert str(normal_order([("s", 10, 11)], 11)) == "s10,11"
    # the comma form is written for every transposition once n >= 10
    assert str(normal_order([("s", 1, 2)], 10)) == "s1,2"
    # up to n = 9 the comma-less form is read and written as before
    assert normal_order("s12", 9) == normal_order("s1,2", 9)
    assert str(normal_order("s12", 9)) == "s12"
    with pytest.raises(ValueError, match="ambiguous generator 's12'"):
        normal_order("s12", 11)
    with pytest.raises(ValueError, match="cannot parse generator 's110'"):
        normal_order("s110", 11)
    with pytest.raises(ValueError, match="out of range"):
        normal_order("x12", 11)


def test_format_round_trip_at_n_11():
    rng = random.Random(5)
    n = 11
    for _ in range(60):
        xs = sorted(rng.sample(range(1, n + 1), rng.randint(1, 3)))
        ps = sorted(rng.sample(range(1, n + 1), rng.randint(0, 3)))
        word = [f"x{i}" for i in xs]
        if rng.random() < 0.7:
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            word.append(f"s{i},{j}")
        word += [f"p{i}" for i in ps]
        elem = normal_order(" ".join(word), n)
        assert len(elem.terms) == 1
        assert normal_order(str(elem), n) == elem


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def words(draw, n=None, n3_max_len=4):
    if n is None:
        n = draw(st.sampled_from((2, 3)))
    index = st.integers(1, n)
    atom = st.one_of(
        st.tuples(st.sampled_from(("x", "p")), index),
        st.lists(index, min_size=2, max_size=2, unique=True).map(lambda ij: ("s", *ij)))
    return n, draw(st.lists(atom, max_size=5 if n == 2 else n3_max_len))


@PROPERTY
@given(words())
def test_rewriting_is_confluent_and_specializes_to_the_crossed_product(case):
    n, word = case
    left = normal_order(word, n, "leftmost")
    assert normal_order(word, n, "rightmost") == left
    assert left.specialize(0) == crossed_weyl_normal_order(word, n)


def coefficient_values(elem):
    return [c for coeff in elem.terms.values() for c in coeff]


def assert_built_canonical(elem):
    """elem equals its rebuild through the checking constructor: the same
    keys, the same coefficient tuples and the same coefficient types."""
    rebuilt = CherednikElement(elem.n, elem.terms)
    assert rebuilt.terms == elem.terms
    assert all(type(m) is NormalMonomial for m in elem.terms)
    assert ({m: [type(v) for v in c] for m, c in elem.terms.items()}
            == {m: [type(v) for v in c] for m, c in rebuilt.terms.items()})


@PROPERTY
@given(words(n3_max_len=5), st.sampled_from(("leftmost", "rightmost")))
def test_normal_order_builds_its_result_canonical(case, strategy):
    n, word = case
    assert_built_canonical(normal_order(word, n, strategy))


SCALARS = st.one_of(st.integers(-2, 2),
                    st.fractions(min_value=-2, max_value=2, max_denominator=6))


@st.composite
def elements(draw, n):
    kind = draw(st.sampled_from(("word", "random", "idempotent")))
    if kind == "idempotent":
        return spherical_idempotent(n)
    if kind == "word":
        return normal_order(draw(words(n=n, n3_max_len=3))[1], n)
    monos = draw(st.lists(st.sampled_from(cherednik._all_monomials(n, 2)),
                          min_size=1, max_size=3))
    return CherednikElement(n, [(m, tuple(draw(st.lists(SCALARS, max_size=2))))
                                for m in monos])


@st.composite
def element_pairs(draw):
    n = draw(st.sampled_from((2, 3)))
    return n, draw(elements(n)), draw(elements(n))


@PROPERTY
@given(element_pairs())
def test_multiply_builds_its_result_canonical(case):
    # the 1/n! of the idempotent and random Fractions can sum to integers
    n, a, b = case
    assert_built_canonical(multiply(a, b))
    assert_built_canonical(spherical_product(a))
    assert_built_canonical(multiply(spherical_idempotent(n) * factorial(n), b))


def test_kp_stores_integral_values_as_ints():
    assert _kp(Fraction(3)) == _kp(3) == (3,)
    assert hash(_kp(Fraction(3))) == hash(_kp(3))
    assert type(_kp(Fraction(6, 2))[0]) is int
    assert _kp((Fraction(1, 2), 2.0, Fraction(0))) == (Fraction(1, 2), 2)
    assert [type(c) for c in _kp((Fraction(1, 2), 2.0))] == [Fraction, int]


def test_integral_words_hold_int_coefficients():
    for word, n in (("p1 x1", 3), ("p1 p2 x1 x2 s12", 2), ("x1 p1 x1 p1", 2)):
        elem = normal_order(word, n)
        assert all(type(c) is int for c in coefficient_values(elem))
    # the 1/n! of the symmetrizer is the one place a Fraction appears
    e = spherical_idempotent(3)
    assert set(coefficient_values(e)) == {Fraction(1, 6)}
    assert all(type(c) is int for c in coefficient_values(multiply(e, e) * 6))


@PROPERTY
@given(words())
def test_normal_forms_of_random_words_stay_exact(case):
    """No float reaches a normal form, its k = 0 specialisation, its
    printed form or its spherical compression."""
    n, word = case
    elem = normal_order(word, n)
    assert all(type(c) is int for c in coefficient_values(elem))
    assert all(type(c) is int for c in elem.specialize(0).values())
    assert all(type(c) is int for c in crossed_weyl_normal_order(word, n).values())
    assert "." not in str(elem)
    compressed = spherical_product(elem)
    assert all(type(c) in (int, Fraction) for c in coefficient_values(compressed))
    assert "." not in str(compressed)


@pytest.mark.parametrize("n", [2.0, True, 0, -1, "2"])
@pytest.mark.parametrize("entry", [
    lambda n: normal_order("x1", n),
    lambda n: crossed_weyl_normal_order("x1", n),
    spherical_idempotent,
    CherednikElement,
    lambda n: confluence_check(n, 2),
    lambda n: pbw_dimension_check(n, 1),
    lambda n: associativity_check(n, 1),
    spherical_check,
    lambda n: normal_monomial_count(n, 1),
], ids=["normal_order", "crossed_weyl_normal_order", "spherical_idempotent",
        "CherednikElement", "confluence_check", "pbw_dimension_check",
        "associativity_check", "spherical_check", "normal_monomial_count"])
def test_entry_points_refuse_an_n_that_is_not_a_positive_int(entry, n):
    with pytest.raises(ValueError, match="n must be a positive int"):
        entry(n)


@pytest.mark.parametrize("call", [
    lambda: confluence_check(2, -1),
    lambda: confluence_check(2, 1.5),
    lambda: pbw_dimension_check(2, "2"),
    lambda: pbw_dimension_check(2, -1),
    lambda: normal_monomial_count(2, -1),
    lambda: normal_monomial_count(2, True),
    lambda: associativity_check(2, trials=-3),
    lambda: associativity_check(2, trials=0),
], ids=["confluence_negative", "confluence_float", "pbw_str", "pbw_negative",
        "count_negative", "count_bool", "associativity_negative", "associativity_zero"])
def test_check_sizes_are_refused_before_any_word_is_reduced(monkeypatch, call):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for name in ("_words", "_all_monomials", "normal_order", "_normal_form", "multiply"):
        monkeypatch.setattr(cherednik, name, no_work)
    with pytest.raises(ValueError, match=r"^(max_deg must be a nonnegative|trials must be a positive) int, got "):
        call()
