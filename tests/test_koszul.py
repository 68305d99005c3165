import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_hochschild import koszul
from wreath_hochschild.koszul import (
    RankOneElement,
    WindowInstability,
    build_cochain_complex,
    crossed_z2_cohomology,
    duality_check,
    epsilon,
    hh_cohomology_rank_one,
    multiply,
    window_keys,
)
from wreath_hochschild.linalg import CertificateError, addmul_into, rank_of
from wreath_hochschild.ratfunc import RatFunc

M = RankOneElement.monomial


def test_defining_relations():
    # p x = x p - 1
    got = multiply(M("weyl", 0, 1), M("weyl", 1, 0))
    assert got == RankOneElement("weyl", {(1, 1): 1, (0, 0): -1})
    # p X = X p - X
    got = multiply(M("trig", 0, 1), M("trig", 1, 0))
    assert got == RankOneElement("trig", {(1, 1): 1, (1, 0): -1})
    # P X = q^{-1} X P
    got = multiply(M("qweyl", 0, 1), M("qweyl", 1, 0))
    assert got == RankOneElement("qweyl", {(1, 1): RatFunc.q_power(-1)})


def test_multiply_kind_mismatch():
    with pytest.raises(ValueError):
        multiply(M("weyl", 1, 0), M("trig", 1, 0))


def rand_element(kind, rng, deg=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        if kind == "weyl":
            a, b = rng.randint(0, deg), rng.randint(0, deg)
        elif kind == "trig":
            a, b = rng.randint(-deg, deg), rng.randint(0, deg)
        else:
            a, b = rng.randint(-deg, deg), rng.randint(-deg, deg)
        terms[(a, b)] = Fraction(rng.randint(-3, 3))
    return RankOneElement(kind, terms)


def test_multiply_associative():
    rng = random.Random(2)
    for kind in ("weyl", "trig", "qweyl"):
        for _ in range(8):
            f, g, h = (rand_element(kind, rng) for _ in range(3))
            assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


def test_unit_and_linearity():
    rng = random.Random(5)
    one = RankOneElement.one("trig")
    f = rand_element("trig", rng)
    assert multiply(one, f) == f
    assert multiply(f, one) == f
    g = rand_element("trig", rng)
    h = rand_element("trig", rng)
    assert multiply(f + g, h) == multiply(f, h) + multiply(g, h)


def test_exponent_domains():
    with pytest.raises(ValueError):
        RankOneElement("weyl", {(-1, 0): 1})
    with pytest.raises(ValueError):
        RankOneElement("trig", {(0, -1): 1})
    RankOneElement("qweyl", {(-2, -3): 1})  # fine


def test_epsilon_is_an_involutive_automorphism():
    rng = random.Random(9)
    for kind in ("weyl", "trig", "qweyl"):
        for _ in range(6):
            f, g = rand_element(kind, rng), rand_element(kind, rng)
            assert epsilon(epsilon(f)) == f
            assert epsilon(multiply(f, g)) == multiply(epsilon(f), epsilon(g))


def test_window_counts():
    assert len(window_keys("weyl", 8)) == 45  # C(10, 2)
    assert len(window_keys("trig", 8)) == 81  # (N+1)^2
    assert len(window_keys("qweyl", 8)) == 145  # 2N^2 + 2N + 1


def per_kind_window_keys(kind, N):
    # reference: one loop per kind over its exponent domain
    keys = []
    if kind == "weyl":
        for a in range(N + 1):
            for b in range(N + 1 - a):
                keys.append((a, b))
    elif kind == "trig":
        for a in range(-N, N + 1):
            for b in range(N + 1 - abs(a)):
                keys.append((a, b))
    else:
        for a in range(-N, N + 1):
            r = N - abs(a)
            for b in range(-r, r + 1):
                keys.append((a, b))
    return sorted(keys)


def per_kind_degree(kind, key):
    a, b = key
    if kind == "weyl":
        return a + b
    if kind == "trig":
        return abs(a) + b
    return abs(a) + abs(b)


@pytest.mark.parametrize("kind", ["weyl", "trig", "qweyl"])
def test_window_keys_and_ae_window_match_the_per_kind_loops(kind):
    for N in range(17):
        singles = per_kind_window_keys(kind, N)
        assert window_keys(kind, N) == singles
        assert koszul._ae_window(kind, N) == sorted(
            (k1, k2) for k1 in singles for k2 in singles
            if per_kind_degree(kind, k1) + per_kind_degree(kind, k2) <= N)


def column_by_column_resolution(kind, basis, u, w):
    # reference: xi -> (xi.w, -xi.u), then (xi1, xi2) -> xi1.u + xi2.w
    one = koszul._one(kind)
    first, second = {}, {}
    for xi in basis:
        el = {xi: one}
        xu, xw = koszul._ae_mul(kind, el, u), koszul._ae_mul(kind, el, w)
        first[xi] = {(0, k): v for k, v in xw.items()}
        first[xi].update(((1, k), -v) for k, v in xu.items())
        second[(0, xi)], second[(1, xi)] = xu, xw
    return first, second


@pytest.mark.parametrize("kind, w_is_u", [
    ("weyl", False), ("trig", False), ("qweyl", False), ("weyl", True)])
def test_koszul_builder_has_the_margin_dims_of_the_resolution(kind, w_is_u):
    u, w, _, _ = koszul._ae_uw(kind)
    if w_is_u:
        w = u
    for N in (4, 5, 6):
        chain = [koszul._ae_window(kind, N - 2), koszul._ae_window(kind, N)]
        first, second = column_by_column_resolution(kind, chain[1], u, w)
        d0, d1 = koszul._koszul_columns(chain[1], lambda m: koszul._ae_mul(kind, m, u),
                                        lambda m: koszul._ae_mul(kind, m, w), koszul._one(kind))
        assert koszul._margin_dims(d0, d1, chain) == koszul._margin_dims(first, second, chain)


WINDOW_CALLS = (lambda N: hh_cohomology_rank_one("weyl", "id", N),
                lambda N: crossed_z2_cohomology("weyl", N),
                lambda N: build_cochain_complex("weyl", "id", N),
                lambda N: duality_check("weyl", N))


def test_window_too_small():
    for call in WINDOW_CALLS:
        with pytest.raises(ValueError, match=r"^window must be an int >= 4, got 2$"):
            call(2)


def test_window_must_be_an_int_of_at_least_4():
    for call in WINDOW_CALLS:
        for N in (6.0, True, "6"):
            with pytest.raises(ValueError, match=r"window must be an int >= 4, got "):
                call(N)
        with pytest.raises(ValueError, match=r"^window must be an int >= 4, got 3$"):
            call(3)
    with pytest.raises(ValueError, match=r"^window must be an int >= 4, got None$"):
        hh_cohomology_rank_one("weyl", "id", None)


@pytest.mark.parametrize("call", [
    lambda kind: hh_cohomology_rank_one(kind, "id", 6),
    lambda kind: crossed_z2_cohomology(kind, 6),
    lambda kind: build_cochain_complex(kind, "id", 6),
    lambda kind: duality_check(kind, 6),
], ids=["hh_cohomology_rank_one", "crossed_z2_cohomology", "build_cochain_complex",
        "duality_check"])
@pytest.mark.parametrize("kind", ["foo", "Weyl"])
def test_an_unknown_kind_is_refused_before_any_column(monkeypatch, call, kind):
    def no_work(*args):
        raise AssertionError("a window was built")

    for name in ("_ae_uw", "_complex_columns", "_invariant_sector_dims", "_ae_window",
                 "window_keys", "_ae_mul", "_window"):
        monkeypatch.setattr(koszul, name, no_work)
    with pytest.raises(ValueError, match=rf"^unknown kind '{kind}'$"):
        call(kind)


@pytest.mark.parametrize("kind", ["weyl", "trig", "qweyl"])
@pytest.mark.parametrize("key", [(1.5, 0), (0, 2.0), (True, 0), (0, False)],
                         ids=["float a", "float b", "bool a", "bool b"])
def test_rank_one_element_refuses_an_exponent_that_is_not_an_int(kind, key):
    with pytest.raises(ValueError, match=r"^exponents \(.*\) outside the \w+ domain$"):
        RankOneElement(kind, {key: 1})


@pytest.mark.parametrize("key", [5, (1, 2, 3), (1,)], ids=["int", "triple", "single"])
def test_rank_one_element_refuses_a_key_that_is_not_a_pair(key):
    with pytest.raises(ValueError, match=rf"^exponents {re.escape(repr(key))} outside the weyl domain$"):
        RankOneElement("weyl", {key: 1})


def test_cochain_composite_is_zero():
    for kind in ("weyl", "trig", "qweyl"):
        for twist in ("id", "eps"):
            d0, d1, comp = build_cochain_complex(kind, twist, 4)
            assert all(not col for col in comp.values()), (kind, twist)
            assert set(d0) == set(window_keys(kind, 4))


def test_qweyl_untwisted_first_differential_is_diagonal():
    d0, _, _ = build_cochain_complex("qweyl", "id", 4)
    for (a, b), col in d0.items():
        ucomp = {k: v for (i, k), v in col.items() if i == 0}
        expect = {} if b == 0 else {(a, b): RatFunc.q_power(b) - RatFunc.from_int(1)}
        assert ucomp == expect


def test_weyl_kernel_is_constants():
    d0, _, _ = build_cochain_complex("weyl", "id", 6)
    # only the constant monomial is killed by both commutators
    zero_cols = [key for key, col in d0.items() if not col]
    assert zero_cols == [(0, 0)]


def test_cohomology_dimensions():
    assert hh_cohomology_rank_one("weyl", "id", 8) == (1, 0, 0)
    assert hh_cohomology_rank_one("trig", "id", 8) == (1, 1, 0)
    assert hh_cohomology_rank_one("qweyl", "id", 8) == (1, 2, 1)
    assert hh_cohomology_rank_one("weyl", "eps", 8) == (0, 0, 1)
    assert hh_cohomology_rank_one("trig", "eps", 8) == (0, 0, 2)
    assert hh_cohomology_rank_one("qweyl", "eps", 8) == (0, 0, 4)


def test_crossed_product_dimensions():
    assert crossed_z2_cohomology("weyl", 8) == (1, 0, 1)
    assert crossed_z2_cohomology("trig", 8) == (1, 0, 2)
    assert crossed_z2_cohomology("qweyl", 8) == (1, 0, 5)


def test_window_instability(monkeypatch):
    calls = []

    def drifting(kind, twist, N):
        calls.append(N)
        return (N, 0, 0)

    def drifting_chain(kind, twist, windows):
        return [drifting(kind, twist, N) for N in windows]

    monkeypatch.setattr(koszul, "_windowed_dims", drifting_chain)
    monkeypatch.setattr(koszul, "_invariant_sector_dims", drifting_chain)
    with pytest.raises(WindowInstability) as err:
        hh_cohomology_rank_one("weyl", "id", 6)
    assert str(err.value) == "weyl/id: dims (6, 0, 0) at N=6 but (4, 0, 0) at N=4"
    with pytest.raises(WindowInstability) as err:
        crossed_z2_cohomology("weyl", 6)
    assert str(err.value) == "weyl crossed: dims (12, 0, 0) at N=6 but (8, 0, 0) at N=4"
    # windows 4 and 5 have no admissible N-2 window, so nothing is rechecked
    for N in (4, 5):
        calls.clear()
        assert hh_cohomology_rank_one("weyl", "id", N) == (N, 0, 0)
        assert calls == [N]
        calls.clear()
        assert crossed_z2_cohomology("weyl", N) == (2 * N, 0, 0)
        assert calls == [N, N]


def single_window_dims(d0, d1, margin, one):
    """Reference margin homology of one window, by separate rank passes;
    margin span modulo an image is read by inserting the unit vectors."""
    margin1 = [(i, s) for i in (0, 1) for s in margin]

    def modulo(cols, keys):
        cols = list(cols)
        return rank_of(cols + [{k: one} for k in keys]) - rank_of(cols)

    h0 = len(margin) - rank_of(d0[s] for s in margin)
    k1 = len(margin1) - rank_of(d1[key] for key in margin1)
    i1 = len(margin1) - modulo(d0.values(), margin1)
    return (h0, k1 - i1, modulo(d1.values(), margin))


@pytest.mark.parametrize("N", range(6, 11))
@pytest.mark.parametrize("twist", ["id", "eps"])
@pytest.mark.parametrize("kind", ["weyl", "trig", "qweyl"])
def test_chain_matches_single_windows(kind, twist, N):
    want = []
    for W in (N, N - 2):
        d0, d1 = koszul._complex_columns(kind, twist, W)
        margin = [k for k in d0 if koszul.monomial_degree(k) <= W - 2]
        want.append(single_window_dims(d0, d1, margin, koszul._one(kind)))
    assert koszul._windowed_dims(kind, twist, (N, N - 2)) == want
    assert koszul._windowed_dims(kind, twist, (N,)) == want[:1]


def test_chain_matches_single_windows_on_random_complexes():
    # arbitrary columns (d1 d0 need not vanish), so the windows' dims differ
    rng = random.Random(23)
    dims_seen = set()
    for _ in range(40):
        keys = list(range(rng.randint(3, 9)))
        rng.shuffle(keys)
        cuts = sorted(rng.sample(range(1, len(keys) + 1), 3))
        chain = [keys[:c] for c in cuts]

        def column(rows):
            return {r: Fraction(rng.randint(-2, 2)) for r in rows
                    if rng.random() < 0.3}

        d0 = {s: column([(i, k) for i in (0, 1) for k in keys]) for s in keys}
        d1 = {(i, s): column(keys) for i in (0, 1) for s in keys}
        got = koszul._margin_dims(d0, d1, chain)
        want = []
        for margin, window in zip(chain, chain[1:]):
            inside = set(window)
            want.append(single_window_dims(
                {s: c for s, c in d0.items() if s in inside},
                {key: c for key, c in d1.items() if key[1] in inside},
                margin, Fraction(1)))
        assert got == want
        dims_seen.update(want)
    assert len(dims_seen) > 10


@pytest.mark.parametrize("twist", ["id", "eps"])
@pytest.mark.parametrize("kind", ["weyl", "trig", "qweyl"])
def test_sector_window_restricted_from_window_n_matches_a_direct_build(kind, twist):
    # window N-2 of the crossed totals restricts the columns of window N
    for N in (6, 7, 8):
        outer, inner = koszul._invariant_sector_dims(kind, twist, (N, N - 2))
        assert outer == koszul._invariant_sector_dims(kind, twist, (N,))[0]
        assert inner == koszul._invariant_sector_dims(kind, twist, (N - 2,))[0]


def test_windows_above_the_cap_are_refused_before_any_column(monkeypatch):
    def no_work(*args):
        raise AssertionError("a window was built")

    for name in ("_complex_columns", "_invariant_sector_dims", "_ae_window",
                 "window_keys", "_ae_mul"):
        monkeypatch.setattr(koszul, name, no_work)
    sector, dual = koszul.MAX_SECTOR_WINDOW, koszul.MAX_DUALITY_WINDOW
    for call, cap in ((lambda N: hh_cohomology_rank_one("qweyl", "eps", N), sector),
                      (lambda N: crossed_z2_cohomology("qweyl", N), sector),
                      (lambda N: build_cochain_complex("qweyl", "id", N), sector),
                      (lambda N: duality_check("qweyl", N), dual)):
        with pytest.raises(ValueError) as err:
            call(cap + 1)
        assert str(err.value) == f"window {cap + 1} is above the cap of {cap}"
    # at the cap the window is accepted and computed
    calls = []
    monkeypatch.setattr(koszul, "_windowed_dims",
                        lambda kind, twist, windows: calls.append(windows)
                        or [(1, 0, 0)] * len(windows))
    assert hh_cohomology_rank_one("weyl", "id", sector) == (1, 0, 0)
    assert calls == [(sector, sector - 2)]


def test_involution_certificate_guards_the_unit_table(monkeypatch):
    # the sector symmetry is derived from nu_u, nu_w; a wrong unit for trig
    # (1⊗1 instead of X^{-1}⊗X) must fail the chain-map certificate
    table = koszul._ae_uw

    def wrong_nu_u(kind):
        u, w, nu_u, nu_w = table(kind)
        if kind == "trig":
            nu_u = {((0, 0), (0, 0)): Fraction(1)}
        return u, w, nu_u, nu_w

    monkeypatch.setattr(koszul, "_ae_uw", wrong_nu_u)
    with pytest.raises(CertificateError, match="symmetry is not a chain map"):
        crossed_z2_cohomology("trig", 6)


DUALITY_LINES = (
    "[pass] u and w commute in the enveloping algebra",
    "[pass] factor swap sends u, w to unit multiples of themselves",
    "[pass] consecutive differentials compose to zero on the full window",
    "[pass] dual differentials match the swap-transported Koszul matrices",
    "[pass] second differential is injective on the margin",
    "[pass] margin kernel of the first differential equals the windowed image of the second",
    "[pass] margin kernel of the multiplication map equals the windowed image of the "
    "first differential",
    "[pass] top dual cohomology on the margin has the dimension of the windowed algebra",
)


def test_duality_reports():
    for kind in ("weyl", "trig", "qweyl"):
        rep = duality_check(kind)
        assert rep.passed, (kind, rep.lines)
        assert rep.name == f"koszul self-duality {kind}"
        assert rep.lines == DUALITY_LINES


@pytest.mark.parametrize("kind, patch, expect", [
    # trig with nu_u = 1⊗1: the swap and the dual-differential lines fail
    ("trig", lambda u, w, nu_u, nu_w: (u, w, {((0, 0), (0, 0)): Fraction(1)}, nu_w),
     [True, False, True, False, True, True, True, True]),
    # weyl with w = u: the resolution is no longer exact
    ("weyl", lambda u, w, nu_u, nu_w: (u, u, nu_u, nu_u), [True] * 5 + [False] * 3),
    # weyl with w = 1⊗p: u and w no longer commute
    ("weyl", lambda u, w, nu_u, nu_w: (u, {((0, 0), (0, 1)): Fraction(1)}, nu_u, nu_w),
     [False] * 4 + [True] + [False] * 3),
], ids=["trig-unit-nu_u", "weyl-w-equals-u", "weyl-w-one-sided"])
def test_duality_check_fails_on_a_corrupted_table(monkeypatch, kind, patch, expect):
    table = koszul._ae_uw
    monkeypatch.setattr(koszul, "_ae_uw", lambda k: patch(*table(k)))
    rep = duality_check(kind)
    assert not rep.passed
    assert [line.startswith("[pass] ") for line in rep.lines] == expect
    assert [line.split("] ", 1)[1] for line in rep.lines] == \
        [line.split("] ", 1)[1] for line in DUALITY_LINES]


def test_enveloping_product_over_q_adds_q_exponents():
    # reference: the term-by-term product through the monomial products
    def reference(f, g):
        out = {}
        for (k1, k2), cf in f.items():
            for (l1, l2), cg in g.items():
                left = koszul._mono_mul("qweyl", *k1, *l1)
                right = koszul._mono_mul("qweyl", *l2, *k2)
                for a, va in left.items():
                    for b, vb in right.items():
                        koszul.add_term(out, (a, b), cf * cg * va * vb)
        return out

    rng = random.Random(17)

    def element():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = tuple((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2))
            num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            value = RatFunc(num, [rng.randint(1, 2), rng.randint(0, 1)])
            if value:
                terms[key] = value
        return terms

    for _ in range(40):
        f, g = element(), element()
        got = koszul._ae_mul("qweyl", f, g)
        want = reference(f, g)
        assert {k: (v.num, v.den) for k, v in got.items()} == \
            {k: (v.num, v.den) for k, v in want.items()}


def qweyl_coefficient(rng):
    """A nonzero Q(q) scalar: a Laurent polynomial, or one outside Z[q, 1/q]."""
    while True:
        num = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        den = rng.choice([[1], [0, 1], [0, 0, 1], [2], [1, 1], [0, 1, 1]])
        value = RatFunc(num, den)
        if value:
            return value


def test_qweyl_action_sums_over_q_exponents_as_the_term_by_term_product():
    # reference: a m tau(b) term by term, one RatFunc product per term
    def reference(f, m, twist):
        out = {}
        for (k1, k2), cf in f.items():
            right = koszul._eps("qweyl", {k2: cf}) if twist == "eps" else {k2: cf}
            for k3, ct in right.items():
                for k, cm in m.items():
                    for key, v in koszul._mono_mul("qweyl", *k1, *k).items():
                        for out_key, v2 in koszul._mono_mul("qweyl", *key, *k3).items():
                            koszul.add_term(out, out_key, ct * cm * v * v2)
        return out

    def pairs(d):
        return {k: (v.num, v.den) for k, v in d.items()}

    rng = random.Random(23)
    seen = set()
    for _ in range(60):
        # small exponents, so that output entries collect several terms
        f = {tuple((rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(2)):
             qweyl_coefficient(rng) for _ in range(rng.randint(1, 4))}
        m = {(rng.randint(-1, 1), rng.randint(-1, 1)): qweyl_coefficient(rng)
             for _ in range(rng.randint(1, 4))}
        seen.update((cf.laurent() is None, cm.laurent() is None)
                    for cf in f.values() for cm in m.values())
        for twist in ("id", "eps"):
            assert pairs(koszul._act("qweyl", f, twist)(m)) == pairs(reference(f, m, twist))
    # every mix of Laurent and non-Laurent coefficients was met
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    # a zero coefficient contributes nothing
    zero, q = RatFunc.from_int(0), RatFunc.variable()
    u, w, _, _ = koszul._ae_uw("qweyl")
    assert koszul._act("qweyl", u, "id")({(1, 1): zero}) == {}
    assert koszul._ae_mul("qweyl", {((1, 1), (0, 1)): zero}, w) == {}
    assert koszul._ae_mul("qweyl", {((1, 1), (0, 1)): 1 / (q + 1)}, {((0, 0), (0, 0)): zero}) == {}
    # an entry whose terms cancel is dropped
    one = RatFunc.from_int(1)
    half = RatFunc((1,), (2,))
    f = {((0, 0), (0, 0)): half, ((1, 0), (-1, 0)): -half}
    assert koszul._act("qweyl", f, "id")({(0, 0): one}) == {}
    assert koszul._act("qweyl", f, "id")({(0, 0): half, (0, 1): one}) != {}


def _qweyl_product(*keys):
    """Key and q-exponent of the qweyl product of the monomials keys, left to
    right, each step one _mono_mul read through laurent()."""
    key, n = keys[0], 0
    for k in keys[1:]:
        ((key, c),) = koszul._mono_mul("qweyl", *key, *k).items()
        ((e, one),) = c.laurent().items()
        assert one == 1
        n += e
    return key, n


EXPONENT = st.integers(-5, 5)
QWEYL_KEY = st.tuples(EXPONENT, EXPONENT)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(QWEYL_KEY, QWEYL_KEY, QWEYL_KEY, QWEYL_KEY)
def test_qweyl_placements_follow_the_monomial_product(l1, r1, l2, r2):
    # P^b X^c = q^{-bc} X^c P^b is written in _mono_mul, _act_place and _ae_place:
    # the sector action (l1⊗r1).l2 is l1 l2 r1, and the enveloping product
    # (l1⊗r1)(l2⊗r2) is l1 l2 ⊗ r2 r1
    assert koszul._act_place((l1, r1), l2) == _qweyl_product(l1, l2, r1)
    (left, n1), (right, n2) = _qweyl_product(l1, l2), _qweyl_product(r2, r1)
    assert koszul._ae_place((l1, r1), (l2, r2)) == ((left, right), n1 + n2)


def test_rank_of_the_qweyl_d0_window_divides_nothing(monkeypatch):
    # each d0 column meets no stored pivot, so no pivot is ever made monic
    d0, _, _ = build_cochain_complex("qweyl", "id", 8)
    divisions = []
    divide = RatFunc.__truediv__
    monkeypatch.setattr(RatFunc, "__truediv__",
                        lambda a, b: divisions.append(b) or divide(a, b))
    # h0 = 1: only the constants are central
    assert rank_of(d0.values()) == len(window_keys("qweyl", 8)) - 1
    assert divisions == []


def test_weyl_and_trig_columns_hold_ints():
    # every structure constant of weyl and trig is an integer
    for kind in ("weyl", "trig"):
        for twist in ("id", "eps"):
            d0, d1, _ = build_cochain_complex(kind, twist, 6)
            values = [v for cols in (d0, d1) for col in cols.values() for v in col.values()]
            assert values and all(type(v) is int for v in values)
        prod = multiply(M(kind, 2, 3), M(kind, 3, 2))
        assert all(type(v) is int for v in prod.terms.values())
    # an integral Fraction is stored as an int, a proper one as a Fraction
    el = RankOneElement("weyl", {(0, 0): Fraction(4, 2), (1, 0): Fraction(1, 2)})
    assert [type(v) for v in el.terms.values()] == [int, Fraction]


def test_multiply_is_the_term_by_term_monomial_product():
    def reference(x, y):
        acc = {}
        for (a, b), cx in x.terms.items():
            for (c, d), cy in y.terms.items():
                addmul_into(acc, koszul._mono_mul(x.kind, a, b, c, d), cx * cy)
        return RankOneElement(x.kind, acc)

    rng = random.Random(31)
    for kind in ("weyl", "trig", "qweyl"):
        for _ in range(10):
            x, y = rand_element(kind, rng), rand_element(kind, rng)
            assert multiply(x, y) == reference(x, y)
    # qweyl coefficients inside and outside Z[q, 1/q]
    laurent = set()
    for _ in range(30):
        x, y = (RankOneElement("qweyl", {(rng.randint(-2, 2), rng.randint(-2, 2)):
                                         qweyl_coefficient(rng)
                                         for _ in range(rng.randint(1, 3))})
                for _ in range(2))
        laurent.update(c.laurent() is None for c in (*x.terms.values(), *y.terms.values()))
        assert multiply(x, y) == reference(x, y)
    assert laurent == {False, True}


def test_monomial_product_table_is_never_changed_by_a_caller(monkeypatch):
    table = koszul._mono_mul
    table.cache_clear()
    asked = set()

    def recording(*args):
        asked.add(args)
        return table(*args)

    def reports():
        return [(duality_check(kind).lines, crossed_z2_cohomology(kind, 8))
                for kind in ("weyl", "trig")]

    monkeypatch.setattr(koszul, "_mono_mul", recording)
    cold = reports()
    # every entry of the table was asked for above, and still holds its product
    assert table.cache_info().currsize == len(asked) > 0
    for args in asked:
        assert table(*args) == table.__wrapped__(*args)
    assert reports() == cold


def normal_ordered_by_commutations(kind, a, b, c, d):
    """x^a p^b x^c p^d normal-ordered by rewriting one adjacent p x at a
    time, with p x = x p - 1 (weyl) or p X = X (p - 1) (trig); the letter
    "y" is X^-1, which only stands left of every p."""
    done, todo = {}, {("y" if a < 0 else "x",) * abs(a) + ("p",) * b
                      + ("x",) * c + ("p",) * d: 1}
    rest = () if kind == "weyl" else ("x",)
    while todo:
        word, coeff = todo.popitem()
        i = next((i for i in range(len(word) - 1) if word[i:i + 2] == ("p", "x")), None)
        if i is None:
            koszul.add_term(done, (word.count("x") - word.count("y"), word.count("p")), coeff)
            continue
        head, tail = word[:i], word[i + 2:]
        koszul.add_term(todo, head + ("x", "p") + tail, coeff)
        koszul.add_term(todo, head + rest + tail, -coeff)
    return done


@pytest.mark.parametrize("kind", ["weyl", "trig"])
def test_monomial_product_against_one_commutation_at_a_time(kind):
    lefts = range(0, 3) if kind == "weyl" else range(-2, 3)
    for a in lefts:
        for b in range(5):
            for c in range(5):
                for d in range(3):
                    want = normal_ordered_by_commutations(kind, a, b, c, d)
                    assert koszul._mono_mul(kind, a, b, c, d) == want, (a, b, c, d)
