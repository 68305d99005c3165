import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wreath_hochschild import bruteforce, cli
from wreath_hochschild.bruteforce import (
    AutoTwistedBimodule,
    FiniteDimAlgebra,
    GroupAction,
    RegularBimodule,
    SizeCapExceeded,
    TwistedBimodule,
    afls_check,
    bar_apply,
    bar_columns,
    chain_keys,
    crossed_product,
    decode_index,
    encode_tuple,
    hh_dims,
    homotopy_identity_check,
    rotation_permutation,
    slot_permutation,
    tensor_power,
    verify_homolog_i,
)
from wreath_hochschild.linalg import CertificateError, Echelon, apply_columns, rank_of
from wreath_hochschild.presets_io import CheckReport

ONE = Fraction(1)


def z2_algebra():
    return FiniteDimAlgebra.group_algebra([[0, 1], [1, 0]])


def test_truncated_polynomial_multiplication():
    A = FiniteDimAlgebra.truncated_polynomial(3)
    assert A.table[1][1] == {2: ONE}
    assert A.table[1][2] == {}
    assert A.mul({0: ONE, 1: ONE}, {1: ONE}) == {1: ONE, 2: ONE}


def test_validation_catches_bad_tables():
    # non-associative: e1*e1 = e1 but unit row broken
    bad_unit = [[{1: ONE}, {1: ONE}], [{1: ONE}, {1: ONE}]]
    with pytest.raises(ValueError):
        FiniteDimAlgebra(bad_unit, {0: ONE})
    # x*x = 1 + x but x*(x*x) != (x*x)*x fails with a twist
    table = [[{0: ONE}, {1: ONE}], [{1: ONE}, {0: ONE, 1: ONE}]]
    FiniteDimAlgebra(table, {0: ONE})  # this one is associative
    bad = [[{0: ONE}, {1: ONE}], [{1: ONE}, {0: ONE, 1: Fraction(2)}]]
    try:
        FiniteDimAlgebra(bad, {0: ONE})
    except ValueError:
        pass
    else:
        # if associative it must at least have kept the unit law
        assert FiniteDimAlgebra(bad, {0: ONE}).mul({1: ONE}, {0: ONE}) == {1: ONE}


def test_group_algebra_needs_identity():
    with pytest.raises(ValueError):
        FiniteDimAlgebra.group_algebra([[0, 0], [0, 0]])
    # a Latin square passes the table check, so this reaches the identity search
    with pytest.raises(ValueError, match="^table has no identity element$"):
        FiniteDimAlgebra.group_algebra([[0, 2, 1], [2, 1, 0], [1, 0, 2]])


def test_tensor_product_structure():
    A = FiniteDimAlgebra.truncated_polynomial(2)
    B = A.tensor(A)
    assert B.dim == 4
    # (x tensor 1)(1 tensor x) = x tensor x : indices 2*... encode (1,0)=2, (0,1)=1, (1,1)=3
    assert B.mul({2: ONE}, {1: ONE}) == {3: ONE}
    assert B.mul({2: ONE}, {2: ONE}) == {}
    assert B.unit == {0: ONE}


def test_encode_decode_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        dim = rng.randint(2, 5)
        n = rng.randint(1, 4)
        t = tuple(rng.randrange(dim) for _ in range(n))
        assert decode_index(encode_tuple(t, dim), dim, n) == t


def test_slot_permutation():
    A = FiniteDimAlgebra.truncated_polynomial(2)
    rot = rotation_permutation(A, 2)
    assert rot == [0, 2, 1, 3]
    perm = slot_permutation(A, 3, (3, 1, 2))
    # image slots (t3, t1, t2): basis (1,0,0) -> (0,1,0)
    assert perm[encode_tuple((1, 0, 0), 2)] == encode_tuple((0, 1, 0), 2)
    with pytest.raises(ValueError):
        slot_permutation(A, 2, (1, 1))
    # n passes the count rule first, before sigma is built or read
    for call, message in ((lambda: rotation_permutation(A, 2.0), "got 2.0"),
                          (lambda: slot_permutation(A, 2.0, (2, 1)), "got 2.0"),
                          (lambda: rotation_permutation(A, True), "got True"),
                          (lambda: rotation_permutation(A, 0), "got 0"),
                          (lambda: slot_permutation(A, 0, ()), "got 0")):
        with pytest.raises(ValueError, match=f"^n must be a positive int, {message}$"):
            call()


def test_d_squared_is_zero():
    rng = random.Random(11)
    A = z2_algebra()
    B = tensor_power(A, 2)
    M = AutoTwistedBimodule(B, [{p: ONE} for p in rotation_permutation(A, 2)])
    for k in range(1, 4):
        for _ in range(5):
            legs = tuple(rng.randrange(B.dim) for _ in range(k + 1))
            chain = {legs + (rng.randrange(M.dim),): ONE}
            once = bar_apply(B, M, chain, k + 1)
            assert bar_apply(B, M, once, k) == {}


def test_bar_differential_matrix_view():
    A = FiniteDimAlgebra.truncated_polynomial(2)
    M = RegularBimodule(A)
    d1 = dict(bar_columns(A, M, 1))
    assert set(d1) == set(chain_keys(A, M, 1))
    # d(x; 1) = x*1 - 1*x = 0, d(x; x) = x*x - x*x = 0 for commutative A
    assert d1[(1, 0)] == {}
    assert d1[(1, 1)] == {}


def test_hh_dims_known_values():
    # dual numbers: HH dims 2,1,1,1 in characteristic zero
    A = FiniteDimAlgebra.truncated_polynomial(2)
    assert hh_dims(A, RegularBimodule(A), 3) == [2, 1, 1, 1]
    # semisimple group algebra: homology vanishes above degree 0
    Z2 = z2_algebra()
    assert hh_dims(Z2, RegularBimodule(Z2), 2) == [2, 0, 0]
    # ground field
    K = FiniteDimAlgebra.truncated_polynomial(1)
    assert hh_dims(K, RegularBimodule(K), 2) == [1, 0, 0]


def test_hh_dims_basis_change_invariant():
    rng = random.Random(7)
    A = FiniteDimAlgebra.truncated_polynomial(3)
    # random invertible basis change
    while True:
        cols = [
            {i: Fraction(rng.randint(-2, 2)) for i in range(3)}
            for _ in range(3)
        ]
        cols = [{k: v for k, v in c.items() if v} for c in cols]
        try:
            conj = A.change_basis(cols)
            break
        except ValueError:
            continue
    assert hh_dims(conj, RegularBimodule(conj), 2) == \
        hh_dims(A, RegularBimodule(A), 2)


def test_change_basis_singular():
    A = FiniteDimAlgebra.truncated_polynomial(3)
    cols = [{0: ONE}, {0: ONE, 1: ONE}, {1: Fraction(2), 0: Fraction(2)}]
    with pytest.raises(ValueError, match="singular"):
        A.change_basis(cols)
    with pytest.raises(ValueError, match="singular"):
        A.change_basis([{0: ONE}, {}, {2: ONE}])


def test_change_basis_round_trip():
    A = FiniteDimAlgebra.truncated_polynomial(3)
    cols = [{0: ONE, 1: Fraction(2)}, {1: Fraction(-1), 2: ONE}, {0: ONE, 2: Fraction(3)}]
    conj = A.change_basis(cols)
    back = conj.change_basis(bruteforce._invert(cols))
    assert back.table == A.table
    assert back.unit == A.unit


def test_size_cap(monkeypatch):
    A = z2_algebra()
    M = RegularBimodule(A)
    with pytest.raises(SizeCapExceeded):
        hh_dims(A, M, 2, size_cap=10)
    monkeypatch.setenv("HH_SIZE_CAP", "10")
    with pytest.raises(SizeCapExceeded):
        hh_dims(A, M, 2)
    monkeypatch.setenv("HH_SIZE_CAP", "1000000")
    assert hh_dims(A, M, 2) == [2, 0, 0]


def test_twisted_bimodule_n1_is_plain():
    A = FiniteDimAlgebra.truncated_polynomial(2)
    tw = TwistedBimodule(A, 1)
    reg = RegularBimodule(A)
    assert (tw.dim, tw.left, tw.right) == (reg.dim, reg.left, reg.right) == (2, A.table, A.table)


def test_twisted_matches_auto_twisted_for_regular_inner():
    A = z2_algebra()
    n = 2
    B = tensor_power(A, n)
    tw = TwistedBimodule(A, n)
    auto = AutoTwistedBimodule(B, [{p: ONE} for p in rotation_permutation(A, n)])
    assert (tw.left, tw.right) == (auto.left, auto.right)


@pytest.mark.parametrize("A", [FiniteDimAlgebra.truncated_polynomial(2), z2_algebra(),
                               FiniteDimAlgebra.truncated_polynomial(3)])
@pytest.mark.parametrize("n", [1, 3])
def test_slotwise_twisted_matches_the_slot_permutation(A, n):
    B = tensor_power(A, n)
    tw = TwistedBimodule(A, n)
    auto = AutoTwistedBimodule(B, [{p: ONE} for p in rotation_permutation(A, n)])
    assert tw.dim == B.dim
    assert (tw.left, tw.right) == (auto.left, auto.right)


def test_bimodule_actions_are_computed_once_on_first_use(monkeypatch):
    A = z2_algebra()
    n = 3
    B = tensor_power(A, n)
    tw = TwistedBimodule(A, n)
    auto = AutoTwistedBimodule(B, [{p: ONE} for p in rotation_permutation(A, n)])
    first = (tw.left, tw.right, auto.left, auto.right)

    def no_work(*args):
        raise AssertionError("an action was recomputed")

    monkeypatch.setattr(bruteforce, "decode_index", no_work)
    monkeypatch.setattr(bruteforce, "addmul_into", no_work)
    monkeypatch.setattr(bruteforce, "apply_columns", no_work)
    assert all(now is then for now, then in zip((tw.left, tw.right, auto.left, auto.right), first))
    assert auto.left is B.table and RegularBimodule(B).right is B.table
    assert tw.right == auto.right


@pytest.mark.parametrize("columns", [[{0: 1}, {0: 1}], [{0: 1}], [{0: 1}, {1.0: 1}]],
                         ids=["x to 1", "one column", "float key"])
def test_auto_twisted_bimodule_refuses_a_non_automorphism(columns):
    # x -> 1 on Q[x]/(x^2) gave hh_dims [0, -2, -2]; one column for a
    # dimension-2 algebra failed later with IndexError
    dual = FiniteDimAlgebra.truncated_polynomial(2)
    with pytest.raises(ValueError, match=r"^twist is not an algebra automorphism$"):
        AutoTwistedBimodule(dual, columns)


@pytest.mark.parametrize("b, m", [(3, 2), (2, 3)], ids=["algebra larger", "module larger"])
def test_a_bimodule_over_another_algebra_is_refused(b, m):
    # hh_dims(cube, RegularBimodule(dual), 1) raised IndexError, and
    # hh_dims(dual, RegularBimodule(cube), 1) returned [3, 1]
    B = FiniteDimAlgebra.truncated_polynomial(b)
    M = RegularBimodule(FiniteDimAlgebra.truncated_polynomial(m))
    message = (rf"^bimodule actions are not indexed by the bases of the algebra "
               rf"\(dim {b}\) and the module \(dim {m}\)$")
    with pytest.raises(ValueError, match=message):
        hh_dims(B, M, 1)
    with pytest.raises(ValueError, match=message):
        bar_columns(B, M, 1)


@pytest.mark.parametrize("B, M", [
    # k[x]/x^2 with the regular bimodule of Z/2 returned [2, 0, 0], the
    # answer for Z/2, where k[x]/x^2 with itself gives [2, 1, 1]
    (FiniteDimAlgebra.truncated_polynomial(2), RegularBimodule(z2_algebra())),
    # the rotated bimodule of (Z/2)^2 over (k[x]/x^2)^2 returned [2, -2]
    (tensor_power(FiniteDimAlgebra.truncated_polynomial(2), 2), TwistedBimodule(z2_algebra(), 2)),
    (FiniteDimAlgebra.truncated_polynomial(2),
     AutoTwistedBimodule(z2_algebra(), [{0: 1}, {1: -1}])),
], ids=["regular", "rotated", "twisted"])
def test_a_bimodule_of_the_right_shape_over_another_algebra_is_refused(B, M):
    for call in (lambda: hh_dims(B, M, 2), lambda: bar_columns(B, M, 1)):
        with pytest.raises(ValueError, match="^the bimodule is over another algebra than B$"):
            call()


def test_a_bimodule_over_an_equal_algebra_built_separately_is_admitted():
    dual = FiniteDimAlgebra.truncated_polynomial(2)
    assert hh_dims(dual, RegularBimodule(FiniteDimAlgebra.truncated_polynomial(2)), 2) == [2, 1, 1]
    pair = tensor_power(z2_algebra(), 2)
    assert hh_dims(pair, TwistedBimodule(z2_algebra(), 2), 1) == [2, 0]


def test_a_bimodule_without_an_algebra_keeps_the_shape_check():
    dual = FiniteDimAlgebra.truncated_polynomial(2)

    class Plain:  # only the documented dim, left and right
        dim, left, right = dual.dim, dual.table, dual.table

    assert hh_dims(dual, Plain(), 2) == [2, 1, 1]
    with pytest.raises(ValueError, match="not indexed by the bases"):
        hh_dims(FiniteDimAlgebra.truncated_polynomial(3), Plain(), 1)


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 5]],
    [[0, 1], [1]],
    [[0, 1.0], [1, 0]],
    [[0, True], [True, 0]],
    [[0, 1], [1, 1]],
], ids=["entry out of range", "ragged", "float entry", "bool entries", "monoid"])
def test_group_algebra_refuses_a_table_that_is_not_a_group(monkeypatch, table):
    def no_build(*args, **kwargs):
        raise AssertionError("a structure constant was built")

    monkeypatch.setattr(FiniteDimAlgebra, "__init__", no_build)
    with pytest.raises(ValueError, match=r"^group table must be square, with int entries, and "
                                         r"every row and column a permutation of 0\.\.1$"):
        FiniteDimAlgebra.group_algebra(table)


@pytest.mark.parametrize("table, unit, message", [
    ([[{0: 1}]], {3: 1}, "unit must be a dict over the basis keys 0..0, got {3: 1}"),
    ([[1]], {0: 1}, "structure constant (0,0) must be a dict over the basis keys 0..0, got 1"),
    ([[{5: 1}]], {0: 1},
     "structure constant (0,0) must be a dict over the basis keys 0..0, got {5: 1}"),
    ([[{0: 1}, {1: 1}], [{1: 1}, {True: 1}]], {0: 1},
     "structure constant (1,1) must be a dict over the basis keys 0..1, got {True: 1}"),
], ids=["unit key 3", "int cell", "cell key 5", "bool key"])
def test_structure_constants_outside_the_basis_are_refused(table, unit, message):
    # these raised IndexError, AttributeError, "unit is not a left identity",
    # and read True as the key 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FiniteDimAlgebra(table, unit)


def test_verify_homolog_i_small():
    A = FiniteDimAlgebra.truncated_polynomial(2)
    rep = verify_homolog_i(A, n=2, max_level=2)
    assert rep.passed, rep.lines
    rep = verify_homolog_i(z2_algebra(), n=2, max_level=2)
    assert rep.passed, rep.lines
    # n=1 is a tautology
    rep = verify_homolog_i(A, n=1, max_level=2)
    assert rep.passed


def test_verify_homolog_i_custom_cycle():
    A = z2_algebra()
    rep = verify_homolog_i(A, n=3, sigma=(3, 1, 2), max_level=1)
    assert rep.passed, rep.lines


def test_homotopy_identity_small():
    A = z2_algebra()
    for m in (1, 2, 3):
        rep = homotopy_identity_check(A, n=2, m=m, trials=12, seed=5)
        assert rep.passed, (m, rep.lines)


def test_homotopy_identity_n1_trivial():
    A = FiniteDimAlgebra.truncated_polynomial(2)
    rep = homotopy_identity_check(A, n=1, m=2, trials=6, seed=1)
    assert rep.passed


def test_homotopy_identity_zero_coefficient_chains():
    # seed 0 samples a chain whose random coefficient is 0; both sides are
    # the zero chain and must compare equal (no stored zero entries)
    A = z2_algebra()
    for n in (2, 3):
        rep = homotopy_identity_check(A, n=n, m=1, trials=50, seed=0)
        assert rep.passed, rep.lines


def test_homotopy_identity_computes_each_differential_once(monkeypatch):
    calls = []
    d_basis = bruteforce._d_basis

    def counted(table, M, key, k):
        calls.append(key)
        return d_basis(table, M, key, k)

    monkeypatch.setattr(bruteforce, "_d_basis", counted)
    rep = homotopy_identity_check(z2_algebra(), 3, 4, trials=25, seed=2046968324)
    assert (rep.name, rep.passed, rep.lines) == (
        "rotation homotopy identity n=3 m=4", True,
        ("25/25 sampled cycles satisfy the identity",))
    assert calls and len(calls) == len(set(calls))


def sign_action(k: int) -> list[dict]:
    """x -> -x on Q[x]/(x^k), as automorphism columns."""
    return [{i: Fraction(-1) ** i} for i in range(k)]


def test_group_action_structure():
    A = FiniteDimAlgebra.truncated_polynomial(3)
    G = GroupAction.generate(A, [sign_action(3)])
    assert G.order == 2
    assert G.conjugacy_classes() == [[0], [1]]
    assert G.centralizer(1) == [0, 1]
    assert G.inverses == [0, 1]


def test_group_action_rejects_non_automorphism():
    A = FiniteDimAlgebra.truncated_polynomial(3)
    bad = [{0: ONE}, {1: Fraction(2)}, {2: ONE}]  # x -> 2x breaks x*x = x^2
    with pytest.raises(ValueError):
        GroupAction.generate(A, [bad])


def test_group_action_table_and_refusals():
    A = FiniteDimAlgebra.truncated_polynomial(3)
    ident, sign = [{i: 1} for i in range(3)], sign_action(3)
    scale2 = [{0: 1}, {1: 2}, {2: 4}]  # x -> 2x
    G = GroupAction(A, [sign, ident])
    assert (G.table, G.identity, G.inverses) == ([[1, 0], [0, 1]], 1, [0, 1])
    # a repeated element would weight its class twice in every centralizer average
    with pytest.raises(ValueError, match="group element repeated"):
        GroupAction(A, [ident, sign, sign])
    with pytest.raises(ValueError, match="not closed under composition"):
        GroupAction(A, [ident, scale2])
    with pytest.raises(ValueError, match="identity matrix missing"):
        GroupAction(A, [])


def test_crossed_product_with_sign_action():
    A = FiniteDimAlgebra.truncated_polynomial(2)
    G = GroupAction.generate(A, [sign_action(2)])
    C = crossed_product(G)
    assert C.dim == 4
    # gamma * x = -x * gamma: gamma = (g=1,b=0) -> idx 2, x = (g=0,b=1) -> idx 1
    left = C.mul({2: ONE}, {1: ONE})
    right = C.mul({1: ONE}, {2: ONE})
    assert left == {k: -v for k, v in right.items()}
    # gamma^2 = 1
    assert C.mul({2: ONE}, {2: ONE}) == C.unit


def test_afls_trivial_group():
    A = FiniteDimAlgebra.truncated_polynomial(2)
    G = GroupAction.generate(A, [])
    rep = afls_check(A, G, max_level=2)
    assert rep.passed, rep.lines


def test_afls_sign_action_small_levels():
    B = FiniteDimAlgebra.truncated_polynomial(3)
    G = GroupAction.generate(B, [sign_action(3)])
    rep = afls_check(B, G, max_level=1)
    assert rep.passed, rep.lines


def test_non_cycle_sample_is_a_certificate_error(monkeypatch, capsys):
    def not_cycles(B, M, level, count, rng, d):
        # leg 1 is a non-unit group element, so d(1; 0) = e1 - rot(e1) != 0
        return [{(1,) * level + (0,): ONE}]

    monkeypatch.setattr(bruteforce, "_random_cycles", not_cycles)
    with pytest.raises(CertificateError, match="not a cycle"):
        homotopy_identity_check(z2_algebra(), 2, 2)
    # the slow twisted-coefficient reductions are not under test here
    monkeypatch.setattr(bruteforce, "verify_homolog_i",
                        lambda A, n, max_level: CheckReport("stub", True))
    assert cli.main(["verify", "bruteforce"]) == 1
    assert "error:" in capsys.readouterr().err


def full_complex_dims(B, M, max_level):
    """HH dims by rank-nullity on the unnormalised bar complex."""
    cdims = [B.dim ** k * M.dim for k in range(max_level + 2)]
    ranks = [0] + [rank_of(img for _, img in bar_columns(B, M, k))
                   for k in range(1, max_level + 2)]
    return [cdims[k] - ranks[k] - ranks[k + 1] for k in range(max_level + 1)]


def shifted_unit_algebra():
    """Q[x]/(x^3) in the basis 1 + x, x + x^2, 1 + x^2: the unit is not a
    basis vector, and products of the legs have components along it."""
    A = FiniteDimAlgebra.truncated_polynomial(3)
    B = A.change_basis([{0: ONE, 1: ONE}, {1: ONE, 2: ONE}, {0: ONE, 2: ONE}])
    assert len(B.unit) > 1 and 0 in B.unit
    assert 0 in B.table[2][2]
    return B


# x -> -x written in the basis of shifted_unit_algebra
SHIFTED_SIGN = [{1: -ONE, 2: ONE}, {0: -ONE, 2: ONE}, {2: ONE}]


def normalisation_cases():
    dual = FiniteDimAlgebra.truncated_polynomial(2)
    cube = FiniteDimAlgebra.truncated_polynomial(3)
    Z2 = z2_algebra()
    field = FiniteDimAlgebra.truncated_polynomial(1)
    shifted = shifted_unit_algebra()
    pair = tensor_power(dual, 2)
    swap = AutoTwistedBimodule(pair, [{p: ONE} for p in rotation_permutation(dual, 2)])
    sign = GroupAction.generate(dual, [sign_action(2)])
    cross = crossed_product(sign)
    return [
        ("dual numbers", dual, RegularBimodule(dual), 3),
        ("Z/2", Z2, RegularBimodule(Z2), 3),
        ("k[x]/x^3", cube, RegularBimodule(cube), 3),
        ("ground field", field, RegularBimodule(field), 2),
        ("non-basis unit", shifted, RegularBimodule(shifted), 3),
        ("non-basis unit, twisted", shifted,
         AutoTwistedBimodule(shifted, SHIFTED_SIGN), 3),
        ("TwistedBimodule", pair, TwistedBimodule(dual, 2), 2),
        ("TwistedBimodule Z/2", tensor_power(Z2, 2), TwistedBimodule(Z2, 2), 2),
        ("TwistedBimodule, non-basis unit", tensor_power(shifted, 2),
         TwistedBimodule(shifted, 2), 1),
        ("AutoTwistedBimodule", pair, swap, 2),
        ("crossed product", cross, RegularBimodule(cross), 2),
    ]


@pytest.mark.parametrize("label, B, M, top", normalisation_cases(),
                         ids=[c[0] for c in normalisation_cases()])
def test_normalised_hh_dims_match_full_bar_complex(label, B, M, top):
    assert hh_dims(B, M, top) == full_complex_dims(B, M, top)


@pytest.mark.parametrize("label, B, M, top", normalisation_cases(),
                         ids=[c[0] for c in normalisation_cases()])
def test_hh_dims_ranks_each_level_from_its_rows(monkeypatch, label, B, M, top):
    # level k has (dim B - 1)^k * dim M columns but at most
    # (dim B - 1)^(k - 1) * dim M rows, and only the rows are inserted
    inserts = []
    insert = Echelon.insert

    def counted(self, vec):
        inserts[-1] += 1
        return insert(self, vec)

    def per_level(vectors):
        inserts.append(0)
        return rank_of(vectors)

    monkeypatch.setattr(Echelon, "insert", counted)
    monkeypatch.setattr(bruteforce, "rank_of", per_level)
    hh_dims(B, M, top)
    assert len(inserts) == top + 1
    for k, count in enumerate(inserts, 1):
        assert count <= (B.dim - 1) ** (k - 1) * M.dim, (k, count)


def test_twist_of_shifted_unit_algebra_is_an_automorphism():
    B = shifted_unit_algebra()
    assert B.is_automorphism(SHIFTED_SIGN)


def row_cases():
    dual, Z2 = FiniteDimAlgebra.truncated_polynomial(2), z2_algebra()
    pair = tensor_power(Z2, 2)
    rotated = AutoTwistedBimodule(pair, [{p: 1} for p in rotation_permutation(Z2, 2)])
    cross = crossed_product(GroupAction.generate(dual, [sign_action(2)]))
    # the unit is e0 + e1 after the change of basis: two nonzero coordinates
    split = Z2.change_basis([{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert len(split.unit) == 2
    return [
        ("RegularBimodule", Z2, RegularBimodule(Z2)),
        ("AutoTwistedBimodule of the rotation", pair, rotated),
        ("TwistedBimodule", pair, TwistedBimodule(Z2, 2)),
        ("crossed product", cross, RegularBimodule(cross)),
        ("unit with two coordinates", split, RegularBimodule(split)),
    ]


@pytest.mark.parametrize("label, B, M", row_cases(), ids=[c[0] for c in row_cases()])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_level_rows_are_the_transposed_chain_differentials(label, B, M, k):
    legs, table = bruteforce._unit_quotient(B)
    at = {b: p for p, b in enumerate(legs)}

    def number(key):  # mixed radix: leg positions in base len(legs), then the module slot
        return encode_tuple([at[x] for x in key[:-1]], len(legs)) * M.dim + key[-1]

    expected: dict = {}
    for key in chain_keys(B, M, k):
        if all(x in at for x in key[:-1]):
            for r, c in bruteforce._d_basis(table, M, key, k).items():
                expected.setdefault(number(r), {})[number(key)] = c
    rows = bruteforce._level_rows(legs, table, M, k)
    assert len(rows) == len(legs) ** (k - 1) * M.dim
    assert {r: row for r, row in enumerate(rows) if row} == expected
    assert all(all(row.values()) for row in rows)


RANDOM_CASE_ALGEBRAS = [FiniteDimAlgebra.truncated_polynomial(k) for k in (1, 2, 3, 4)] + [
    z2_algebra(), FiniteDimAlgebra.group_algebra([[0, 1, 2], [1, 2, 0], [2, 0, 1]])]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(RANDOM_CASE_ALGEBRAS), st.sampled_from([1, 2]), st.booleans(),
       st.integers(0, 3))
def test_hh_dims_is_rank_nullity_of_the_full_complex(A, n, twist, top):
    """Random small algebras and their tensor squares, with coefficients in
    the regular bimodule or its slot twist; the full complex of bar_columns
    is built by _d_basis alone."""
    B = tensor_power(A, n)
    M = RegularBimodule(B)
    if twist:
        M = AutoTwistedBimodule(B, [{p: 1} for p in slot_permutation(A, n, (n, *range(1, n)))])
    while top and B.dim ** (top + 2) > 1024:  # the full complex stays small
        top -= 1
    assert hh_dims(B, M, top) == full_complex_dims(B, M, top)


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.sampled_from([2, 3]), st.lists(st.integers(-2, 2), min_size=9, max_size=9),
       st.booleans())
def test_normalised_hh_dims_under_random_basis_change(k, entries, twist):
    """k[x]/x^k in a random basis: the unit is in general no basis vector."""
    A = FiniteDimAlgebra.truncated_polynomial(k)
    cols = [{i: Fraction(entries[j * 3 + i]) for i in range(k) if entries[j * 3 + i]}
            for j in range(k)]
    try:
        B = A.change_basis(cols)
    except ValueError:
        assume(False)
    M = RegularBimodule(B)
    if twist:
        # x -> -x, carried to the new basis
        back = bruteforce._invert(cols)
        act = [apply_columns(back, apply_columns(sign_action(k), col)) for col in cols]
        assert B.is_automorphism(act)
        M = AutoTwistedBimodule(B, act)
    top = 3 if k == 2 else 2
    assert hh_dims(B, M, top) == full_complex_dims(B, M, top)


# -- exact scalars: ints where integral, Fractions otherwise, never floats ----


def exact_entries(values):
    """Every value is an int, or a Fraction with a denominator other than 1."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


def table_values(B):
    return [v for row in B.table for cell in row for v in cell.values()] + list(B.unit.values())


def test_integral_tables_hold_ints():
    for B in (FiniteDimAlgebra.truncated_polynomial(3), z2_algebra(),
              z2_algebra().tensor(FiniteDimAlgebra.truncated_polynomial(2))):
        assert all(type(v) is int for v in table_values(B))
    # integral Fraction and float input is stored as an int
    ground = FiniteDimAlgebra([[{0: Fraction(2, 2)}]], {0: 1.0})
    assert table_values(ground) == [1, 1]
    assert all(type(v) is int for v in table_values(ground))


def test_change_basis_with_an_integral_non_basis_unit():
    # Q[x]/(x^3) in the basis 1 + x, 1 + 2x, x^2: the unit 2 e0 - e1 is
    # integral and no basis vector, and e1 e1 = -2 e0 + 3 e1 + 4 e2 has a
    # component along it, so the normalised complex projects by -lam/scale
    # with both integral
    A = FiniteDimAlgebra.truncated_polynomial(3)
    B = A.change_basis([{0: 1, 1: 1}, {0: 1, 1: 2}, {2: 1}])
    assert B.unit == {0: 2, 1: -1}
    assert B.table[1][1] == {0: -2, 1: 3, 2: 4}
    assert all(type(v) is int for v in table_values(B))
    # x -> -x in this basis
    M = AutoTwistedBimodule(B, [{0: 3, 1: -2}, {0: 4, 1: -3}, {2: 1}])
    assert B.is_automorphism(M.columns)
    assert hh_dims(B, RegularBimodule(B), 3) == hh_dims(A, RegularBimodule(A), 3)
    for module in (RegularBimodule(B), M):
        dims = hh_dims(B, module, 3)
        assert dims == full_complex_dims(B, module, 3)
        assert all(type(d) is int for d in dims)


@PROPERTY
@given(st.sampled_from([2, 3]), st.lists(st.integers(-2, 2), min_size=9, max_size=9))
def test_integer_basis_changes_keep_dims_tables_and_reports_exact(k, entries):
    """No float reaches the table, the dims or the report of k[x]/x^k in a
    random integer basis."""
    A = FiniteDimAlgebra.truncated_polynomial(k)
    cols = [{i: entries[j * 3 + i] for i in range(k) if entries[j * 3 + i]}
            for j in range(k)]
    try:
        B = A.change_basis(cols)
    except ValueError:
        assume(False)
    assert exact_entries(table_values(B))
    dims = hh_dims(B, RegularBimodule(B), 2)
    assert all(type(d) is int for d in dims)
    assert dims == hh_dims(A, RegularBimodule(A), 2)
    report = verify_homolog_i(B, n=2, max_level=0)
    assert report.passed
    assert not any(re.search(r"\d\.\d|e[+-]\d", line) for line in report.lines)


# -- group closure and the type B sectors -----------------------------------


def two_sided_closure(algebra, gens):
    """Every composite of the generators, found by composing each new
    element with every element found so far on both sides: a second route
    to the group that GroupAction.generate closes."""
    ident = [{i: 1} for i in range(algebra.dim)]
    elements, seen, frontier = [ident], {bruteforce._columns_key(ident)}, list(gens)
    while frontier:
        g = frontier.pop()
        key = bruteforce._columns_key(g)
        if key in seen:
            continue
        seen.add(key)
        elements.append(g)
        frontier.extend(bruteforce._compose(g, e) for e in elements)
        frontier.extend(bruteforce._compose(e, g) for e in elements)
    return elements


def slot_action(A, n, sigma):
    return [{p: 1} for p in slot_permutation(A, n, sigma)]


def type_b_generators(A, n):
    """Z/2 wreath S_n on A^(tensor n), A = Q[x]/(x^k): x -> -x in the
    first slot, the transposition of the first two slots and the n-cycle."""
    B = tensor_power(A, n)
    sign = [{i: (-1) ** decode_index(i, A.dim, n)[0]} for i in range(B.dim)]
    return [sign, slot_action(A, n, (2, 1) + tuple(range(3, n + 1))),
            slot_action(A, n, tuple(range(2, n + 1)) + (1,))]


@pytest.mark.parametrize("k, n, gens, order", [
    (3, 2, type_b_generators, 8),
    (3, 3, type_b_generators, 48),
    (2, 3, lambda A, n: [slot_action(A, n, (2, 1, 3)), slot_action(A, n, (2, 3, 1))], 6),
], ids=["B2 on (k[x]/x^3)^2", "B3 on (k[x]/x^3)^3", "S3 on (k[x]/x^2)^3"])
def test_generate_reaches_the_two_sided_closure(k, n, gens, order):
    A = FiniteDimAlgebra.truncated_polynomial(k)
    B = tensor_power(A, n)
    G = GroupAction.generate(B, gens(A, n))
    ref = GroupAction(B, two_sided_closure(B, gens(A, n)))
    assert G.order == ref.order == order
    # the same elements, and a relabelling that carries one table to the other
    where = {bruteforce._columns_key(cols): i for i, cols in enumerate(ref.elements)}
    perm = [where[bruteforce._columns_key(cols)] for cols in G.elements]
    assert sorted(perm) == list(range(order))
    assert perm[G.identity] == ref.identity
    assert all(ref.table[perm[a]][perm[b]] == perm[G.table[a][b]]
               for a in range(order) for b in range(order))


def test_type_b_sectors_sum_to_the_crossed_product_dims():
    A = FiniteDimAlgebra.truncated_polynomial(3)
    B = tensor_power(A, 2)
    G = GroupAction.generate(B, type_b_generators(A, 2))
    total = [0, 0, 0]
    for cls in G.conjugacy_classes():
        dims = bruteforce._sector_invariant_dims(B, G, cls[0], 2)
        total = [t + d for t, d in zip(total, dims)]
    assert total == [9, 4, 4]


def test_oversized_requests_are_refused_before_anything_is_built(monkeypatch):
    cube = FiniteDimAlgebra.truncated_polynomial(3)
    sign = GroupAction.generate(cube, [sign_action(3)])

    def no_build(*args, **kwargs):
        raise AssertionError("something was built before the cap check")

    for name in ("tensor_power", "crossed_product", "RegularBimodule", "TwistedBimodule",
                 "AutoTwistedBimodule", "slot_permutation", "rotation_permutation"):
        monkeypatch.setattr(bruteforce, name, no_build)
    dual, z2 = FiniteDimAlgebra.truncated_polynomial(2), z2_algebra()
    for call in (lambda: verify_homolog_i(dual, n=9, max_level=2),
                 lambda: verify_homolog_i(z2, n=3, sigma=(3, 1, 2), max_level=1, size_cap=10 ** 4),
                 lambda: homotopy_identity_check(z2, n=3, m=5),
                 lambda: homotopy_identity_check(dual, n=12, m=1),
                 # the sectors (dim 3) fit under the cap, the crossed product (dim 6) does not
                 lambda: afls_check(cube, sign, max_level=4)):
        with pytest.raises(SizeCapExceeded, match=r"^bar differential at level \d+: matrix "
                           r"\d+ x \d+ \(set HH_SIZE_CAP to override\) is above the cap of \d+$"):
            call()
    monkeypatch.setenv("HH_SIZE_CAP", "63")  # level 1 of (Z/2)^2 has 16 x 4 entries
    with pytest.raises(SizeCapExceeded):
        homotopy_identity_check(z2, n=2, m=1)


@pytest.mark.parametrize("call, message", [
    (lambda A, G: hh_dims(A, RegularBimodule(A), 1.5), "max_level must be a nonnegative int, got 1.5"),
    (lambda A, G: hh_dims(A, RegularBimodule(A), True), "max_level must be a nonnegative int, got True"),
    (lambda A, G: hh_dims(A, RegularBimodule(A), -1), "max_level must be a nonnegative int, got -1"),
    (lambda A, G: FiniteDimAlgebra.truncated_polynomial(2.0), "k must be a positive int, got 2.0"),
    (lambda A, G: FiniteDimAlgebra.truncated_polynomial(0), "k must be a positive int, got 0"),
    (lambda A, G: tensor_power(A, 2.0), "n must be a positive int, got 2.0"),
    (lambda A, G: TwistedBimodule(A, 0), "n must be a positive int, got 0"),
    (lambda A, G: list(bar_columns(A, RegularBimodule(A), 0)), "level must be a positive int, got 0"),
    (lambda A, G: homotopy_identity_check(A, 2, 1.5), "m must be a positive int, got 1.5"),
    (lambda A, G: homotopy_identity_check(A, 2.0, 2), "n must be a positive int, got 2.0"),
    (lambda A, G: homotopy_identity_check(A, 2, 2, trials=-1), "trials must be a positive int, got -1"),
    (lambda A, G: homotopy_identity_check(A, 2, 2, trials=True), "trials must be a positive int, got True"),
    (lambda A, G: homotopy_identity_check(A, 2, 2, trials=2.5), "trials must be a positive int, got 2.5"),
    (lambda A, G: verify_homolog_i(A, n=2.0), "n must be a positive int, got 2.0"),
    (lambda A, G: verify_homolog_i(A, max_level=-1), "max_level must be a nonnegative int, got -1"),
    (lambda A, G: afls_check(A, G, max_level=1.5), "max_level must be a nonnegative int, got 1.5"),
], ids=["hh_float", "hh_bool", "hh_negative", "truncated_float", "truncated_zero",
        "tensor_float", "twisted_zero", "bar_level_zero", "homotopy_m_float",
        "homotopy_n_float", "trials_negative", "trials_bool", "trials_float",
        "homolog_n_float", "homolog_negative", "afls_float"])
def test_counts_are_refused_before_anything_is_built(monkeypatch, call, message):
    A = FiniteDimAlgebra.truncated_polynomial(2)
    G = GroupAction.generate(A, [sign_action(2)])

    def no_build(*args, **kwargs):
        raise AssertionError("something was built before the count check")

    for name in ("_check_bar_cap", "_unit_quotient", "_d_basis", "_level_rows",
                 "crossed_product", "AutoTwistedBimodule", "slot_permutation",
                 "rotation_permutation"):
        monkeypatch.setattr(bruteforce, name, no_build)
    monkeypatch.setattr(FiniteDimAlgebra, "tensor", no_build)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(A, G)


@pytest.mark.parametrize("call, message", [
    (lambda A, G, H: GroupAction(A, [G.elements[0], G.elements[1], G.elements[1]]),
     "group element repeated"),
    (lambda A, G, H: homotopy_identity_check(A, 2, 1, trials=0),
     "trials must be a positive int, got 0"),
    (lambda A, G, H: afls_check(A, H, 1), "G acts on another algebra than B"),
    (lambda A, G, H: verify_homolog_i(A, n=2, sigma=(1, 2)),
     "sigma must be an n-cycle (n = 2), got (1, 2)"),
    (lambda A, G, H: FiniteDimAlgebra([], {}),
     "structure-constant table is empty: an algebra needs a basis"),
], ids=["repeated_element", "zero_trials", "afls_other_algebra", "homolog_not_a_cycle",
        "empty_table"])
def test_malformed_bar_complex_inputs_are_refused_before_anything_is_built(
        monkeypatch, call, message):
    A = FiniteDimAlgebra.truncated_polynomial(2)
    G = GroupAction.generate(A, [sign_action(2)])
    H = GroupAction.generate(FiniteDimAlgebra.truncated_polynomial(3), [sign_action(3)])

    def no_build(*args, **kwargs):
        raise AssertionError("something was built before the input check")

    for name in ("_compose", "_check_bar_cap", "_unit_quotient", "_d_basis", "_level_rows",
                 "crossed_product", "AutoTwistedBimodule", "TwistedBimodule",
                 "slot_permutation", "rotation_permutation"):
        monkeypatch.setattr(bruteforce, name, no_build)
    monkeypatch.setattr(FiniteDimAlgebra, "tensor", no_build)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(A, G, H)


def test_group_closure_above_1024_elements_is_refused():
    # S_7 (5040 elements) permuting the idempotents of Q^7, from a 7-cycle and a transposition
    diagonal = FiniteDimAlgebra([[{i: 1} if i == j else {} for j in range(7)] for i in range(7)],
                                {i: 1 for i in range(7)})
    cycle = [{(i + 1) % 7: 1} for i in range(7)]
    swap = [{1: 1}, {0: 1}] + [{i: 1} for i in range(2, 7)]
    with pytest.raises(ValueError, match=r"^group closure is above the cap of 1024$"):
        GroupAction.generate(diagonal, [cycle, swap])
    # the closure of the 7-cycle alone is admitted
    assert GroupAction.generate(diagonal, [cycle]).order == 7


def test_group_action_refuses_every_repeat():
    A = FiniteDimAlgebra.truncated_polynomial(3)
    ident, sign = [{i: 1} for i in range(3)], sign_action(3)
    for elements in ([ident, ident], [sign, ident, sign], [ident, sign, [dict(c) for c in sign]]):
        with pytest.raises(ValueError, match="group element repeated"):
            GroupAction(A, elements)


def test_afls_check_refuses_an_action_on_another_algebra():
    dual, z2 = FiniteDimAlgebra.truncated_polynomial(2), z2_algebra()
    on_z2 = GroupAction.generate(z2, [sign_action(2)])
    # same dim, another table: x^2 = 0 against g^2 = 1
    with pytest.raises(ValueError, match="another algebra"):
        afls_check(dual, on_z2, 1)
    # an equal algebra built separately is the same algebra
    assert afls_check(z2_algebra(), on_z2, 1).passed


@pytest.mark.parametrize("n, sigma", [(2, (1, 2)), (3, (2, 1, 3)), (3, (1, 2, 3)),
                                      (3, (2, 2, 3)), (3, (2, 3)), (1, ()),
                                      (2, (2.0, 1.0)), (2, (2, True))])
def test_verify_homolog_i_refuses_a_sigma_that_is_not_an_n_cycle(n, sigma):
    with pytest.raises(ValueError, match="sigma must be an n-cycle"):
        verify_homolog_i(z2_algebra(), n=n, sigma=sigma, max_level=1)


@pytest.mark.parametrize("sigma", [(2, True), (2.0, 1.0)], ids=["bool entry", "float entries"])
def test_slot_permutation_refuses_a_sigma_with_a_non_int_entry(sigma):
    with pytest.raises(ValueError, match=r"^sigma must be a permutation of 1\.\.n$"):
        slot_permutation(FiniteDimAlgebra.truncated_polynomial(2), 2, sigma)


@pytest.mark.parametrize("A", [FiniteDimAlgebra.truncated_polynomial(2), z2_algebra()],
                         ids=["dual", "Z/2"])
@pytest.mark.parametrize("n, levels", [(2, 3), (3, 2)])
def test_verify_homolog_i_defaults_to_the_rotation(A, n, levels):
    rotation = tuple(range(2, n + 1)) + (1,)
    default = verify_homolog_i(A, n=n, max_level=levels)
    assert default == verify_homolog_i(A, n=n, sigma=rotation, max_level=levels)
    assert default.passed


def test_verify_homolog_i_admits_every_n_cycle():
    for n, sigma in ((1, (1,)), (2, (2, 1)), (3, (2, 3, 1)), (3, (3, 1, 2)), (4, (3, 4, 2, 1))):
        assert verify_homolog_i(FiniteDimAlgebra.truncated_polynomial(2), n=n, sigma=sigma,
                                max_level=1).passed


def test_the_cap_admits_the_largest_verify_cases():
    # homotopy: (Z/2)^3 at m = 4 samples level 3, 4096 x 512 entries
    assert homotopy_identity_check(z2_algebra(), n=3, m=4, trials=3).passed
    # afls: the sectors of the crossed product refused above fit on their own
    bruteforce._check_bar_cap(3, 3, 5, bruteforce.DEFAULT_SIZE_CAP)
