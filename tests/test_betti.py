import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_hochschild import betti
from wreath_hochschild.betti import BettiTable, super_sym_powers


def test_table_basics():
    t = BettiTable({0: 1, 2: 3, 5: 0})
    assert t[0] == 1 and t[2] == 3
    assert t[5] == 0 and t[17] == 0
    assert t.dims() == {0: 1, 2: 3}
    assert t.max_degree == 2
    assert t.total_dim == 4
    assert list(t) == [0, 2]
    assert t == {0: 1, 2: 3, 9: 0}


def test_table_validation():
    for bad in [{-1: 1}, {0: -2}]:
        try:
            BettiTable(bad)
        except ValueError:
            pass
        else:
            assert False


@pytest.mark.parametrize("bad, message", [
    ({0: 1.5}, "dimension must be a nonnegative int, got 1.5"),
    ({0: 2.0}, "dimension must be a nonnegative int, got 2.0"),
    ({0: True}, "dimension must be a nonnegative int, got True"),
    ({1.0: 1}, "degree must be a nonnegative int, got 1.0"),
    ({False: 1}, "degree must be a nonnegative int, got False"),
    ({"1": 1}, "degree must be a nonnegative int, got '1'"),
])
def test_table_refuses_non_int_degrees_and_dims(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BettiTable(bad)


@pytest.mark.parametrize("pmax", [-1, 2.0, True, "2"])
def test_super_sym_powers_refuse_a_pmax_that_is_not_a_nonnegative_int(pmax):
    with pytest.raises(ValueError, match=f"^pmax must be a nonnegative int, got {pmax!r}$"):
        super_sym_powers(BettiTable({0: 1}), pmax)


@pytest.mark.parametrize("table", [{0: 1}, [1, 2, 1], None], ids=["dict", "list", "None"])
def test_super_sym_powers_refuse_a_table_that_is_not_a_betti_table(table):
    message = f"table must be a BettiTable, got {type(table).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        super_sym_powers(table, 2)


@pytest.mark.parametrize("combine", [BettiTable.add, BettiTable.__add__, BettiTable.tensor],
                         ids=["add", "+", "tensor"])
def test_a_table_combines_only_with_a_table(combine):
    # a dict operand used to end in AttributeError ('dict' object has no attribute '_dims')
    with pytest.raises(TypeError, match="^table must be a BettiTable, got dict$"):
        combine(BettiTable({0: 1}), {0: 1})


def test_shift():
    t = BettiTable({0: 1, 1: 2})
    assert t.shift(4) == {4: 1, 5: 2}
    for bad in [1, 3, -2]:
        try:
            t.shift(bad)
        except ValueError:
            pass
        else:
            assert False


def test_add_and_tensor():
    a = BettiTable({0: 1, 1: 1})
    b = BettiTable({0: 2, 2: 1})
    assert a.add(b) == {0: 3, 1: 1, 2: 1}
    assert (a + b) == a.add(b)
    # (1 + t)(2 + t^2) = 2 + 2t + t^2 + t^3
    assert a.tensor(b) == {0: 2, 1: 2, 2: 1, 3: 1}


def test_sym_powers_of_even_line():
    # single even degree j, dim m: S^p has dim C(m+p-1, p) in degree j*p
    v = BettiTable({2: 3})
    powers = super_sym_powers(v, 4)
    for p in range(5):
        assert powers[p] == {2 * p: math.comb(3 + p - 1, p)}


def test_sym_powers_of_odd_line():
    # single odd degree j, dim m: S^p is the exterior power, dim C(m, p)
    v = BettiTable({3: 2})
    powers = super_sym_powers(v, 4)
    assert powers[0] == {0: 1}
    assert powers[1] == {3: 2}
    assert powers[2] == {6: 1}
    assert powers[3] == {}
    assert powers[4] == {}


def test_sym_powers_first_power_is_identity():
    rng = random.Random(5)
    for _ in range(10):
        dims = {d: rng.randrange(0, 3) for d in rng.sample(range(7), 4)}
        v = BettiTable(dims)
        assert super_sym_powers(v, 1)[1] == v


def test_sym_powers_worked_example():
    # S^2 of {0: 1, 1: 2, 2: 1}
    v = BettiTable({0: 1, 1: 2, 2: 1})
    s2 = super_sym_powers(v, 2)[2]
    assert s2 == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def test_sym_powers_total_dim_against_direct_count():
    # compare against brute-force multiset/subset count over a basis
    rng = random.Random(19)
    for _ in range(8):
        dims = {}
        for d in range(5):
            m = rng.randrange(0, 3)
            if m:
                dims[d] = m
        v = BettiTable(dims)
        basis = []  # (degree, index) with parity from degree
        for d, m in dims.items():
            basis.extend((d, i) for i in range(m))
        for p in range(4):
            table = {}
            for combo in _super_multisets(basis, p):
                deg = sum(b[0] for b in combo)
                table[deg] = table.get(deg, 0) + 1
            assert super_sym_powers(v, p)[p] == table


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.integers(0, 4), st.integers(0, 2), max_size=4), st.integers(0, 6))
def test_sym_powers_match_the_super_multisets_property(dims, pmax):
    # an independent count: multisets of a graded basis, even vectors
    # repeated at will and odd ones at most once
    basis = [(d, i) for d, m in dims.items() for i in range(m)]
    powers = super_sym_powers(BettiTable(dims), pmax)
    assert len(powers) == pmax + 1
    for p, power in enumerate(powers):
        table = {}
        for combo in _super_multisets(basis, p):
            deg = sum(b[0] for b in combo)
            table[deg] = table.get(deg, 0) + 1
        assert power == table


def test_sym_powers_width_is_met_with_equality(monkeypatch):
    # dim S^P of M even degree-0 vectors is C(M+P-1, P), the largest value
    # the expansion reaches: super_sym_powers reads its rows at exactly that
    # bit length, and a width one bit short misreads the row
    core, widths = betti._packed_sym_powers, []

    def spy(table, pmax, width):
        out = core(table, pmax, width)
        widths.append(out[0])
        return out

    monkeypatch.setattr(betti, "_packed_sym_powers", spy)
    for m in range(1, 7):
        for p in range(41):
            want = math.comb(m + p - 1, p)
            assert super_sym_powers(BettiTable({0: m}), p)[p] == {0: want}
            assert widths.pop() == want.bit_length()
            if want > 1:
                short = want.bit_length() - 1
                _, rows = core(BettiTable({0: m}), p, lambda _m: short)
                assert betti._unpacked(rows[p], short) != {0: want}


def _super_multisets(basis, p, start=0):
    # multisets of size p; odd-degree elements may not repeat
    if p == 0:
        yield ()
        return
    for i in range(start, len(basis)):
        b = basis[i]
        nxt = i + 1 if b[0] % 2 else i
        for rest in _super_multisets(basis, p - 1, nxt):
            yield (b,) + rest


def test_sym_powers_splitting():
    # S^p(U + V) = sum_{a+b=p} S^a(U) tensor S^b(V)
    u = BettiTable({0: 1, 3: 1})
    v = BettiTable({1: 1, 2: 2})
    pu = super_sym_powers(u, 3)
    pv = super_sym_powers(v, 3)
    pw = super_sym_powers(u.add(v), 3)
    for p in range(4):
        total = BettiTable({})
        for a in range(p + 1):
            total = total.add(pu[a].tensor(pv[p - a]))
        assert pw[p] == total
