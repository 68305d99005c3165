import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_hochschild.linalg import (
    CertificateError,
    Echelon,
    TrackingEchelon,
    _integer_trace,
    add_term,
    addmul_into,
    invariant_dim,
    kernel_combos,
    rank_modulo,
    rank_of,
)
from wreath_hochschild.ratfunc import RatFunc


def dense_rank(rows, ncols):
    """Reference rank: dense fraction Gaussian elimination."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    col = 0
    while col < ncols and rank < len(mat):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                for j in range(col, ncols):
                    mat[i][j] -= f * mat[rank][j]
        rank += 1
        col += 1
    return rank


def random_sparse(rng, nrows, ncols, fill=0.3):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < fill:
                v = Fraction(rng.randint(-3, 3))
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_addmul_into():
    a = {0: Fraction(1), 2: Fraction(3)}
    addmul_into(a, {0: Fraction(-1, 2), 1: Fraction(2)}, Fraction(2))
    assert a == {1: Fraction(4), 2: Fraction(3)}
    addmul_into(a, {5: Fraction(1)}, Fraction(0))
    assert 5 not in a


def test_add_term():
    a = {0: Fraction(1)}
    add_term(a, 1, Fraction(2))
    add_term(a, 0, Fraction(-1))
    add_term(a, 2, Fraction(0))
    assert a == {1: Fraction(2)}


def test_rank_against_dense():
    rng = random.Random(13)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_sparse(rng, nrows, ncols)
        assert rank_of(rows) == dense_rank(rows, ncols)


def test_rank_modulo_against_rank_of():
    rng = random.Random(37)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_sparse(rng, nrows, ncols)
        keys = rng.sample(range(ncols), rng.randint(0, ncols))
        units = [{k: Fraction(1)} for k in keys]
        want = rank_of(rows + units) - rank_of(rows)
        assert rank_modulo(rows, keys) == want
        assert rank_modulo(iter(rows), keys) == want


def test_rank_modulo_keys_in_span_give_zero():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(3)}]
    assert rank_modulo(rows, [0, 1]) == 0
    assert rank_modulo((r for r in rows), [1, 2]) == 1


def test_rank_modulo_over_rational_functions():
    q = RatFunc.variable()
    one = RatFunc.from_int(1)
    # span{[1, q]} leaves one of e0, e1 free and all of e2
    rows = [{0: one, 1: q}, {0: q, 1: q * q}]
    assert rank_modulo(rows, [0, 1, 2], one) == 2


@pytest.mark.parametrize("zero, one", [
    (Fraction(0), Fraction(1)),
    (0, 1),
    (RatFunc.from_int(0), RatFunc.from_int(1)),
], ids=["fraction", "int", "ratfunc"])
def test_explicit_zero_entries_are_dropped(zero, one):
    # a stored zero lead once counted as a pivot (rank 2) or divided by zero
    assert rank_of([{1: one}, {0: zero, 1: one}]) == 1
    assert rank_of([{0: zero}]) == 0
    assert rank_of([{0: one}, {0: zero, 1: one}]) == 2
    assert rank_modulo([{0: zero, 1: one}], [0, 1], one) == 1
    ech = Echelon()
    assert not ech.insert({0: zero})
    assert ech.insert({0: zero, 1: one})
    assert ech.reduce({0: zero, 1: one, 2: zero}) == {}
    deps = kernel_combos([("a", {0: zero}), ("b", {1: one}), ("c", {0: zero, 1: one})], one)
    assert deps == [{"a": one}, {"b": -one, "c": one}]
    tracked = TrackingEchelon(one)
    tracked.insert({0: one, 1: zero}, "a")
    assert tracked.express({0: one + one, 1: zero}) == ({}, {"a": one + one})


def test_echelon_reduce_membership():
    ech = Echelon()
    ech.insert({0: Fraction(1), 1: Fraction(1)})
    ech.insert({1: Fraction(2)})
    assert ech.rank == 2
    assert ech.reduce({0: Fraction(3), 1: Fraction(5)}) == {}
    assert ech.reduce({2: Fraction(1)}) == {2: Fraction(1)}
    assert not ech.insert({0: Fraction(1), 1: Fraction(7)})


def test_kernel_combos_are_kernel_vectors():
    rng = random.Random(29)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        cols = random_sparse(rng, ncols, nrows)  # column j -> image vector
        pairs = list(enumerate(cols))
        kernel = kernel_combos(pairs)
        assert len(kernel) == ncols - rank_of(cols)
        for combo in kernel:
            image: dict = {}
            for label, coeff in combo.items():
                addmul_into(image, cols[label], coeff)
            assert image == {}
        # combos are triangular: each has a label not in earlier ones
        seen = set()
        for combo in kernel:
            assert set(combo) - seen
            seen |= set(combo)


def test_tracking_express():
    rng = random.Random(37)
    for _ in range(20):
        vecs = random_sparse(rng, 6, 5)
        ech = TrackingEchelon()
        for i, v in enumerate(vecs):
            ech.insert(v, i)
        # any combination of inputs must be recognized and reproduced
        target: dict = {}
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in vecs]
        for v, c in zip(vecs, coeffs):
            addmul_into(target, v, c)
        residual, combo = ech.express(target)
        assert residual == {}
        rebuilt: dict = {}
        for label, c in combo.items():
            addmul_into(rebuilt, vecs[label], c)
        assert rebuilt == target
        assert ech.in_span(target) is not None


def test_tracking_detects_outside_span():
    ech = TrackingEchelon()
    ech.insert({0: Fraction(1)}, "a")
    assert ech.in_span({1: Fraction(1)}) is None
    combo = ech.in_span({0: Fraction(5)})
    assert combo == {"a": Fraction(5)}


def test_rank_over_rational_functions():
    q = RatFunc.variable()
    one = RatFunc.from_int(1)
    # rows [1, q], [q, q^2] are dependent; adding [0, 1] gives rank 2
    rows = [{0: one, 1: q}, {0: q, 1: q * q}]
    assert rank_of(rows) == 1
    rows.append({1: one})
    assert rank_of(rows) == 2


def test_kernel_over_rational_functions():
    q = RatFunc.variable()
    one = RatFunc.from_int(1)
    cols = [{0: one}, {0: q}, {0: q * q}]
    kernel = kernel_combos(list(enumerate(cols)))
    assert len(kernel) == 2
    for combo in kernel:
        image: dict = {}
        for label, coeff in combo.items():
            addmul_into(image, cols[label], coeff)
        assert image == {}


def test_deterministic_pivoting():
    rng = random.Random(41)
    rows = random_sparse(rng, 6, 6)
    e1, e2 = Echelon(), Echelon()
    for r in rows:
        e1.insert(dict(r))
        e2.insert(dict(r))
    assert e1.pivots == e2.pivots


def test_fork_leaves_the_parent_untouched():
    def frozen(ech):
        return {k: (dict(tail), lead) for k, (tail, _, lead) in ech.pivots.items()}

    rng = random.Random(43)
    for one, rows in ((Fraction(1), random_sparse(rng, 5, 8)),
                      (RatFunc.from_int(1),
                       [{0: RatFunc([1, 1]), 2: RatFunc([0, 1])}, {1: RatFunc([2], [1, 1])}])):
        parent = Echelon()
        for r in rows:
            parent.insert(r)
        rank, pivots = parent.rank, frozen(parent)
        child = parent.fork()
        assert (child.rank, frozen(child)) == (rank, pivots)
        for k in range(8):
            child.insert({k: one})
        assert child.rank == 8
        assert (parent.rank, frozen(parent)) == (rank, pivots)
        # and the fork is untouched when the parent goes on
        forked = frozen(child)
        for k in range(8):
            parent.insert({k: one})
        assert parent.rank == 8 and frozen(child) == forked


ONE = Fraction(1)


def identity(vec):
    return vec


def swap(vec):
    return {1 - k: c for k, c in vec.items()}


def test_invariant_dim_averages_the_action():
    cycles = [{0: ONE}, {1: ONE}]
    assert invariant_dim([], cycles, [identity]) == 2
    assert invariant_dim([], cycles, [identity, swap]) == 1
    # e0 + e1 is a boundary: one class left, on which the swap acts by -1
    boundary = [{0: ONE, 1: ONE}]
    assert invariant_dim(boundary, cycles, [identity]) == 1
    assert invariant_dim(boundary, cycles, [identity, swap]) == 0


def test_invariant_dim_rejects_action_leaving_cycle_span():
    def shift_out(vec):
        return {k + 1: c for k, c in vec.items()}

    with pytest.raises(CertificateError):
        invariant_dim([], [{0: ONE}], [identity, shift_out])


def test_invariant_dim_over_rational_functions():
    one = RatFunc.from_int(1)
    q = RatFunc.variable()

    def q_swap(vec):
        # e0 -> q e1, e1 -> q^-1 e0: an involution fixing e0 + q e1
        out = {}
        if 0 in vec:
            out[1] = vec[0] * q
        if 1 in vec:
            out[0] = vec[1] / q
        return out

    cycles = [{0: one}, {1: one}]
    assert invariant_dim([], cycles, [identity, q_swap], one) == 1


def test_trace_must_be_an_integer_constant():
    q = RatFunc.variable()
    assert _integer_trace(RatFunc.from_int(3)) == 3
    assert _integer_trace(RatFunc.from_int(0)) == 0
    assert _integer_trace(Fraction(2)) == 2
    for bad in (q, RatFunc.from_int(1) / q, (q + 1) / 2, Fraction(1, 2)):
        with pytest.raises(CertificateError):
            _integer_trace(bad)


# -- the integer kernel against monic field elimination -----------------------


class MonicElimination:
    """Reference: elimination over the field with monic pivot rows.

    This is the literal definition the integer kernel must reproduce:
    insert() gives None or the dependency combo with 1 on the new label,
    express() gives (residual, combo) with vec = sum(combo * input) + residual.
    """

    def __init__(self, one=Fraction(1)):
        self.one = one
        self.pivots = {}

    @staticmethod
    def _axpy(target, src, factor):
        for k, v in src.items():
            val = target.get(k, 0) + factor * v
            if val:
                target[k] = val
            else:
                target.pop(k, None)

    def _eliminate(self, r, c, sign):
        while r:
            key = min(r)
            if key not in self.pivots:
                return
            row, combo = self.pivots[key]
            f = r[key]
            self._axpy(r, row, -f)
            self._axpy(c, combo, sign * f)

    def _field(self, vec):
        return {k: self.one * v for k, v in vec.items()}

    def insert(self, vec, label):
        r, c = self._field(vec), {label: self.one}
        self._eliminate(r, c, -1)
        if not r:
            return c
        lead = r[min(r)]
        self.pivots[min(r)] = ({k: v / lead for k, v in r.items()},
                               {k: v / lead for k, v in c.items()})
        return None

    def express(self, vec):
        r, c = self._field(vec), {}
        self._eliminate(r, c, +1)
        return r, c


def assert_primitive_pivots(ech):
    """Integer pivot rows: content 1 (jointly with the combo), positive
    leading entry, kept as lead (None for 1) apart from the tail."""
    for key, (tail, combo, lead) in ech.pivots.items():
        assert all(k > key for k in tail)
        lead_value = 1 if lead is None else lead
        assert lead_value > 0 and lead != 1
        values = [lead_value, *tail.values(), *(combo or {}).values()]
        assert all(type(v) is int for v in values)
        assert math.gcd(*values) == 1


def all_fractions(vec):
    return all(type(v) is Fraction for v in vec.values())


ENTRY = st.one_of(
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)),
    st.integers(-4, 4).filter(bool),
)
VECTOR = st.dictionaries(st.integers(0, 6), ENTRY, max_size=5)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.lists(VECTOR, max_size=9), VECTOR,
       st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_kernel_matches_monic_field_elimination(vecs, extra, coeffs):
    ref = MonicElimination()
    ech, tracked = Echelon(), TrackingEchelon()
    deps = []
    for i, v in enumerate(vecs):
        want = ref.insert(v, i)
        assert ech.insert(v) is (want is None)
        got = tracked.insert(v, i)
        assert got == want
        if got is not None:
            assert all_fractions(got)
            deps.append(got)
    assert ech.rank == tracked.rank == len(ref.pivots)
    assert kernel_combos(enumerate(vecs)) == deps
    assert_primitive_pivots(ech)
    assert_primitive_pivots(tracked)
    # probes inside the span and off it
    probe = dict(extra)
    for v, c in zip(vecs, coeffs):
        addmul_into(probe, v, Fraction(c, 3))
    for vec in (probe, extra):
        want_r, want_c = ref.express(vec)
        assert ech.reduce(vec) == want_r
        got_r, got_c = tracked.express(vec)
        assert (got_r, got_c) == (want_r, want_c)
        assert all_fractions(got_r) and all_fractions(got_c)


def test_kernel_over_rational_functions_matches_monic_elimination():
    rng = random.Random(61)
    one = RatFunc.from_int(1)

    def entry():
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        den = [rng.randint(1, 3)] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 1))]
        return RatFunc(num, den)

    for _ in range(25):
        vecs = []
        for _ in range(rng.randint(1, 6)):
            vec = {k: entry() for k in rng.sample(range(5), rng.randint(0, 4))}
            vecs.append({k: v for k, v in vec.items() if v})
        ref = MonicElimination(one)
        ech, tracked = Echelon(), TrackingEchelon(one)
        for i, v in enumerate(vecs):
            want = ref.insert(v, i)
            assert ech.insert(v) is (want is None)
            assert tracked.insert(v, i) == want
        probe = {k: entry() for k in range(5)}
        probe = {k: v for k, v in probe.items() if v}
        assert ech.reduce(probe) == ref.express(probe)[0]
        assert tracked.express(probe) == ref.express(probe)
