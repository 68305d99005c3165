import random
from fractions import Fraction

import pytest

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
