import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreath_hochschild.linalg import (
    CertificateError,
    Echelon,
    TrackingEchelon,
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
    assert rank_modulo(rows, [0, 1, 2]) == 2


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
    assert rank_modulo([{0: zero, 1: one}], [0, 1]) == 1
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


def test_tracking_detects_outside_span():
    ech = TrackingEchelon()
    ech.insert({0: Fraction(1)}, "a")
    assert ech.express({1: Fraction(1)}) == ({1: Fraction(1)}, {})
    assert ech.express({0: Fraction(5)}) == ({}, {"a": Fraction(5)})


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


def integer_constant(value) -> int:
    """value as an int; anything but an exact integer constant fails."""
    if isinstance(value, RatFunc):
        assert value.den == (1,) and len(value.num) <= 1, value
        return value.num[0] if value.num else 0
    assert value.denominator == 1, value
    return int(value)


def labelled_invariant_dim(boundaries, cycles, actions, one):
    """Reference: the projector trace with every boundary labelled in the
    combos, reading the cycle ("z") entries of each labelled combo; the
    engine reads the rank of the certified projector instead."""
    tracked = TrackingEchelon(one)
    for idx, img in enumerate(boundaries):
        tracked.insert(img, ("b", idx))
    reps = []
    for cyc in cycles:
        if tracked.insert(cyc, ("z", len(reps))) is None:
            reps.append(cyc)
    trace = one - one
    for act in actions:
        for col, cyc in enumerate(reps):
            residual, combo = tracked.express(act(cyc))
            assert not residual
            trace = trace + combo.get(("z", col), one - one)
    return integer_constant(trace / len(actions))


def random_field_entry(rng, one):
    """A small nonzero scalar: a rational, or a rational function in q."""
    if isinstance(one, RatFunc):
        num = [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]
        value = RatFunc(num, [rng.randint(1, 2), rng.randint(0, 1)])
    else:
        value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return value if value else one


def linear_action(images):
    """The linear map sending e_k to images[k]."""
    def act(vec):
        out = {}
        for k, v in vec.items():
            addmul_into(out, images[k], v)
        return out
    return act


def random_vector(rng, one, keys):
    size = rng.randint(1, min(3, len(keys)))
    return {k: random_field_entry(rng, one) for k in rng.sample(keys, size)}


def with_dependents(rng, one, vectors):
    """vectors, twice one of them and a combination of two, shuffled."""
    out = list(vectors)
    if vectors:
        a, b = rng.choice(vectors), rng.choice(vectors)
        out.append({k: v * (one + one) for k, v in a.items()})
        combo = dict(a)
        addmul_into(combo, b, random_field_entry(rng, one))
        out.append(combo)
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("one", [Fraction(1), RatFunc.from_int(1)],
                         ids=["fraction", "ratfunc"])
def test_invariant_dim_matches_labelled_boundaries(one):
    # a random Z/2 action on Q^6 or Q(q)^6 (a pairing e_i -> c e_j,
    # e_j -> c^-1 e_i, and signs on fixed points), with stable boundary
    # and cycle spans whose spanning lists are linearly dependent
    rng = random.Random(71)
    seen = set()
    for _ in range(30 if isinstance(one, RatFunc) else 60):
        keys = list(range(6))
        rng.shuffle(keys)
        images = {}
        for i in range(0, rng.choice((2, 4, 6)), 2):
            c = random_field_entry(rng, one)
            images[keys[i]], images[keys[i + 1]] = {keys[i + 1]: c}, {keys[i]: one / c}
        for k in keys:
            images.setdefault(k, {k: rng.choice((one, -one))})
        sigma = linear_action(images)
        orbit = []
        for _ in range(rng.randint(0, 2)):
            b = random_vector(rng, one, keys)
            orbit += [b, sigma(b)]
        boundaries = with_dependents(rng, one, orbit)
        cycles = list(boundaries[:rng.randint(0, len(boundaries))])
        for _ in range(rng.randint(1, 3)):
            z = random_vector(rng, one, keys)
            cycles += [z, sigma(z)]
        cycles = with_dependents(rng, one, cycles)
        for actions in ([identity], [identity, sigma]):
            want = labelled_invariant_dim(boundaries, cycles, actions, one)
            assert invariant_dim(boundaries, cycles, actions, one) == want
            seen.add((len(actions), want))
    assert len(seen) > 5


@pytest.mark.parametrize("one", [Fraction(1), RatFunc.from_int(1)],
                         ids=["fraction", "ratfunc"])
def test_invariant_dim_rejects_a_non_idempotent_average(one):
    # a 3-cycle on e0, e1, e2 passed as if it had order 2: (1 + t)/2 is
    # not idempotent on the classes it moves, with dependent boundaries
    # elsewhere absorbed first
    rng = random.Random(73)
    images = {0: {1: one}, 1: {2: one}, 2: {0: one}, 3: {3: one}, 4: {4: one}}
    for _ in range(10):
        boundaries = with_dependents(rng, one, [random_vector(rng, one, [3, 4])])
        cycles = [{0: one}, {1: one}, {2: one}, random_vector(rng, one, [3, 4])]
        with pytest.raises(CertificateError, match="not idempotent"):
            invariant_dim(boundaries, cycles, [identity, linear_action(images)], one)


def test_float_entries_are_refused_with_a_type_error():
    # a float first or after exact entries, in every entry point
    for vec in ({0: 1, 1: 0.5}, {0: Fraction(1, 2), 1: 2.0}, {0: 0.5, 1: 1}):
        with pytest.raises(TypeError, match="of type float"):
            rank_of([vec])
        with pytest.raises(TypeError, match="of type float"):
            TrackingEchelon().insert(vec, 0)
        with pytest.raises(TypeError, match="of type float"):
            Echelon().reduce(vec)


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


def integer_first(vec):
    """The exact_scalar contract: an int exactly when the entry is
    integral, else a Fraction."""
    return all(type(v) is (int if v.denominator == 1 else Fraction)
               for v in vec.values())


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
            assert integer_first(got)
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
        assert integer_first(got_r) and integer_first(got_c)


def entry_family(name):
    """An entry maker for vectors whose entries are integral but not all
    plain ints, or all ints but one Fraction(1, 2): none of them may take
    the all-int entry of elimination."""
    def make(rng, k, first):
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        if name == "fraction_n_1":
            return Fraction(n)
        if name == "int_and_fraction_n_1":
            return Fraction(n) if rng.random() < 0.5 else n
        if name == "bools":
            return rng.choice([True, False, n])
        # one Fraction(1, 2), at the first key of the vector
        return Fraction(1, 2) if first else n
    return make


@pytest.mark.parametrize("family", ["fraction_n_1", "int_and_fraction_n_1", "bools",
                                    "one_half"])
def test_integral_non_int_entries_match_monic_field_elimination(family):
    make = entry_family(family)
    rng = random.Random(family)
    for _ in range(40):
        vecs = []
        for _ in range(rng.randint(1, 7)):
            keys = sorted(rng.sample(range(6), rng.randint(1, 4)))
            vecs.append({k: make(rng, k, k == keys[0]) for k in keys})
        ref = MonicElimination()
        ech, tracked = Echelon(), TrackingEchelon()
        deps = []
        for i, v in enumerate(vecs):
            # the reference keeps explicit zeros (False); elimination drops them
            want = ref.insert({k: c for k, c in v.items() if c}, i)
            assert ech.insert(v) is (want is None)
            got = tracked.insert(v, i)
            assert got == want
            if got is not None:
                assert integer_first(got)
                deps.append(got)
        assert rank_of(vecs) == len(ref.pivots)
        assert kernel_combos(enumerate(vecs)) == deps
        assert_primitive_pivots(ech)
        assert_primitive_pivots(tracked)
        for vec in vecs + [{k: make(rng, k, k == 0) for k in range(6)}]:
            want_r, want_c = ref.express({k: c for k, c in vec.items() if c})
            got_r = ech.reduce(vec)
            assert got_r == want_r and integer_first(got_r)
            got_r, got_c = tracked.express(vec)
            assert (got_r, got_c) == (want_r, want_c)
            assert integer_first(got_r) and integer_first(got_c)


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


def rank_modulo_reference(vectors, keys, one):
    """dim span{e_k} modulo span(vectors), by inserting the unit vectors."""
    return rank_of(vectors + [{k: one} for k in keys]) - rank_of(vectors)


RATFUNC_ENTRY = st.builds(
    RatFunc, st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.tuples(st.integers(1, 3), st.integers(-2, 2)).map(list))
# keys up to 8 while vector entries stop at 6: some keys meet no vector
KEYS = st.lists(st.integers(0, 8), max_size=12)


@PROPERTY
@given(st.lists(VECTOR, max_size=9), KEYS)
def test_rank_modulo_matches_unit_insertion(vecs, keys):
    want = rank_modulo_reference(vecs, keys, Fraction(1))
    assert rank_modulo(vecs, keys) == want
    assert rank_modulo(iter(vecs), iter(keys)) == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.dictionaries(st.integers(0, 6), RATFUNC_ENTRY, max_size=4),
                max_size=6), KEYS)
def test_rank_modulo_matches_unit_insertion_over_rational_functions(vecs, keys):
    assert rank_modulo(vecs, keys) == rank_modulo_reference(vecs, keys, RatFunc.from_int(1))


@PROPERTY
@given(st.permutations(range(6)), st.integers(0, 3),
       st.lists(st.sampled_from((1, -1)), min_size=6, max_size=6),
       st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=3), max_size=3),
       st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=3), min_size=1, max_size=3),
       st.integers(0, 6))
def test_invariant_dim_with_an_int_unit_is_exact(keys, pairs, signs, bvecs, zvecs, shared):
    """A signed-permutation Z/2 action with integer chains: the int unit 1
    gives an int dimension, the one Fraction(1) and labelled boundaries give."""
    images = {}
    for i in range(pairs):
        a, b = keys[2 * i], keys[2 * i + 1]
        images[a], images[b] = {b: signs[a]}, {a: signs[a]}
    for k in keys:
        images.setdefault(k, {k: signs[k]})
    sigma = linear_action(images)
    boundaries = [v for b in bvecs for v in (b, sigma(b))]
    cycles = boundaries[:shared] + [v for z in zvecs for v in (z, sigma(z))]
    for actions in ([identity], [identity, sigma]):
        got = invariant_dim(boundaries, cycles, actions, 1)
        assert type(got) is int
        assert got == invariant_dim(boundaries, cycles, actions)
        assert got == labelled_invariant_dim(boundaries, cycles, actions, Fraction(1))


# -- Q(q) pivots are made monic on first use ----------------------------------

NONZERO_RATFUNC = RATFUNC_ENTRY.filter(bool)
# few keys, so that a stored pivot is met by 0, 1 or more later rows
RATFUNC_ROW = st.dictionaries(st.integers(0, 3), NONZERO_RATFUNC, max_size=3)


def assert_monic_on_use(ech, ref, one):
    """Each stored pivot, divided by its kept lead, is the reference's
    monic row; a pivot already met (lead None) is stored monic."""
    assert set(ech.pivots) == set(ref.pivots)
    for key, (tail, combo, lead) in ech.pivots.items():
        row, ref_combo = ref.pivots[key]
        lead = one if lead is None else lead
        assert {key: one, **{k: v / lead for k, v in tail.items()}} == row
        if combo is not None:
            assert {k: v / lead for k, v in combo.items()} == ref_combo


_Q = RatFunc.variable()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(RATFUNC_ROW, max_size=7), RATFUNC_ROW)
# the pivot at key 0 met 0, 1 and 2 times
@example([{0: _Q + 2, 1: _Q}], {})
@example([{0: _Q + 2, 1: _Q}, {0: 1 / _Q, 2: _Q}], {1: _Q})
@example([{0: _Q + 2, 1: _Q}, {0: 1 / _Q, 2: _Q}, {0: _Q, 1: _Q - 1}], {0: _Q})
def test_field_pivots_made_monic_on_first_use_match_monic_elimination(vecs, probe):
    one = RatFunc.from_int(1)
    ref = MonicElimination(one)
    ech, tracked = Echelon(), TrackingEchelon(one)
    for i, v in enumerate(vecs):
        want = ref.insert(v, i)
        assert ech.insert(v) is (want is None)
        assert tracked.insert(v, i) == want
        assert_monic_on_use(ech, ref, one)
        assert_monic_on_use(tracked, ref, one)
    assert ech.reduce(probe) == ref.express(probe)[0]
    assert tracked.express(probe) == ref.express(probe)
    assert_monic_on_use(tracked, ref, one)


def test_a_field_pivot_is_divided_by_its_lead_once_on_first_use(monkeypatch):
    q, one = RatFunc.variable(), RatFunc.from_int(1)
    lead = q + 2
    divisors = []
    divide = RatFunc.__truediv__
    monkeypatch.setattr(RatFunc, "__truediv__",
                        lambda a, b: divisors.append(b) or divide(a, b))
    ref, ech = MonicElimination(one), TrackingEchelon(one)
    a = {0: lead, 1: q, 2: one}
    # stored as elimination left it: never met, never divided
    assert ech.insert(a, "a") is None
    assert divisors == [] and ech.pivots[0][2] == lead
    # met once: its tail (two entries) and combo (one) are divided by the lead
    assert ech.insert(a, "b") == {"a": -one, "b": one}
    assert divisors == [lead] * 3 and ech.pivots[0][2] is None
    # met again: already monic, nothing is divided
    divisors.clear()
    assert ech.insert({0: q}, "c") is None
    assert divisors == []
    # the same results as monic field elimination
    assert ref.insert(a, "a") is None and ref.insert(a, "b") == {"a": -one, "b": one}
    assert ref.insert({0: q}, "c") is None
    assert_monic_on_use(ech, ref, one)
    assert ech.express({0: q, 3: one}) == ref.express({0: q, 3: one})
