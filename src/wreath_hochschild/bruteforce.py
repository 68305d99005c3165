"""Brute-force Hochschild homology of finite-dimensional algebras.

Everything runs on the bar complex with exact rational coefficients.
A level-k chain over the algebra B with coefficients in a bimodule M is
a combination of basis keys (a_1, ..., a_k, m): k algebra legs followed
by one module slot.  The differential enumerates faces from the wrap
side,

    d(a_1,...,a_k; m) = (a_1,...,a_{k-1}; a_k.m)
                      + sum_{i=1}^{k-1} (-1)^i (..., a_{k-i} a_{k-i+1}, ...; m)
                      + (-1)^k (a_2,...,a_k; m.a_1),

a convention chosen so that the cyclic-rotation homotopy identity checked
by homotopy_identity_check holds literally, with no stray signs.

Matrices never use floats: structure constants are exact rationals, kept
as ints where integral, and ranks and kernels come from the exact sparse
elimination of linalg.  hh_dims works on the normalised complex, with
legs in B/k.1; bar_columns and bar_apply keep the full complex, which
the homotopy identity and the sector dimensions of afls_check use.
Complex sizes grow as dim(B)^level, so every entry point,
homotopy_identity_check included, first checks a size cap
(dense-equivalent entry count of the largest matrix of the full complex)
from dimensions alone, before anything is built, through series.check_cap,
the one admission rule, raising SizeCapExceeded; HH_SIZE_CAP in the
environment overrides it (a nonnegative integer, else ValueError).  A
group closure above 1024 elements is refused by the same rule.
A bimodule is dim and two action tables, left[b][m] = b.m and
right[m][b] = m.b, read by the differential and never mutated; the three
bimodules here also record the algebra they are over, and the bar complex
refuses one over another algebra.  Every map given by its columns runs
through linalg.apply_columns.  Every tensor product of sparse vectors on
basis indices (A tensor B, TwistedBimodule) runs through _expand, whose
keys are base-dim ints.  Chains of the full complex (_d_basis, bar_columns,
bar_apply, the homotopy identity, the sectors of afls_check) are tuple
keys, which _act_on_chain and the append_unit of homotopy_identity_check
extend; hh_dims numbers the chains of the normalised complex instead, as
mixed-radix ints, and _level_rows builds each level's rows on those
numbers, face by face, with no tuple.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from functools import partial

from .linalg import (
    CertificateError,
    TrackingEchelon,
    add_term,
    addmul_into,
    apply_columns,
    exact_scalar,
    invariant_dim,
    kernel_combos,
    rank_of,
)
from .presets_io import CheckReport
from .series import check_cap, check_count, is_permutation

DEFAULT_SIZE_CAP = 10 ** 7


class SizeCapExceeded(RuntimeError):
    """A requested bar-complex matrix exceeds the configured size cap."""


def _resolve_cap(size_cap: int | None) -> int:
    if size_cap is not None:
        return size_cap
    env = os.environ.get("HH_SIZE_CAP")
    if not env:
        return DEFAULT_SIZE_CAP
    # ASCII digits only: int() would also take a sign, spaces and underscores
    if not (env.isascii() and env.isdigit()):
        raise ValueError(f"HH_SIZE_CAP must be a nonnegative integer, got {env!r}")
    return int(env)


def _check_bar_cap(b_dim: int, m_dim: int, top: int, cap: int):
    """Refuse, with SizeCapExceeded, a full bar complex (algebra of dimension
    b_dim, coefficients of dimension m_dim) with a differential at level
    1 .. top of more than cap dense entries."""
    for k in range(1, top + 1):
        domain, codomain = b_dim ** k * m_dim, b_dim ** (k - 1) * m_dim
        check_cap(f"bar differential at level {k}: matrix {domain} x {codomain} "
                  "(set HH_SIZE_CAP to override)", domain * codomain, cap, SizeCapExceeded)


class FiniteDimAlgebra:
    """Associative unital algebra given by exact structure constants.

    table[i][j] is the sparse coordinate vector of (basis i) * (basis j);
    unit is the coordinate vector of 1; entries are stored as ints where
    integral, as Fractions otherwise.  Validation checks the unit law and
    associativity on all basis triples unless check=False (used by the
    combinators, whose output is associative by construction).
    """

    __slots__ = ("dim", "table", "unit")

    def __init__(self, table, unit, check: bool = True):
        self.dim = len(table)
        if not self.dim:
            raise ValueError("structure-constant table is empty: an algebra needs a basis")
        self.table = [
            [{k: exact_scalar(v) for k, v in cell.items() if v} for cell in row]
            for row in table
        ]
        self.unit = {k: exact_scalar(v) for k, v in unit.items() if v}
        if any(len(row) != self.dim for row in self.table):
            raise ValueError("structure-constant table must be square")
        if check:
            self._validate()

    def _validate(self):
        for i in range(self.dim):
            if self.mul(self.unit, {i: 1}) != {i: 1}:
                raise ValueError("unit is not a left identity")
            if self.mul({i: 1}, self.unit) != {i: 1}:
                raise ValueError("unit is not a right identity")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.table[i][j]
                for k in range(self.dim):
                    left = self.mul(ij, {k: 1})
                    right = self.mul({i: 1}, self.table[j][k])
                    if left != right:
                        raise ValueError(
                            f"multiplication not associative at ({i},{j},{k})"
                        )

    def mul(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            row = self.table[i]
            for j, b in v.items():
                addmul_into(out, row[j], a * b)
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def truncated_polynomial(cls, k: int) -> "FiniteDimAlgebra":
        """Q[x]/(x^k), basis 1, x, ..., x^{k-1}."""
        check_count(k, "k", 1)
        table = [
            [({i + j: 1} if i + j < k else {}) for j in range(k)]
            for i in range(k)
        ]
        return cls(table, {0: 1}, check=False)

    @classmethod
    def group_algebra(cls, group_table) -> "FiniteDimAlgebra":
        """Group algebra from a multiplication table g,h -> group_table[g][h].

        The table must be square, with int entries (type(), not isinstance:
        True and 1.0 are refused), and every row and column a permutation of
        0..m-1, else ValueError before any structure constant is built; with
        the identity and associativity checked below, that makes it a group."""
        m = len(group_table)
        span = list(range(m))
        if (any(len(row) != m for row in group_table)
                or any(type(g) is not int for row in group_table for g in row)
                or any(sorted(line) != span
                       for line in (*group_table, *zip(*group_table)))):
            raise ValueError("group table must be square, with int entries, and every "
                             f"row and column a permutation of 0..{m - 1}")
        identity = None
        for e in range(m):
            if all(group_table[e][h] == h and group_table[h][e] == h
                   for h in range(m)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        table = [[{group_table[g][h]: 1} for h in range(m)] for g in range(m)]
        return cls(table, {identity: 1})  # checked: validates associativity

    def tensor(self, other: "FiniteDimAlgebra") -> "FiniteDimAlgebra":
        d2 = other.dim
        table = [[_expand((cell1, cell2), d2) for cell1 in row1 for cell2 in row2]
                 for row1 in self.table for row2 in other.table]
        return FiniteDimAlgebra(table, _expand((self.unit, other.unit), d2), check=False)

    def change_basis(self, new_basis) -> "FiniteDimAlgebra":
        """Rewrite structure constants in the basis given by new_basis
        (a list of coordinate vectors in the old basis)."""
        if len(new_basis) != self.dim:
            raise ValueError("basis size mismatch")
        inv = _invert(new_basis)
        table = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                prod = self.mul(new_basis[i], new_basis[j])
                row.append(apply_columns(inv, prod))
            table.append(row)
        unit = apply_columns(inv, self.unit)
        return FiniteDimAlgebra(table, unit, check=False)

    def is_automorphism(self, columns) -> bool:
        """Is the linear map (columns[i] = image of basis i) a map of the
        algebra to itself, one column per basis element and each over the
        basis, that preserves multiplication and the unit and is invertible?"""
        if len(columns) != self.dim or not all(type(k) is int and 0 <= k < self.dim
                                               for col in columns for k in col):
            return False
        if apply_columns(columns, self.unit) != self.unit:
            return False
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = apply_columns(columns, self.table[i][j])
                rhs = self.mul(columns[i], columns[j])
                if lhs != rhs:
                    return False
        return rank_of(columns) == self.dim

    def __repr__(self):
        return f"FiniteDimAlgebra(dim={self.dim})"


def _expand(vectors, radix: int) -> dict:
    """Tensor product of sparse vectors: the key k_1, ..., k_r of the
    product c_1 ... c_r of entries is the integer with digits k_1 ... k_r
    in base radix (k_1 may exceed it)."""
    out = {0: 1}
    for vec in vectors:
        out = {key * radix + k: c * v for key, c in out.items() for k, v in vec.items()}
    return out


def _compose(a, b):
    """Composite automorphism a(b(.)) as columns."""
    return [apply_columns(a, col) for col in b]


def _columns_key(columns):
    """Hashable canonical form of a column list."""
    return tuple(tuple(sorted(col.items())) for col in columns)


def _invert(columns):
    """Inverse of a linear map given by columns, as columns (exact)."""
    ech = TrackingEchelon()
    for j, col in enumerate(columns):
        if ech.insert(col, j) is not None:
            raise ValueError("basis change matrix is singular")
    return [ech.express({i: 1})[1] for i in range(len(columns))]


def tensor_power(A: FiniteDimAlgebra, n: int) -> FiniteDimAlgebra:
    check_count(n, "n", 1)
    B = A
    for _ in range(n - 1):
        B = B.tensor(A)
    return B


def decode_index(idx: int, dim: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        out.append(idx % dim)
        idx //= dim
    return tuple(reversed(out))


def encode_tuple(t, dim: int) -> int:
    idx = 0
    for x in t:
        idx = idx * dim + x
    return idx


def slot_permutation(A: FiniteDimAlgebra, n: int, sigma) -> list[int]:
    """Basis permutation of A^(tensor n) with image slot i = source slot
    sigma(i); sigma is 1-indexed, e.g. (2,...,n,1) is the cyclic rotation."""
    check_count(n, "n", 1)
    if not is_permutation(sigma, n):
        raise ValueError("sigma must be a permutation of 1..n")
    out = []
    for idx in range(A.dim ** n):
        t = decode_index(idx, A.dim, n)
        out.append(encode_tuple((t[sigma[i] - 1] for i in range(n)), A.dim))
    return out


def rotation_permutation(A: FiniteDimAlgebra, n: int) -> list[int]:
    check_count(n, "n", 1)
    return slot_permutation(A, n, tuple(range(2, n + 1)) + (1,))


# -- bimodules ---------------------------------------------------------


class RegularBimodule:
    """M = B with multiplication as both actions."""

    __slots__ = ("algebra", "dim", "left", "right")

    def __init__(self, algebra: FiniteDimAlgebra):
        self.algebra = algebra
        self.dim = algebra.dim
        self.left = self.right = algebra.table


class AutoTwistedBimodule:
    """M = B with the right action twisted by an automorphism phi:
    b.m = bm and m.b = m phi(b).  For phi a group element g this is the
    sector module Bg of a crossed product.  Columns that are not an
    automorphism of the algebra raise ValueError."""

    __slots__ = ("algebra", "dim", "left", "right", "columns")

    def __init__(self, algebra: FiniteDimAlgebra, columns):
        if not algebra.is_automorphism(columns):
            raise ValueError("twist is not an algebra automorphism")
        self.algebra = algebra
        self.dim = algebra.dim
        self.left = algebra.table
        self.columns = columns
        self.right = [[apply_columns(row, col) for col in columns] for row in algebra.table]


class TwistedBimodule:
    """The rotated bimodule of a tensor power: the regular bimodule of
    A^n with its right action rotated one slot.

    A pure tensor a_1...a_n acts on m_1...m_n on the left slotwise; on
    the right, slot i receives factor i+1 and the last slot factor 1:

        a (m_1 ... m_n) c = a_1 m_1 c_2, ..., a_{n-1} m_{n-1} c_n, a_n m_n c_1.

    Both tables are read slotwise off the structure constants of A, not
    through slot_permutation or AutoTwistedBimodule: this is the slotwise
    reference that the tests compare AutoTwistedBimodule against, while
    verify_homolog_i builds every rotated bimodule through those two.
    """

    __slots__ = ("algebra", "dim", "left", "right")

    def __init__(self, base: FiniteDimAlgebra, n: int):
        self.algebra = tensor_power(base, n)  # refuses an n that is not a positive int
        d, table = base.dim, base.table
        self.dim = self.algebra.dim
        slots = [decode_index(i, d, n) for i in range(self.dim)]
        self.left = [[_expand([table[x][y] for x, y in zip(bs, ms)], d) for ms in slots]
                     for bs in slots]
        self.right = [[_expand([table[x][y] for x, y in zip(ms, bs[1:] + bs[:1])], d)
                       for bs in slots] for ms in slots]


# -- group actions and crossed products ---------------------------------


class GroupAction:
    """A finite group of automorphisms of an algebra, with its
    multiplication table recovered by composing the matrices."""

    __slots__ = ("algebra", "elements", "table", "identity", "inverses")

    def __init__(self, algebra: FiniteDimAlgebra, elements):
        self.algebra = algebra
        self.elements = [list(cols) for cols in elements]
        for cols in self.elements:
            if not algebra.is_automorphism(cols):
                raise ValueError("group element is not an algebra automorphism")
        index: dict = {}  # _columns_key -> the element with those columns
        for i, cols in enumerate(self.elements):
            if index.setdefault(_columns_key(cols), i) != i:
                raise ValueError("group element repeated")
        try:
            self.table = [[index[_columns_key(_compose(a, b))] for b in self.elements]
                          for a in self.elements]
        except KeyError:
            raise ValueError("matrices are not closed under composition") from None
        self.identity = index.get(_columns_key([{i: 1} for i in range(algebra.dim)]))
        if self.identity is None:
            raise ValueError("identity matrix missing from the group")
        # invertible, finite and closed: row g permutes the set, so holds the identity
        self.inverses = [row.index(self.identity) for row in self.table]

    @classmethod
    def generate(cls, algebra: FiniteDimAlgebra, generators) -> "GroupAction":
        """Close a set of automorphism matrices under composition: the
        identity, closed under x -> x s for each generator s."""
        gens = [list(g) for g in generators]
        for g in gens:
            if not algebra.is_automorphism(g):
                raise ValueError("generator is not an algebra automorphism")
        elements, seen = [], set()
        frontier = [[{i: 1} for i in range(algebra.dim)]]
        while frontier:
            g = frontier.pop()
            key = _columns_key(g)
            if key in seen:
                continue
            seen.add(key)
            elements.append(g)
            check_cap("group closure", len(elements), 1024)
            frontier.extend(_compose(g, s) for s in gens)
        return cls(algebra, elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def conjugacy_classes(self) -> list[list[int]]:
        seen = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            orbit = sorted({self.table[self.table[h][g]][self.inverses[h]]
                            for h in range(self.order)})
            seen.update(orbit)
            classes.append(orbit)
        return classes

    def centralizer(self, g: int) -> list[int]:
        return [h for h in range(self.order)
                if self.table[h][g] == self.table[g][h]]


def crossed_product(action: GroupAction) -> FiniteDimAlgebra:
    """C[G] crossed with B: basis (g, b) standing for b*g, with
    (b g)(c h) = b g(c) gh."""
    B = action.algebra
    dim = B.dim
    table = []
    for g in range(action.order):
        for i in range(dim):
            prods = [B.mul({i: 1}, col).items() for col in action.elements[g]]
            table.append([{gh * dim + k: c for k, c in prod}
                          for gh in action.table[g] for prod in prods])
    unit = {action.identity * dim + k: c for k, c in B.unit.items()}
    return FiniteDimAlgebra(table, unit, check=False)


# -- bar complex ---------------------------------------------------------


def _d_basis(table, M, key: tuple, k: int) -> dict:
    """Differential of one basis chain; table[i][j] is the product of legs i, j."""
    legs, mi = key[:k], key[k]
    out: dict = {}
    if k == 0:
        return out
    for m2, c in M.left[legs[-1]][mi].items():
        add_term(out, legs[:-1] + (m2,), c)
    for i in range(1, k):
        pos = k - i - 1
        sign = -1 if i % 2 else 1
        for bmid, c in table[legs[pos]][legs[pos + 1]].items():
            add_term(out, legs[:pos] + (bmid,) + legs[pos + 2:] + (mi,), sign * c)
    sign = -1 if k % 2 else 1
    for m2, c in M.right[mi][legs[0]].items():
        add_term(out, legs[1:] + (m2,), sign * c)
    return out


def _same_algebra(A: FiniteDimAlgebra, B: FiniteDimAlgebra) -> bool:
    """Are A and B one algebra: the same dimension, structure constants and
    unit?  An equal algebra built separately counts as the same."""
    return A is B or (A.dim, A.table, A.unit) == (B.dim, B.table, B.unit)


def _check_bimodule(B: FiniteDimAlgebra, M) -> None:
    """Refuse, with ValueError, a bimodule whose action tables are not
    left[b][m] and right[m][b] over the bases of B and M, and one that
    records, in an algebra attribute, an algebra other than B (a bimodule
    without one, only dim, left and right, gets the shape check alone)."""
    if (len(M.left) != B.dim or len(M.right) != M.dim
            or any(len(row) != M.dim for row in M.left)
            or any(len(row) != B.dim for row in M.right)):
        raise ValueError(f"bimodule actions are not indexed by the bases of the algebra "
                         f"(dim {B.dim}) and the module (dim {M.dim})")
    over = getattr(M, "algebra", None)
    if over is not None and not _same_algebra(over, B):
        raise ValueError("the bimodule is over another algebra than B")


def chain_keys(B: FiniteDimAlgebra, M, k: int):
    """Deterministic enumeration of the level-k basis keys, in
    lexicographic order."""
    for ls in itertools.product(range(B.dim), repeat=k):
        for mi in range(M.dim):
            yield ls + (mi,)


def bar_columns(B: FiniteDimAlgebra, M, k: int):
    """Iterate (basis key, differential image) across the level-k basis;
    the level and the bimodule are checked on the call, before any column."""
    check_count(k, "level", 1)
    _check_bimodule(B, M)
    return ((key, _d_basis(B.table, M, key, k)) for key in chain_keys(B, M, k))


def bar_apply(B: FiniteDimAlgebra, M, chain: dict, k: int) -> dict:
    """Differential applied to an arbitrary level-k chain."""
    out: dict = {}
    for key, c in chain.items():
        addmul_into(out, _d_basis(B.table, M, key, k), c)
    return out


def _unit_quotient(B: FiniteDimAlgebra):
    """(legs, table) of the normalised complex: B/k.1 has the basis
    indices other than u, the smallest index where the unit is nonzero,
    and table[i][j] is the product e_i e_j projected along the unit."""
    u = min(B.unit)
    scale = B.unit[u]
    legs = [i for i in range(B.dim) if i != u]
    table = [None] * B.dim
    for i in legs:
        row = [None] * B.dim
        for j in legs:
            prod = B.table[i][j]
            lam = prod.get(u)
            if lam:
                prod = dict(prod)
                addmul_into(prod, B.unit, Fraction(-lam) / scale)
            row[j] = prod
        table[i] = row
    return legs, table


def _level_rows(legs, table, M, k: int) -> list[dict]:
    """Rows of the level-k normalised differential: rows[r][j] is the
    coefficient of level-(k-1) chain r in the image of level-k chain j,
    chains numbered in mixed radix as hh_dims describes."""
    size, md = len(legs), M.dim
    at = {b: p for p, b in enumerate(legs)}
    rows = [{} for _ in range(size ** (k - 1) * md)]

    def spread(c, r0, j0, count, rstep, jstep):
        # chains j0, j0 + jstep, ... meet rows r0, r0 + rstep, ... with coefficient c
        if c:
            for r, j in zip(range(r0, r0 + count * rstep, rstep),
                            range(j0, j0 + count * jstep, jstep)):
                row = rows[r]
                if j in row:
                    add_term(row, j, c)
                else:
                    row[j] = c

    span, last = size ** (k - 1), -1 if k % 2 else 1
    for p, b in enumerate(legs):
        for m in range(md):
            for m2, c in M.left[b][m].items():  # face 0: l_k acts on m
                spread(c, m2, p * md + m, span, md, size * md)
            for m2, c in M.right[m][b].items():  # last face: m acted on by l_1
                spread(last * c, m2, p * span * md + m, span, md, md)
    for i in range(1, k):  # inner face i merges the legs at positions pos, pos + 1
        pos, sign = k - i - 1, -1 if i % 2 else 1
        low = size ** (k - pos - 2) * md
        for a, x in enumerate(legs):
            for b, y in enumerate(legs):
                for z, c in table[x][y].items():
                    for h in range(size ** pos):
                        spread(sign * c, (h * size + at[z]) * low,
                               ((h * size + a) * size + b) * low, low, 1, 1)
    return rows


def hh_dims(B: FiniteDimAlgebra, M, max_level: int,
            size_cap: int | None = None) -> list[int]:
    """Hochschild homology dimensions HH_0 .. HH_max_level of B with
    coefficients in M, by exact rank-nullity on the normalised bar complex.

    The level-k chains of the normalised complex are M tensor (B/k.1)^k
    (Loday, Cyclic Homology, 1.1.14), so a level has (dim B - 1)^k * dim M
    basis chains instead of dim(B)^k * dim M; it has the homology of the
    full bar complex.  The size cap still applies to the full complex.
    Each rank is read off the rows of the level-k differential, its
    transpose: a level has dim B - 1 times fewer rows than columns, so
    elimination meets fewer, longer vectors.  Where a kernel is needed
    (the sectors of afls_check, _random_cycles), columns are kept.

    A chain (l_1, ..., l_k, m) is numbered in mixed radix: the positions
    of its legs among the basis of B/k.1 in base dim B - 1, then m in base
    dim M, the order of chain_keys.  _level_rows walks the
    differential face by face over those numbers: face 0 from M.left, the
    inner faces from the projected table of _unit_quotient, the last face
    from M.right; each face maps a run of column numbers onto a run of
    row numbers.  A row's entries are keyed by column number, and the row
    is numbered as its level-(k-1) chain.  The rows enter elimination by
    leading column, largest first: every stored pivot then leads at or
    above the new row's lead, so a row whose lead is not yet a pivot is
    stored with no elimination step.  Only ranks are read, and the rank of a set
    of rows does not depend on the order they are inserted in.  M's
    action tables must be indexed by B's basis and M's (else ValueError).
    """
    check_count(max_level, "max_level")
    _check_bimodule(B, M)
    _check_bar_cap(B.dim, M.dim, max_level + 1, _resolve_cap(size_cap))
    legs, table = _unit_quotient(B)
    cdims = [len(legs) ** k * M.dim for k in range(max_level + 2)]
    ranks = [0]
    for k in range(1, max_level + 2):
        rows = [row for row in _level_rows(legs, table, M, k) if row]
        ranks.append(rank_of(sorted(rows, key=min, reverse=True)))
    return [cdims[k] - ranks[k] - ranks[k + 1] for k in range(max_level + 1)]


# -- the three structural checks -----------------------------------------


def _is_n_cycle(sigma, n: int) -> bool:
    """Is sigma (1-indexed one-line notation) one cycle through all of 1..n?"""
    if not is_permutation(sigma, n):
        return False
    i, length = sigma[0], 1
    while i != 1:
        i, length = sigma[i - 1], length + 1
    return length == n


def verify_homolog_i(A: FiniteDimAlgebra, n: int = 2, sigma=None,
                     max_level: int = 2, size_cap: int | None = None) -> CheckReport:
    """Compare HH of A, with coefficients in A, against HH of the n-th
    tensor power with coefficients in the rotated regular bimodule.

    Only the regular bimodule is twisted.  sigma defaults to the cyclic
    rotation (2,...,n,1); every n-cycle is applied the one way, as a slot
    permutation through AutoTwistedBimodule, and any other sigma is
    refused with ValueError.  The two dimension lists must agree level by
    level.
    """
    check_count(n, "n", 1)
    check_count(max_level, "max_level")
    if sigma is None:
        sigma = tuple(range(2, n + 1)) + (1,)
    if not _is_n_cycle(sigma, n):
        raise ValueError(f"sigma must be an n-cycle (n = {n}), got {sigma!r}")
    cap = _resolve_cap(size_cap)
    _check_bar_cap(A.dim ** n, A.dim ** n, max_level + 1, cap)
    lhs = hh_dims(A, RegularBimodule(A), max_level, cap)
    B = tensor_power(A, n)
    twisted = AutoTwistedBimodule(B, [{p: 1} for p in slot_permutation(A, n, sigma)])
    rhs = hh_dims(B, twisted, max_level, cap)
    lines = tuple(
        f"level {i}: HH(A)={lhs[i]} HH(tensor power, twisted)={rhs[i]}"
        for i in range(max_level + 1)
    )
    return CheckReport(f"twisted-coefficient reduction n={n}", lhs == rhs, lines)


def _random_cycles(B, M, level: int, count: int, rng: random.Random, d):
    """Exact cycles at the given level with small integer coordinates.

    Level 0 chains are all cycles.  Above that, cycles are sampled two
    ways: boundaries of random chains one level up, and kernel vectors
    harvested from dependencies among the differential images of a
    random slice of the basis.  d applies the differential to a chain of
    any level.  The slice's image keys are numbered in first-met order
    before elimination: its dependency combos are keyed by the slice's
    chains and, for a given insertion order, do not depend on the keys
    of the images.
    """
    def random_chain(lv: int) -> dict:
        chain: dict = {}
        for _ in range(rng.randint(1, 4)):
            legs = tuple(rng.randrange(B.dim) for _ in range(lv))
            key = legs + (rng.randrange(M.dim),)
            add_term(chain, key, rng.randint(-3, 3))
        return chain

    if level == 0:
        return [random_chain(0) for _ in range(count)]
    keys = list(chain_keys(B, M, level))
    rng.shuffle(keys)
    number: dict = {}
    slice_pairs = [(key, {number.setdefault(r, len(number)): c for r, c in d({key: 1}).items()})
                   for key in keys[:120]]
    harvested = kernel_combos(slice_pairs)
    out = []
    for t in range(count):
        if harvested and t % 3 == 0:
            cycle = dict(harvested[rng.randrange(len(harvested))])
        else:
            cycle = d(random_chain(level + 1))
        out.append(cycle)
    return out


def homotopy_identity_check(A: FiniteDimAlgebra, n: int, m: int,
                            trials: int = 50, seed: int = 0) -> CheckReport:
    """Chain-level identity behind the rotation-invariance of homology.

    Viewing a level-(m-1) chain of the n-th tensor power as an n x m
    matrix of algebra elements (columns = legs then module slot), let s
    move the first column to the end with the rotation applied, and let
    the rotation act on chains column by column.  For every cycle C,

        C - rot(C) = d( sum_{j=0}^{m-1} (-1)^{j(m-1)} s^j(C) tensor 1 ).

    The check samples random exact cycles and evaluates both sides.  The
    size cap is checked on the full differential at level max(m - 1, 1).
    Each basis chain's differential is computed once per call and kept
    for the sampling, the cycle test and the right side alike.
    """
    check_count(n, "n", 1)
    check_count(m, "m", 1)
    check_count(trials, "trials", 1)
    _check_bar_cap(A.dim ** n, A.dim ** n, max(m - 1, 1), _resolve_cap(None))
    B = tensor_power(A, n)
    rho = rotation_permutation(A, n)
    M = AutoTwistedBimodule(B, [{p: 1} for p in rho])
    rng = random.Random(seed)
    unit_items = list(B.unit.items())
    images: dict = {}  # basis chain -> its differential; a key's length fixes its level

    def d(chain: dict) -> dict:
        out: dict = {}
        for key, c in chain.items():
            img = images.get(key)
            if img is None:
                img = images[key] = _d_basis(B.table, M, key, len(key) - 1)
            addmul_into(out, img, c)
        return out

    def rotate(chain: dict) -> dict:
        return {tuple(rho[x] for x in key): c for key, c in chain.items()}

    # no two output keys of s_op or append_unit collide: plain key maps
    def s_op(chain: dict) -> dict:
        return {key[1:] + (rho[key[0]],): c for key, c in chain.items()}

    def append_unit(chain: dict) -> dict:
        return {key + (u,): c * uc for key, c in chain.items() for u, uc in unit_items}

    level = m - 1
    failures = 0
    for cycle in _random_cycles(B, M, level, trials, rng, d):
        if level and d(cycle):
            raise CertificateError("sampled chain is not a cycle")
        lhs = dict(cycle)
        addmul_into(lhs, rotate(cycle), -1)
        arg: dict = {}
        sc = cycle
        for j in range(m):
            sign = -1 if (j * (m - 1)) % 2 else 1
            addmul_into(arg, append_unit(sc), sign)
            sc = s_op(sc)
        rhs = d(arg)
        if lhs != rhs:
            failures += 1
    return CheckReport(
        f"rotation homotopy identity n={n} m={m}",
        failures == 0,
        (f"{trials - failures}/{trials} sampled cycles satisfy the identity",),
    )


def _act_on_chain(cols, chain: dict) -> dict:
    """An algebra automorphism (as columns) applied to every chain slot."""
    moved: dict = {}
    for key, c in chain.items():
        expanded = {(): c}
        for x in key:
            expanded = {
                kk + (y,): cc * v
                for kk, cc in expanded.items()
                for y, v in cols[x].items()
            }
        for kk, cc in expanded.items():
            add_term(moved, kk, cc)
    return moved


def _sector_invariant_dims(B: FiniteDimAlgebra, G: GroupAction, g: int,
                           max_level: int) -> list[int]:
    """dims of the centralizer-invariant part of HH_i(B, Bg), i <= max_level.

    The centralizer acts slotwise on chains; invariant_dim averages that
    action over homology representatives.  Each level's columns are built
    once, for the boundaries of one level and the cycles of the next.
    Nothing is capped here: afls_check admits the crossed product, of
    dimension |G| dim B, whose bar complex bounds this one.
    """
    M = AutoTwistedBimodule(B, G.elements[g])
    actions = [partial(_act_on_chain, G.elements[h]) for h in G.centralizer(g)]
    cycles = [{key: 1} for key in chain_keys(B, M, 0)]
    dims = []
    for i in range(max_level + 1):
        columns = list(bar_columns(B, M, i + 1))
        dims.append(invariant_dim((img for _, img in columns), cycles, actions))
        if i < max_level:
            cycles = kernel_combos(columns)
    return dims


def afls_check(B: FiniteDimAlgebra, G: GroupAction, max_level: int = 2,
               size_cap: int | None = None) -> CheckReport:
    """Crossed-product homology against its conjugacy-class decomposition.

    Left side: HH of C[G] crossed with B, brute-forced.  Right side: for
    each conjugacy class, the centralizer-invariant part of the twisted
    sector HH_i(B, Bg) at a class representative; summing over classes
    must reproduce the left side level by level.  The left side runs on
    the normalised complex (hh_dims), the sectors on the full one.
    """
    check_count(max_level, "max_level")
    if not _same_algebra(G.algebra, B):
        raise ValueError("G acts on another algebra than B")
    cap = _resolve_cap(size_cap)
    _check_bar_cap(G.order * B.dim, G.order * B.dim, max_level + 1, cap)
    cross = crossed_product(G)
    lhs = hh_dims(cross, RegularBimodule(cross), max_level, cap)
    rhs = [0] * (max_level + 1)
    for cls in G.conjugacy_classes():
        sector = _sector_invariant_dims(B, G, cls[0], max_level)
        rhs = [r + s for r, s in zip(rhs, sector)]
    lines = tuple(
        f"level {i}: crossed={lhs[i]} sector sum={rhs[i]}"
        for i in range(max_level + 1)
    )
    return CheckReport(f"crossed-product decomposition |G|={G.order}",
                       lhs == rhs, lines)
