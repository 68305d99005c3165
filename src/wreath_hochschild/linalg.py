"""Sparse exact Gaussian elimination over an exact field.

Vectors are dicts {basis key: nonzero scalar}; scalars may be Fraction,
rational functions, or anything with exact +, -, *, / and truthiness.
No floating point and no modular arithmetic anywhere: every elimination
step is performed in the exact field, with pivot rows normalized to a
unit leading entry.  Pivot selection is deterministic (smallest key), so
results are reproducible across runs.

TrackingEchelon needs the field's unit to seed dependency combos; it
defaults to Fraction(1) and must be passed explicitly for other fields
(int 1 is not safe: int/int division would leave the field).

add_term is the single-entry form of addmul_into.  rank_modulo is the
dimension of a span of unit vectors modulo a span of vectors, from one
elimination.  invariant_dim is the one averaging-projector certificate:
the dimension of the part of a homology space fixed by a finite group.
An exact internal check that does not hold raises CertificateError.
"""

from __future__ import annotations

from fractions import Fraction

from .ratfunc import RatFunc


class CertificateError(RuntimeError):
    """An exact internal certificate did not hold."""


def add_term(target: dict, key, c) -> None:
    """target[key] += c, dropping the entry if it cancels to zero."""
    cur = target.get(key)
    if cur is None:
        if c:
            target[key] = c
    else:
        cur = cur + c
        if cur:
            target[key] = cur
        else:
            del target[key]


def addmul_into(target: dict, src: dict, factor) -> None:
    """target += factor * src, dropping entries that cancel to zero."""
    if not factor:
        return
    for k, v in src.items():
        cur = target.get(k)
        if cur is None:
            val = factor * v
            if val:
                target[k] = val
        else:
            cur = cur + factor * v
            if cur:
                target[k] = cur
            else:
                del target[k]


class Echelon:
    """Incremental row-echelon accumulator; tracks rank only."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict = {}  # pivot key -> monic vector

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after elimination against all pivots."""
        r = dict(vec)
        while r:
            key = min(r)
            piv = self.pivots.get(key)
            if piv is None:
                return r
            addmul_into(r, piv, -r[key])
        return r

    def insert(self, vec: dict) -> bool:
        """Add vec; returns True if it increased the rank."""
        r = self.reduce(vec)
        if not r:
            return False
        key = min(r)
        lead = r[key]
        self.pivots[key] = {k: v / lead for k, v in r.items()}
        return True


def rank_of(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


def rank_modulo(vectors, keys, one=Fraction(1)) -> int:
    """dim of span{e_k : k in keys} modulo span(vectors)."""
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    base = ech.rank
    for k in keys:
        ech.insert({k: one})
    return ech.rank - base


class TrackingEchelon:
    """Echelon that remembers how each pivot decomposes over the inputs.

    insert() returns None when the vector is independent, otherwise a
    dependency combo {label: coeff} with sum(coeff * input) = 0 and
    coefficient 1 on the new label.  express() writes an arbitrary vector
    over the inserted inputs, returning (residual, combo).
    """

    __slots__ = ("pivots", "one")

    def __init__(self, one=Fraction(1)):
        self.pivots: dict = {}  # pivot key -> (monic vector, combo)
        self.one = one

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, r: dict, c: dict, combo_sign: int):
        while r:
            key = min(r)
            hit = self.pivots.get(key)
            if hit is None:
                return key
            pvec, pcombo = hit
            f = r[key]
            addmul_into(r, pvec, -f)
            addmul_into(c, pcombo, combo_sign * f)
        return None

    def insert(self, vec: dict, label):
        r = dict(vec)
        c = {label: self.one}
        key = self._eliminate(r, c, -1)
        if key is None:
            return c  # dependency: sum over labels is the zero vector
        inv = self.one / r[key]
        self.pivots[key] = (
            {k: v * inv for k, v in r.items()},
            {k: v * inv for k, v in c.items()},
        )
        return None

    def express(self, vec: dict):
        """(residual, combo) with vec = sum(combo * input) + residual."""
        r = dict(vec)
        c: dict = {}
        self._eliminate(r, c, +1)
        return r, c

    def in_span(self, vec: dict):
        """Combo expressing vec over the inputs, or None if outside the span."""
        r, c = self.express(vec)
        return None if r else c


def kernel_combos(pairs, one=Fraction(1)) -> list[dict]:
    """Kernel of the linear map given as (label, image vector) pairs.

    Returns dependency combos {label: coeff}; each is an exact kernel
    element of the map sending basis element `label` to its image.
    """
    ech = TrackingEchelon(one)
    out = []
    for label, vec in pairs:
        dep = ech.insert(vec, label)
        if dep is not None:
            out.append(dep)
    return out


def _integer_trace(trace) -> int:
    """The trace as an int; anything but an integer constant is refused."""
    if isinstance(trace, RatFunc):
        if trace.den == (1,) and len(trace.num) <= 1:
            return trace.num[0] if trace.num else 0
    elif trace.denominator == 1:
        return int(trace)
    raise CertificateError(f"projector trace {trace} is not an integer")


def invariant_dim(boundaries, cycles, actions, one=Fraction(1)) -> int:
    """Dimension of the group-invariant part of span(cycles)/span(boundaries).

    actions holds one chain-level map per group element, identity
    included; each must send a cycle into span(cycles + boundaries).
    Homology representatives are the cycles left independent once the
    boundaries are absorbed; the answer is the trace of the averaging
    projector (1/|G|) sum_g g on them, certified idempotent with an
    integer trace.
    """
    tracked = TrackingEchelon(one)
    for idx, img in enumerate(boundaries):
        tracked.insert(img, ("b", idx))
    reps = []
    for cyc in cycles:
        if tracked.insert(cyc, ("z", len(reps))) is None:
            reps.append(cyc)
    h = len(reps)
    if not h:
        return 0
    zero = one - one
    proj = [[zero] * h for _ in range(h)]
    for act in actions:
        for col, cyc in enumerate(reps):
            residual, combo = tracked.express(act(cyc))
            if residual:
                raise CertificateError("group image of a cycle left the cycle space")
            for (tag, row), val in combo.items():
                if tag == "z":
                    proj[row][col] = proj[row][col] + val
    inv = one / len(actions)
    proj = [[v * inv for v in row] for row in proj]
    square = [[sum((proj[r][k] * proj[k][c] for k in range(h)), zero)
               for c in range(h)] for r in range(h)]
    if square != proj:
        raise CertificateError("averaging operator is not idempotent")
    return _integer_trace(sum((proj[r][r] for r in range(h)), zero))
