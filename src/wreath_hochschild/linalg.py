"""Sparse exact Gaussian elimination: one fraction-free kernel.

Vectors are dicts {basis key: scalar}; scalars may be int, Fraction,
rational functions, or anything with exact +, -, *, / and truthiness.
Explicit zero entries are dropped where a vector enters elimination.
No floating point and no modular arithmetic anywhere.

Every elimination runs through one loop (_eliminate).  Rational vectors
have their denominators cleared at the API edge and are eliminated over
Z (Bareiss, Math. Comp. 22, 1968, in its gcd form): a step against a
pivot row p with leading entry l turns r into a*r - b*p, with a = l/g,
b = r[key]/g and g = gcd(l, r[key]); stored pivot rows have their
content stripped and a positive leading entry, kept apart from the row
so that a step drops the entry it cancels instead of computing the zero.
The scale a row picks up is tracked and divided out once, so results are
exact and identical to field elimination with monic pivots: ranks,
residuals, dependency combos and express combos are unique, and the
integer pivots differ from the monic ones only by nonzero scalars.
Vectors over other fields (rational functions in q) take the same loop
with monic pivot rows, each made monic the first time a later row meets
it: a pivot no row meets is never divided, and one that is met is monic
before its first use, so every result is that of monic elimination.
Pivot selection is deterministic (smallest key), so results are
reproducible across runs.

Rational scalars are integer-first: exact_scalar gives an int when the
value is integral and a Fraction otherwise; a float entry raises
TypeError.  A vector of plain ints (most rows of bar complexes and Koszul
windows) enters elimination as it is, with no denominator to clear.
TrackingEchelon's unit seeds the dependency combo of a field row or an
empty vector (a rational combo starts from the integer scale); it
defaults to 1 and must be passed explicitly for other fields.

addmul_into, add_term (its single-entry form) and apply_columns (a map
given by its columns, applied to a vector) are shared by the package.
rank_modulo is the dimension of a span of unit vectors modulo a span of
vectors, read off the pivot leads of one elimination of the vectors with
those keys ordered last.  invariant_dim is the one averaging-projector
certificate: the dimension of the part of a homology space fixed by a
finite group, read as the rank of the averaging projector once that is
certified idempotent on sparse columns; it absorbs the boundaries
untracked, so its combos run over the cycles alone.  An exact internal
check that does not hold raises CertificateError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# bool too: a vector led by True is rational, not a field vector whose
# pivots would be divided into floats.  A set: a field entry's type is
# then one hash probe, not three failed comparisons.
_RATIONAL = frozenset((int, Fraction, bool))


class CertificateError(RuntimeError):
    """An exact internal certificate did not hold."""


def exact_scalar(v):
    """v as an exact rational: an int when integral, else a Fraction
    (anything Fraction accepts, a float converted exactly)."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _inexact(v) -> TypeError:
    return TypeError(f"non-exact scalar {v!r} of type {type(v).__name__} "
                     "in an exact vector")


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


def apply_columns(columns, vec: dict) -> dict:
    """The linear map with columns[k] the image of basis key k, applied
    to vec: sum of c * columns[k] over the entries of vec."""
    out: dict = {}
    for k, c in vec.items():
        addmul_into(out, columns[k], c)
    return out


def _scaled_out(vec: dict, scale) -> dict:
    """vec divided by an integer scale, integer-first (see exact_scalar);
    a field vector (scale None) or a scale of 1 leaves vec as it is."""
    if scale is None or scale == 1:
        return vec
    return {k: v // scale if v % scale == 0 else Fraction(v, scale)
            for k, v in vec.items()}


def _eliminate(pivots: dict, vec: dict, sign: int, label=None, one=None):
    """The one elimination loop: reduce vec until its leading key is no pivot.

    At the API edge, zero entries are dropped and rational entries (int
    or Fraction) are cleared of denominators, so the working row holds
    ints and scale starts at the lcm of the denominators; entries of any
    other field are copied as they are, with scale None.  A float entry
    raises TypeError.  A pivot is (tail, combo, lead): its row without
    the leading entry, which is lead, or 1 when lead is None.  A step pops
    b = r[key], whose cancellation is known, and subtracts b * tail: that
    is r -= r[key] * row against a monic row, the only step field rows
    take.  A field pivot with a lead is first made monic, once: its tail
    and combo are divided by the lead and it is stored back with lead
    None.  An integer row with lead > 1 gives the fraction-free step
    r = a*r - b*row with a = lead/g, b = r[key]/g and g = gcd(lead, r[key]),
    and scale is multiplied by a.

    A rational vector whose entries are all of type int exactly is
    copied as it is, with scale 1: the scale pass tests each entry's
    type, and the pass that rebuilds each entry from its numerator and
    denominator is skipped.  One entry of another type, even
    Fraction(n, 1) or a bool, sends the vector through that rebuild, and
    a vector led by a bool is rational too.

    sign selects the combo c carried along, c = a*c + sign*b*combo: none
    for 0, an express combo starting empty for +1, and for -1 the
    dependency combo of the new input label, starting at scale (one for
    field rows).  Returns (r, c, scale): r and c are scale times their
    field values.
    """
    for v in vec.values():
        break
    else:
        v = None
    # an exact type test: isinstance would go through the Fraction ABC
    if type(v) in _RATIONAL:
        scale, ints = 1, True
        try:
            for v in vec.values():
                if type(v) is not int:
                    ints = False
                    d = v.denominator
                    if scale % d:
                        scale = scale // gcd(scale, d) * d
        except AttributeError:
            raise _inexact(v) from None
        if ints:
            r = {k: v for k, v in vec.items() if v}
        else:
            r = {k: v.numerator * (scale // v.denominator) for k, v in vec.items() if v}
    else:
        if isinstance(v, (float, complex)):
            raise _inexact(v)
        scale = None
        r = {k: v for k, v in vec.items() if v}
    if not sign:
        c = None
    elif sign > 0:
        c = {}
    else:
        c = {label: one if scale is None else scale}
    while r:
        key = min(r)
        hit = pivots.get(key)
        if hit is None:
            break
        tail, combo, lead = hit
        b = r.pop(key)
        if scale is None:
            if lead is not None:
                # a field pivot is made monic the first time a row meets it
                tail = {k: v / lead for k, v in tail.items()}
                if combo is not None:
                    combo = {k: v / lead for k, v in combo.items()}
                pivots[key] = (tail, combo, None)
        elif lead is not None:
            g = gcd(lead, b)
            a = lead // g
            b //= g
            if a != 1:
                scale *= a
                r = {k: v * a for k, v in r.items()}
                if c is not None:
                    c = {k: v * a for k, v in c.items()}
        addmul_into(r, tail, -b)
        if c is not None:
            addmul_into(c, combo, b if sign > 0 else -b)
    return r, c, scale


def _store(pivots: dict, r: dict, c) -> None:
    """Make the nonzero residual r (with its combo c) a pivot.

    An integer row is divided by its content (taken jointly with the
    combo's) and given a positive leading entry; a field row is kept as
    elimination left it, and _eliminate makes it monic the first time a
    later row meets it.  The leading entry is kept apart from the tail.
    """
    key = min(r)
    lead = r.pop(key)
    if type(lead) is int:
        g = gcd(lead, *r.values(), *(c.values() if c is not None else ()))
        if lead < 0:
            g = -g
        if g != 1:
            r = {k: v // g for k, v in r.items()}
            if c is not None:
                c = {k: v // g for k, v in c.items()}
        lead //= g
        lead = None if lead == 1 else lead
    pivots[key] = (r, c, lead)


class Echelon:
    """Incremental row-echelon accumulator; tracks rank only."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict = {}  # pivot key -> (tail, combo, lead)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after elimination against all pivots."""
        r, _, scale = _eliminate(self.pivots, vec, 0)
        return _scaled_out(r, scale)

    def insert(self, vec: dict) -> bool:
        """Add vec; returns True if it increased the rank."""
        r = _eliminate(self.pivots, vec, 0)[0]
        if not r:
            return False
        _store(self.pivots, r, None)
        return True


def rank_of(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


def rank_modulo(vectors, keys) -> int:
    """dim of span{e_k : k in keys} modulo span(vectors).

    The keys are ordered last, so span{e_k} meets span(vectors) in the
    span of the pivot rows led by one of them (the lead of a combination
    of echelon rows is the smallest lead among the rows it uses).
    """
    keys = set(keys)
    ech = Echelon()
    for v in vectors:
        ech.insert({(k in keys, k): c for k, c in v.items()})
    return len(keys) - sum(last for last, _ in ech.pivots)


class TrackingEchelon(Echelon):
    """Echelon that remembers how each pivot decomposes over the inputs.

    insert() returns None when the vector is independent, otherwise a
    dependency combo {label: coeff} with sum(coeff * input) = 0 and
    coefficient 1 on the new label.  express() writes an arbitrary vector
    over the inserted inputs, returning (residual, combo).
    """

    __slots__ = ("one",)

    def __init__(self, one=1):
        super().__init__()
        self.one = one

    def insert(self, vec: dict, label):
        r, c, scale = _eliminate(self.pivots, vec, -1, label, self.one)
        if r:
            _store(self.pivots, r, c)
            return None
        # dependency: sum over labels is the zero vector, c[label] = scale
        return _scaled_out(c, scale)

    def express(self, vec: dict):
        """(residual, combo) with vec = sum(combo * input) + residual."""
        r, c, scale = _eliminate(self.pivots, vec, +1)
        return _scaled_out(r, scale), _scaled_out(c, scale)


def kernel_combos(pairs, one=1) -> list[dict]:
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


def invariant_dim(boundaries, cycles, actions, one=1) -> int:
    """Dimension of the group-invariant part of span(cycles)/span(boundaries).

    actions holds one chain-level map per group element, identity
    included; each must send a cycle into span(cycles + boundaries).
    Homology representatives are the cycles left independent once the
    boundaries are absorbed; the averaging projector (1/|G|) sum_g g is
    built on them one sparse column per representative and certified
    idempotent, so its rank is its trace: the dimension.  The boundaries
    are absorbed first, untracked: their rows carry empty combos, so
    every combo below is read modulo the boundaries, which leaves its
    part on the representatives unchanged (combos are linear, and that
    part is unique).  one is TrackingEchelon's unit: it only seeds the
    combos of field rows.
    """
    tracked = TrackingEchelon(one)
    for img in boundaries:
        r = _eliminate(tracked.pivots, img, 0)[0]
        if r:
            _store(tracked.pivots, r, {})
    reps = []
    for cyc in cycles:
        if tracked.insert(cyc, len(reps)) is None:
            reps.append(cyc)
    # a Fraction 1/|G|, so that int entries never turn into floats
    inv = Fraction(1, len(actions))
    proj = []
    for cyc in reps:
        col: dict = {}
        for act in actions:
            residual, combo = tracked.express(act(cyc))
            if residual:
                raise CertificateError("group image of a cycle left the cycle space")
            addmul_into(col, combo, inv)
        proj.append(col)
    if any(apply_columns(proj, col) != col for col in proj):
        raise CertificateError("averaging operator is not idempotent")
    return rank_of(proj)
