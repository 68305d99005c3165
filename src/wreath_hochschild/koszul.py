"""Windowed Koszul complexes for three rank-one quantized algebras.

The algebras are presented by two generators with a single relation:

    weyl   x, p       with  x p - p x = 1          (scalars: rationals)
    trig   X^{±1}, p  with  X p - p X = X          (scalars: rationals)
    qweyl  X^{±1}, P^{±1}  with  X P = q P X       (scalars: rational
                                                    functions in q)

A monomial is a key (a, b) of exponents, x^a p^b, X^a p^b or X^a P^b.
A kind is fixed by which generators it inverts (_INVERTIBLE): an exponent
of X or P ranges over Z, of x or p over N (_valid_exponents).  The degree
is |a| + |b|; a window is the domain cut at degree N (window_keys).

Every structure constant of weyl and trig is an integer, so their
scalars are ints, with Fractions only where a caller brings a
denominator.  Each has a length-two Koszul bimodule resolution built
from two commuting elements of the enveloping algebra,

    u = 1⊗x - x⊗1   (weyl),     u = X⊗X^{-1} - 1   (trig, qweyl),
    w = 1⊗p - p⊗1   (weyl, trig),   w = P⊗P^{-1} - 1   (qweyl),

and two units nu_u, nu_w with swap(u) = -u nu_u and swap(w) = -w nu_w
under the factor swap a⊗b -> b⊗a.  These four elements are read from
_INVERTIBLE (_ae_uw); every map below is derived from them.

Applying Hom(-, M) for M the algebra itself, or its twist by the order-2
automorphism eps (x,p -> -x,-p resp. X,P -> inverses), gives a cochain
complex 0 -> M -> M^2 -> M -> 0 with d0(m) = (u.m, w.m) and
d1(m1, m2) = w.m1 - u.m2, where the one action _act gives
(a⊗b).m = a m tau(b) for the sector twist tau: the Koszul complex of the
two commuting operators m -> u.m and m -> w.m.  The product multiply is
the same action: x y is the untwisted action of x⊗1 on y.  One builder,
_koszul_columns, writes the columns of such a complex for any two
commuting operators.  The order-2 symmetry of a sector complex is eps
after conjugation by the units: eps on M, (m1, m2) -> (-eps(nu_u.m1),
-eps(nu_w.m2)) on M^2 and m -> eps(nu_u nu_w.m) on the top M.  The algebras are infinite
dimensional, so all ranks are computed on a filtration window (total
degree <= N) and reported only on the safe margin (degree <= N-2); both
differentials move total degree by at most 2, so margin kernels and
margin-supported images are exact.  One routine, _margin_dims, reads
this margin homology: for the sector complexes, and for the Koszul
resolution in duality_check, whose exactness it certifies; up to a
level-1 basis change and a sign, that resolution is the Koszul complex of
right multiplication by u and w on the enveloping algebra.  It runs over
a chain of nested windows, each the margin of the next, and eliminates
each differential once: operator images are never truncated, so window
N-2 is a sub-window of window N, and the stability re-check at N-2 is
read off the columns of window N.  Row keys are ordered by window,
outermost first, so each margin's span modulo the image is read off the
pivot leads, with no unit vector inserted.  The crossed totals likewise
build each sector's columns and certify its symmetry once, on window N,
and restrict them to window N-2.
Working over the rational function field keeps qweyl generic: every
pivot is a nonzero element of Q(q), so no root-of-unity collapse can
occur.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .linalg import (
    CertificateError,
    Echelon,
    add_term,
    addmul_into,
    apply_columns,
    exact_scalar,
    invariant_dim,
    kernel_combos,
    rank_modulo,
    rank_of,
)
from .presets_io import CheckReport
from .ratfunc import RatFunc
from .series import check_cap, check_count, power_str, signed_sum

KINDS = ("weyl", "trig", "qweyl")
TWISTS = ("id", "eps")


# Window caps.  A window is a plain int N >= 4, refused by series.check_cap
# (ValueError) above its cap before any column is built; timings are
# medians of 3 fresh processes on a 2-vCPU machine under CPython 3.11.
# Sector windows (hh_cohomology_rank_one,
# crossed_z2_cohomology, build_cochain_complex): crossed_z2_cohomology
# ("qweyl") takes 0.08 s at N = 8, 0.16 s at 10, 0.29 s at 12 and 0.59 s
# at 14; the qweyl eps sector windows (_windowed_dims, under the cap
# check) 0.04 s at 12, 0.05 s at 14, 0.07 s at 16 and 0.14 s at 20.
# Enveloping-algebra windows (duality_check): "qweyl" takes 0.32 s at
# N = 6, 1.04 s at 8 and 2.2 s at 10; "weyl" 0.05 s at 8 and 0.13 s at 10.
MAX_SECTOR_WINDOW = 14
MAX_DUALITY_WINDOW = 10


class WindowInstability(RuntimeError):
    """Reported dimensions changed between windows N and N-2."""


def _window(N: int, cap: int) -> int:
    """The filtration bound N (total degree <= N), an int from 4 up to cap."""
    check_count(N, "window", 4)
    check_cap(f"window {N}", N, cap)
    return N


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")


def _one(kind: str):
    return RatFunc.from_int(1) if kind == "qweyl" else 1


def _scalar(kind: str, v):
    if kind == "qweyl":
        if isinstance(v, RatFunc):
            return v
        return RatFunc.from_fraction(Fraction(v))
    return exact_scalar(v)


# Which of its generators (x-type, p-type) a kind inverts: X, P but not x, p.
_INVERTIBLE = {"weyl": (False, False), "trig": (True, False), "qweyl": (True, True)}


def _valid_exponents(kind: str, a: int, b: int) -> bool:
    inv_x, inv_p = _INVERTIBLE[kind]
    return (inv_x or a >= 0) and (inv_p or b >= 0)


class RankOneElement:
    """Finitely supported combination of normal-ordered monomials.

    terms maps (a, b) to a scalar; the monomial is x^a p^b (weyl),
    X^a p^b (trig) or X^a P^b (qweyl), with the x-type generator always
    written to the left of the p-type one.
    """

    __slots__ = ("kind", "terms")

    def __init__(self, kind: str, terms: dict):
        _check_kind(kind)
        clean = {}
        for key, v in terms.items():
            # a pair of ints (type(), not isinstance: bool and float exponents are refused)
            if (not isinstance(key, tuple) or len(key) != 2 or {*map(type, key)} != {int}
                    or not _valid_exponents(kind, *key)):
                raise ValueError(f"exponents {key!r} outside the {kind} domain")
            v = _scalar(kind, v)
            if v:
                clean[key] = v
        self.kind = kind
        self.terms = clean

    @classmethod
    def one(cls, kind: str) -> "RankOneElement":
        return cls(kind, {(0, 0): 1})

    @classmethod
    def monomial(cls, kind: str, a: int, b: int, coeff=1) -> "RankOneElement":
        return cls(kind, {(a, b): coeff})

    def __eq__(self, other):
        return (isinstance(other, RankOneElement)
                and self.kind == other.kind and self.terms == other.terms)

    def __add__(self, other):
        if not isinstance(other, RankOneElement) or other.kind != self.kind:
            raise ValueError("kind mismatch")
        out = dict(self.terms)
        addmul_into(out, other.terms, 1)
        return RankOneElement(self.kind, out)

    def __repr__(self):
        # the signed sum of coefficient*monomial, e.g. "-1 + x p + 3*x^2"
        xg, pg = (g.upper() if inv else g for g, inv in zip("xp", _INVERTIBLE[self.kind]))
        return signed_sum(((v, f"{power_str(xg, a)} {power_str(pg, b)}".strip())
                           for (a, b), v in sorted(self.terms.items())), "*")


def monomial_degree(key: tuple) -> int:
    a, b = key
    return abs(a) + abs(b)


@lru_cache(maxsize=1 << 14)
def _mono_mul(kind: str, a: int, b: int, c: int, d: int):
    """Normal-ordered product of two monomials, as a terms dict.

    One memoised table per process: the same few products recur across
    windows and checks (duality_check("weyl", 6) alone asks for 212
    distinct products 8522 times).  The checks of every kind at the
    window caps fill 7290 entries, so they never evict; the bound keeps
    products of large elements from growing the table for the life of
    the process.  The returned dict is shared with every later caller,
    so callers only read it: _act and _ae_mul iterate it or add it into
    their own output, and rank_of copies its input."""
    if kind == "qweyl":
        # P^b X^c = q^{-bc} X^c P^b
        return {(a + c, b + d): RatFunc.q_power(-b * c)}
    if kind == "trig":
        # p^b X^c = X^c (p - c)^b
        out = {}
        for i in range(b + 1):
            coef = comb(b, i) * (-c) ** (b - i)
            if coef:
                out[(a + c, i + d)] = coef
        return out
    # weyl: p^b x^c = sum_j binom(b,j) binom(c,j) j! (-1)^j x^{c-j} p^{b-j}
    out = {}
    for j in range(min(b, c) + 1):
        coef = comb(b, j) * comb(c, j) * factorial(j) * (-1) ** j
        out[(a + c - j, b + d - j)] = coef
    return out


def multiply(x: RankOneElement, y: RankOneElement) -> RankOneElement:
    """Product, normal-ordered with the x-generator left of the p-generator:
    the untwisted sector action of x⊗1 on y."""
    if not isinstance(x, RankOneElement) or not isinstance(y, RankOneElement):
        raise ValueError("multiply expects two RankOneElements")
    if x.kind != y.kind:
        raise ValueError(f"kind mismatch: {x.kind} vs {y.kind}")
    left = {(k, (0, 0)): c for k, c in x.terms.items()}
    return RankOneElement(x.kind, _act(x.kind, left, "id")(y.terms))


def _eps(kind: str, terms: dict) -> dict:
    """The order-2 automorphism on a terms dict."""
    if kind == "weyl":
        return {(a, b): -v if (a + b) % 2 else v for (a, b), v in terms.items()}
    if kind == "trig":
        return {(-a, b): -v if b % 2 else v for (a, b), v in terms.items()}
    return {(-a, -b): v for (a, b), v in terms.items()}


def epsilon(el: RankOneElement) -> RankOneElement:
    """Order-2 automorphism: sign flip of x,p (weyl) or inversion of the
    invertible generators (trig, qweyl)."""
    return RankOneElement(el.kind, _eps(el.kind, el.terms))


def window_keys(kind: str, N: int) -> list:
    """Keys (a, b) of the kind's exponent domain with |a| + |b| <= N, sorted."""
    _check_kind(kind)
    return [(a, b) for a in range(-N, N + 1) for b in range(abs(a) - N, N + 1 - abs(a))
            if _valid_exponents(kind, a, b)]


def _ae_uw(kind: str):
    """The Koszul elements u, w and the units nu_u, nu_w, as enveloping-
    algebra dicts {(left key, right key): coeff}, one pair per generator g
    of the kind (x-type for u, p-type for w): 1⊗g - g⊗1 with unit 1 for a
    polynomial g, g⊗g^{-1} - 1 with unit g^{-1}⊗g for an invertible one."""
    one, unit = _one(kind), (0, 0)
    table = []
    for g, invertible in zip(((1, 0), (0, 1)), _INVERTIBLE[kind]):
        if invertible:
            g_inv = (-g[0], -g[1])
            table += [{(g, g_inv): one, (unit, unit): -one}, {(g_inv, g): one}]
        else:
            table += [{(unit, g): one, (g, unit): -one}, {(unit, unit): one}]
    u, nu_u, w, nu_w = table
    return u, w, nu_u, nu_w


def _act(kind: str, f: dict, twist: str):
    """The map m -> (a⊗b).m = a m tau(b) on terms dicts, extended linearly
    over the enveloping-algebra dict f; tau is the identity or eps.  f is
    twisted, and for qweyl read in Laurent form, once per map."""
    if twist not in TWISTS:
        raise ValueError(f"unknown twist {twist!r}")
    if twist == "eps":
        f = {(k1, k3): c for (k1, k2), cf in f.items()
             for k3, c in _eps(kind, {k2: cf}).items()}
    if kind == "qweyl":
        fs = _laurent_terms(f)
        return lambda m: _qweyl_sum(fs, _laurent_terms(m), _act_place)

    def act(m: dict) -> dict:
        out: dict = {}
        for (k1, k3), cf in f.items():
            for k, cm in m.items():
                for key, v in _mono_mul(kind, *k1, *k).items():
                    addmul_into(out, _mono_mul(kind, *key, *k3), cf * cm * v)
        return out

    return act


def _act_place(kf, km):
    # X^a P^b X^c P^d X^e P^h = q^{-bc-(b+d)e} X^{a+c+e} P^{b+d+h}
    (a, b), (e, h) = kf
    c, d = km
    return (a + c + e, b + d + h), -b * c - (b + d) * e


def _ae_place(kf, kg):
    # (X^a P^b ⊗ X^e P^h)(X^c P^d ⊗ X^x P^y) = X^a P^b X^c P^d ⊗ X^x P^y X^e P^h
    (a, b), (e, h) = kf
    (c, d), (x, y) = kg
    return ((a + c, b + d), (x + e, y + h)), -b * c - y * e


def _laurent_terms(d: dict) -> list:
    """(key, Laurent form or None, coefficient) for each entry of a qweyl dict."""
    return [(k, c.laurent(), c) for k, c in d.items()]


def _qweyl_sum(fs: list, gs: list, place) -> dict:
    """Sum of cf * cg * q^n at key over the term pairs of two qweyl
    dicts given by _laurent_terms, with (key, n) = place(f key, g key).

    The pairs of Laurent coefficients are added up per output entry over
    integer q-exponents, as a Laurent polynomial {exponent: int}, built
    as one RatFunc.  A pair with a coefficient outside Z[q, 1/q] is
    multiplied out directly and added to its entry.
    """
    sums: dict = {}  # output key -> Laurent polynomial
    rest: list = []  # (output key, product) for each pair outside Z[q, 1/q]
    for kf, lf, cf in fs:
        for kg, lg, cg in gs:
            key, n = place(kf, kg)
            if lf is None or lg is None:
                rest.append((key, cf * cg * RatFunc.q_power(n)))
                continue
            poly = sums.setdefault(key, {})
            for s, x in lf.items():
                for t, y in lg.items():
                    e = n + s + t
                    poly[e] = poly.get(e, 0) + x * y
    out = {key: v for key, poly in sums.items() if (v := RatFunc.from_laurent(poly))}
    for key, v in rest:
        add_term(out, key, v)
    return out


def _join(e0: dict, e1: dict) -> dict:
    """Level-1 vector {(slot, key): coeff} from the slot-0 and slot-1 parts."""
    out = {(0, k): v for k, v in e0.items()}
    out.update(((1, k), v) for k, v in e1.items())
    return out


def _split(vec: dict):
    """The slot-0 and slot-1 parts of a level-1 vector."""
    slots: tuple = ({}, {})
    for (i, k), v in vec.items():
        slots[i][k] = v
    return slots


def _koszul_columns(keys, act_u, act_w, one):
    """Columns of d0(m) = (u.m, w.m) and d1(m1, m2) = w.m1 - u.m2 over keys,
    for two commuting operators act_u and act_w on terms dicts.

    Level-1 keys are (0, key) for the u-component and (1, key) for the
    w-component; columns are exact (operator images are never truncated,
    so the composite vanishes identically).
    """
    d0: dict = {}
    d1: dict = {}
    for s in keys:
        um, wm = act_u({s: one}), act_w({s: one})
        d0[s] = _join(um, wm)
        d1[(0, s)] = wm
        d1[(1, s)] = {k: -v for k, v in um.items()}
    return d0, d1


def _complex_columns(kind: str, twist: str, N: int):
    """Columns of d0 and d1 of a sector complex over the window basis."""
    u, w, _, _ = _ae_uw(kind)
    return _koszul_columns(window_keys(kind, N), _act(kind, u, twist), _act(kind, w, twist),
                           _one(kind))


def build_cochain_complex(kind: str, twist: str, window):
    """(d0, d1, composite) on the windowed monomial basis.

    Columns are dicts {row key: coefficient}; the third matrix is d1
    applied to each d0 column and is identically zero, returned as the
    certificate that consecutive differentials compose to zero.
    """
    _check_kind(kind)
    N = _window(window, MAX_SECTOR_WINDOW)
    u, w, _, _ = _ae_uw(kind)
    act_u, act_w = _act(kind, u, twist), _act(kind, w, twist)
    d0, d1 = _koszul_columns(window_keys(kind, N), act_u, act_w, _one(kind))
    composite = {}
    for s, col in d0.items():
        m1, m2 = _split(col)
        composite[s] = act_w(m1)
        addmul_into(composite[s], act_u(m2), -1)
    return d0, d1, composite


def _level1(keys) -> list:
    return [(j, s) for j in (0, 1) for s in keys]


def _margin_dims(d0: dict, d1: dict, chain: list) -> list:
    """(h0, h1, h2) of a windowed two-step complex on each window of a
    nested chain C0 ⊂ C1 ⊂ ... ⊂ Ck of level-0 key lists, window C_i read
    on its margin C_{i-1}; one tuple per window C1 .. Ck.

    d0 and d1 hold the columns over Ck, level-1 keys being (slot, key)
    with slot 0 or 1: margin-supported cycles modulo the images of the
    window that land in the margin span.  Operator images are never
    truncated, so the columns over C_i are those of the window C_i, and
    each differential is eliminated once: its columns enter one Echelon
    in chain order, and the rank after each prefix is a window rank.
    Every row key is re-keyed by the depth of its key, the index of the
    innermost window holding it (k + 1 outside Ck), outermost first, so
    each margin is a final segment of the pivot order.  The lead of a
    combination of echelon rows is the smallest lead among the rows it
    uses, so the image meets the margin span in the rows led by a margin
    key: margin span modulo image is |margin| minus those pivots.
    """
    def sweep(cols: dict, lift, units_of):
        depth: dict = {}
        for i in range(len(chain) - 1, -1, -1):
            depth.update((key, i) for key in units_of(chain[i]))
        ech, ranks, modulo, inner = Echelon(), [], [], set()
        for i, keys in enumerate(chain):
            for key in lift([s for s in keys if s not in inner]):
                ech.insert({(-depth.get(k, len(chain)), k): v
                            for k, v in cols[key].items()})
            inner.update(keys)
            ranks.append(ech.rank)
            if i:
                led = sum(1 for neg_depth, _ in ech.pivots if -neg_depth < i)
                modulo.append(len(units_of(chain[i - 1])) - led)
        return ranks, modulo

    rank0, mod0 = sweep(d0, list, _level1)
    rank1, mod1 = sweep(d1, _level1, list)
    # h0 = margin kernel of d0; h1 = (2|margin| - rank1) - (2|margin| - mod0)
    return [(len(chain[i]) - rank0[i], mod0[i] - rank1[i], mod1[i])
            for i in range(len(chain) - 1)]


def _windowed_dims(kind: str, twist: str, windows: tuple) -> list:
    """(h0, h1, h2) on each window of windows, (N,) or (N, N-2), each read
    on its margin 2 below, from the columns of window N alone, over the
    chain of total-degree cuts N-4, N-2, N (N-2, N for one window)."""
    d0, d1 = _complex_columns(kind, twist, windows[0])
    bounds = sorted(windows)
    chain = [window_keys(kind, b) for b in [bounds[0] - 2] + bounds]
    return _margin_dims(d0, d1, chain)[::-1]


def _stable(label: str, dims_at, window):
    """dims_at(windows) on the window N, and re-checked at N-2 when that
    window is admissible (windows is (N, N-2), else (N,)); a mismatch
    raises WindowInstability."""
    N = _window(window, MAX_SECTOR_WINDOW)
    dims, *inner = dims_at((N, N - 2) if N - 2 >= 4 else (N,))
    if inner and inner[0] != dims:
        raise WindowInstability(
            f"{label}: dims {dims} at N={N} but {inner[0]} at N={N - 2}")
    return dims


def hh_cohomology_rank_one(kind: str, twist: str = "id", window=10):
    """Windowed Hochschild cohomology dimensions (h0, h1, h2).

    Dimensions are computed at window N and re-checked at N-2 (when that
    window is admissible), both read off the columns of window N; a
    mismatch raises WindowInstability.  A window above MAX_SECTOR_WINDOW
    raises ValueError.
    """
    _check_kind(kind)
    return _stable(f"{kind}/{twist}",
                   lambda windows: _windowed_dims(kind, twist, windows), window)


def _sector_involution(kind: str, twist: str):
    """Maps (rho0, rho1, rho2) on term dicts realizing the order-2 symmetry
    on the twisted-sector complex: eps after conjugation by the units of
    the table, rho0 = eps, rho1 = (-eps(nu_u.m1), -eps(nu_w.m2)) slotwise
    and rho2 = eps(nu_u nu_w.m).  _verify_involution certifies that they
    are involutive chain maps."""
    _, _, nu_u, nu_w = _ae_uw(kind)
    minus = -_one(kind)

    def conjugated(f):
        act = _act(kind, f, twist)
        return lambda vec: _eps(kind, act(vec))

    slot0, slot1 = conjugated(_ae_scale(nu_u, minus)), conjugated(_ae_scale(nu_w, minus))

    def rho1(vec):
        m1, m2 = _split(vec)
        return _join(slot0(m1), slot1(m2))

    return (lambda vec: _eps(kind, vec)), rho1, conjugated(_ae_mul(kind, nu_u, nu_w))


def _verify_involution(kind: str, twist: str, N: int, rhos, d0: dict, d1: dict) -> None:
    """Certify on the margin that the symmetry maps are involutions and
    commute with the differentials, read off their window columns."""
    rho0, rho1, rho2 = rhos
    one = _one(kind)
    for key in window_keys(kind, N - 2):
        m = {key: one}
        slot0, slot1 = _join(m, {}), _join({}, m)
        if (rho0(rho0(m)) != m or rho2(rho2(m)) != m
                or rho1(rho1(slot0)) != slot0 or rho1(rho1(slot1)) != slot1):
            raise CertificateError(f"{kind}/{twist}: symmetry is not an involution")
        if rho1(d0[key]) != apply_columns(d0, rho0(m)):
            raise CertificateError(f"{kind}/{twist}: level-0 symmetry is not a chain map")
        for vec in (slot0, slot1):
            if rho2(apply_columns(d1, vec)) != apply_columns(d1, rho1(vec)):
                raise CertificateError(f"{kind}/{twist}: level-1 symmetry is not a chain map")


def _invariant_sector_dims(kind: str, twist: str, windows: tuple) -> list:
    """Dimensions of the symmetry-invariant part of the windowed
    cohomology of one twisted sector, on each window of windows, (N,) or
    (N, N-2), each read on its margin 2 below.

    The columns are built and the symmetry certified once, on window N:
    operator images are never truncated, so window N-2 restricts those
    columns, and its margin lies inside the certified one.  Each window
    keeps its own eliminations."""
    one = _one(kind)
    d0, d1 = _complex_columns(kind, twist, windows[0])
    rho0, rho1, rho2 = rhos = _sector_involution(kind, twist)
    _verify_involution(kind, twist, windows[0], rhos, d0, d1)

    def identity(vec):
        return vec

    out = []
    for N in windows:
        window, margin = window_keys(kind, N), window_keys(kind, N - 2)
        levels = [
            (kernel_combos(((s, d0[s]) for s in margin), one), [], rho0),
            (kernel_combos(((key, d1[key]) for key in _level1(margin)), one),
             [d0[s] for s in window], rho1),
            ([{k: one} for k in margin],
             [d1[(i, s)] for s in window for i in (0, 1)], rho2),
        ]
        out.append(tuple(invariant_dim(boundaries, cycles, [identity, rho], one)
                         for cycles, boundaries, rho in levels))
    return out


def crossed_z2_cohomology(kind: str, window=10):
    """Hochschild cohomology dimensions of the order-2 crossed product,
    assembled as invariants of the untwisted plus twisted sectors, at
    window N and re-checked at N-2 as for hh_cohomology_rank_one."""
    _check_kind(kind)

    def total(windows):
        sectors = zip(_invariant_sector_dims(kind, "id", windows),
                      _invariant_sector_dims(kind, "eps", windows))
        return [tuple(x + y for x, y in zip(a, b)) for a, b in sectors]

    return _stable(f"{kind} crossed", total, window)


# --- self-duality of the Koszul bimodule complex ---------------------------
#
# Over the enveloping algebra (pairs a⊗b with (a⊗b)(c⊗d) = ac ⊗ db), the
# resolution reads  0 -> E -> E^2 -> E -> A  with right multiplication by
# (w, -u) and then by (u, w): up to the basis change stated in duality_check,
# the Koszul complex of right multiplication by u and w (_koszul_columns).
# Applying Hom(-, E) turns right into left multiplication; the factor-swap
# anti-automorphism s(a⊗b) = b⊗a carries the dual complex back onto the
# original because s(u) and s(w) are unit multiples of u and w.  duality_check certifies this at matrix level on
# the window, together with windowed exactness and the identification of
# the top cohomology with the algebra itself.


def _ae_mul(kind: str, f: dict, g: dict) -> dict:
    if kind == "qweyl":
        return _qweyl_sum(_laurent_terms(f), _laurent_terms(g), _ae_place)
    out: dict = {}
    for (k1, k2), cf in f.items():
        for (l1, l2), cg in g.items():
            left = _mono_mul(kind, *k1, *l1)
            right = _mono_mul(kind, *l2, *k2)
            cc = cf * cg
            for a, va in left.items():
                for b, vb in right.items():
                    add_term(out, (a, b), cc * va * vb)
    return out


def _ae_swap(f: dict) -> dict:
    return {(k2, k1): v for (k1, k2), v in f.items()}


def _ae_scale(f: dict, c) -> dict:
    return {k: p for k, v in f.items() if (p := v * c)}


def _ae_window(kind: str, N: int) -> list:
    singles = window_keys(kind, N)
    return [(k1, k2) for k1 in singles for k2 in singles
            if monomial_degree(k1) + monomial_degree(k2) <= N]


def duality_check(kind: str, window=None) -> CheckReport:
    """Certify the self-duality of the Koszul bimodule complex on a window.

    Checks, all by exact arithmetic: u and w commute; consecutive
    differentials compose to zero; the factor swap sends u, w to unit
    multiples of themselves, so the matrices of the dual (left
    multiplication) differentials agree with the swap-transported, unit-
    rescaled Koszul matrices on the margin; the margin homology of the
    resolution, computed by _margin_dims as for the sectors, vanishes
    except at the end, where it is the image of the multiplication map;
    and the top cokernel on the margin has exactly the dimension of the
    windowed algebra, identifying the only surviving cohomology with the
    algebra itself.  A window above MAX_DUALITY_WINDOW raises ValueError.
    """
    _check_kind(kind)
    if window is None:
        window = 8 if kind == "weyl" else 6
    N = _window(window, MAX_DUALITY_WINDOW)
    one = _one(kind)
    u, w, nu_u, nu_w = _ae_uw(kind)
    checks = [(_ae_mul(kind, u, w) == _ae_mul(kind, w, u),
               "u and w commute in the enveloping algebra"),
              (_ae_swap(u) == _ae_scale(_ae_mul(kind, u, nu_u), -one)
               and _ae_swap(w) == _ae_scale(_ae_mul(kind, w, nu_w), -one),
               "factor swap sends u, w to unit multiples of themselves")]

    basis, margin = _ae_window(kind, N), _ae_window(kind, N - 2)

    # The resolution xi -> (xi.w, -xi.u), (xi1, xi2) -> xi1.u + xi2.w (the
    # report counts from the algebra end) is the Koszul complex (d0, d1) of
    # right multiplication by u and w up to the level-1 basis change
    # (xi1, xi2) -> (-xi2, xi1) and the sign of the last map, so its margin
    # dimensions are equal.  Its dual is the Koszul complex of left
    # multiplication, with last map dual_d1.  Every check reads these columns.
    d0, d1 = _koszul_columns(basis, lambda m: _ae_mul(kind, m, u),
                             lambda m: _ae_mul(kind, m, w), one)
    _, dual_d1 = _koszul_columns(basis, lambda m: _ae_mul(kind, u, m),
                                 lambda m: _ae_mul(kind, w, m), one)

    # composite xi.u.w - xi.w.u vanishes identically on the full window
    flag = all(_ae_mul(kind, xu, w) == _ae_mul(kind, xw, u)
               for xu, xw in map(_split, d0.values()))
    checks.append((flag, "consecutive differentials compose to zero on the full window"))

    # dual differential matrices = swap-transported Koszul matrices; the
    # window and the margin are closed under the factor swap
    flag = all(_ae_swap(dual_d1[(i, (k2, k1))])
               == _ae_scale(_ae_mul(kind, d1[(i, (k1, k2))], nu), -one)
               for k1, k2 in margin for i, nu in ((0, nu_w), (1, nu_u)))
    checks.append((flag, "dual differentials match the swap-transported Koszul matrices"))

    # windowed exactness: the margin homology is (0, 0, rank of mu on the margin)
    [(h0, h1, h2)] = _margin_dims(d0, d1, [margin, basis])
    mu_rank = rank_of(_mono_mul(kind, *k1, *k2) for k1, k2 in margin)
    checks.append((h0 == 0, "second differential is injective on the margin"))
    checks.append((h1 == 0, "margin kernel of the first differential equals the "
                            "windowed image of the second"))
    checks.append((h2 == mu_rank, "margin kernel of the multiplication map equals the "
                                  "windowed image of the first differential"))

    # top cohomology of the dual complex: left ideal (u, w) has margin
    # codimension equal to the windowed algebra dimension
    codim = rank_modulo(dual_d1.values(), margin)
    algebra_margin = len(window_keys(kind, N - 2))
    checks.append((codim == algebra_margin,
                   "top dual cohomology on the margin has the dimension of the "
                   "windowed algebra"))
    return CheckReport.from_checks(f"koszul self-duality {kind}", checks)
