"""Hochschild (co)homology of S_n acting on n-fold tensor powers.

Given the graded dimensions of HH of a single algebra, the wreath-product
(co)homology decomposes as a sum over partitions of n: a part of size i
contributes one tensor factor, equal parts are merged by a super symmetric
power, and in cohomology each part of size i is shifted up by d(i-1).
Summing q^n times the Poincare polynomial over n produces a bivariate
series with an infinite-product form; both routes are implemented and the
named classical cases are additionally transcribed as literal products.
hilb_poincare and deformation_parameter_count read the q^n slice of the
product, as the CLI table commands do; the partition sum is the oracle,
behind hh_homology_wreath, hh_cohomology_wreath and generating_series_sum.

The partition sum is a depth-first walk over (part size i, multiplicity p),
largest first, sizes 2 and 1 closed in the loop.  Every partition is one
leaf with its own product; no subtree is shared and nothing is memoised, so
the sum stays a literal enumeration, never regrouped into the shape of the
product it checks.  A t-polynomial is one integer, sum dim * 2^(B*degree)
(Kronecker substitution).  A leaf with l parts is shifted by d(n - l), the
sum of d(i - 1) over its parts, so it goes unshifted into bucket l, and each
bucket is shifted once.  Evaluation at 2^B is a ring homomorphism, so the
total unpacks exactly if its coefficients are below 2^B, as they are for B
the bit length of p_M(n), M the total dimension: entries are nonnegative and
dim S^p <= C(M+p-1, p), so no coefficient exceeds the total at t = 1, at
most the sum over partitions of n of prod_i C(M+p_i-1, p_i) = p_M(n).
The product route, series._euler_product, sizes its slots by the same
bound, _slot_width.
"""

from __future__ import annotations

from .betti import AlgebraPreset, BettiTable, _packed_sym_powers, _unpacked, check_duality
from .series import BiSeries, _euler_product, _slot_width, check_count

PRESETS: dict[str, AlgebraPreset] = {
    # flat polynomial-type algebras, all with duality dimension 2
    "weyl": AlgebraPreset("weyl", 2, BettiTable({0: 1})),
    "trig": AlgebraPreset("trig", 2, BettiTable({0: 1, 1: 1})),
    "qweyl": AlgebraPreset("qweyl", 2, BettiTable({0: 1, 1: 2, 2: 1})),
    # the same three after crossing with the sign involution
    "z2_weyl": AlgebraPreset("z2_weyl", 2, BettiTable({0: 1, 2: 1})),
    "z2_trig": AlgebraPreset("z2_trig", 2, BettiTable({0: 1, 2: 2})),
    "z2_qweyl": AlgebraPreset("z2_qweyl", 2, BettiTable({0: 1, 2: 5})),
}


def gamma_preset(nu: int) -> AlgebraPreset:
    """Preset for a finite-subgroup crossed product with nu conjugacy classes."""
    check_count(nu, "nu", 1)
    return AlgebraPreset(f"gamma:{nu}", 2, BettiTable({0: 1, 2: nu - 1}))


def surface_preset(b0: int, b1: int, b2: int) -> AlgebraPreset:
    """User-supplied d=2 table (the orbifold / Hilbert-scheme use case)."""
    return AlgebraPreset("surface", 2, BettiTable({0: b0, 1: b1, 2: b2}))


def _sym_power_terms(table: BettiTable, shift: int, n: int) -> tuple[int, int, list[int]]:
    """(B, shift, packed): the slot width B for n and the rows S^0 .. S^n of
    _packed_sym_powers at width B.  S^p(V[s]) = S^p(V)[p*s] for an even s,
    so one expansion serves every part size."""
    check_count(n, "n")
    width, packed = _packed_sym_powers(table, n, lambda m: _slot_width(m, n))
    return width, shift, packed


def _partition_sum(powers: tuple[int, int, list[int]], n: int) -> BettiTable:
    """Sum over partitions of n of the tensor product over part sizes i of
    S^p(table[shift * (i - 1)]), p the multiplicity of i (powers as from
    _sym_power_terms, bound >= n >= 0), by the walk of the module docstring."""
    width, shift, packed = powers
    buckets = [0] * (n + 1)

    def walk(rest, size, prod, parts):
        # p twos and rest - 2p ones close the partition
        for p in range(rest // 2 + 1):
            ones = rest - 2 * p
            buckets[parts + p + ones] += prod * packed[p] * packed[ones]
        for i in range(min(size, rest), 2, -1):
            for p in range(1, rest // i + 1):
                walk(rest - p * i, i - 1, prod * packed[p], parts + p)

    walk(n, n, 1, 0)
    step = width * shift
    return _unpacked(sum(b << step * (n - parts) for parts, b in enumerate(buckets)), width)


def hh_homology_wreath(hom: BettiTable, n: int) -> BettiTable:
    """Homology table of the wreath product, from the homology table of A.

    Sum over partitions of n; a part repeated p times contributes the
    p-th super symmetric power of the table.  No degree shift appears in
    homology.
    """
    return _partition_sum(_sym_power_terms(hom, 0, n), n)


def hh_cohomology_wreath(coh: BettiTable, d: int, n: int) -> BettiTable:
    """Cohomology table of the wreath product, from the cohomology of A.

    Same partition sum as in homology, but a part of size i is first
    shifted up by d(i-1).  The result is supported in [0, nd].
    """
    check_duality(coh, d)
    return _partition_sum(_sym_power_terms(coh, d, n), n)


def generating_series_sum(
    coh: BettiTable, d: int, q_bound: int, t_bound: int | None = None
) -> BiSeries:
    """Sum_n q^n (Poincare polynomial of the n-th wreath product in t).

    Evaluated directly from the partition decomposition; this is the
    oracle route against which the infinite product is checked.
    """
    check_duality(coh, d)
    if t_bound is None:
        t_bound = d * q_bound
    out = BiSeries(q_bound, t_bound)
    powers = _sym_power_terms(coh, d, q_bound)
    for n in range(q_bound + 1):
        table = _partition_sum(powers, n)
        for deg, dim in table.dims().items():
            if deg <= t_bound:
                out.coeff[n][deg] = dim
    return out


def generating_series_product(
    coh: BettiTable, d: int, q_bound: int, t_bound: int | None = None
) -> BiSeries:
    """The product form of the same series.

    prod_{m>=1} prod_k (1 - q^m t^{k+d(m-1)})^{-b_k}   for even k,
                prod_k (1 + q^m t^{k+d(m-1)})^{+b_k}   for odd k,
    truncated at q^q_bound.
    """
    check_duality(coh, d)
    if t_bound is None:
        t_bound = d * q_bound
    factors = [(-1, d, k - d, -b) if k % 2 == 0 else (1, d, k - d, b)
               for k, b in sorted(coh.dims().items())]
    return _euler_product(factors, q_bound, t_bound)


# The six classical series, transcribed literally as factor lists, each
# with the preset whose product formula reproduces it.  Each factor is
# (sign, t_slope, t_offset, power): for every m >= 1 multiply by
# (1 + sign q^m t^{t_slope*m + t_offset})^power.
_CLOSED_FORMS: dict[str, tuple[str, list[tuple[int, int, int, int]]]] = {
    "PA": ("weyl", [(-1, 2, -2, -1)]),
    "PA_trig": ("trig", [(-1, 2, -2, -1), (1, 2, -1, 1)]),
    "PA_q": ("qweyl", [(-1, 2, -2, -1), (-1, 2, 0, -1), (1, 2, -1, 2)]),
    "PB": ("z2_weyl", [(-1, 2, -2, -1), (-1, 2, 0, -1)]),
    "PB_trig": ("z2_trig", [(-1, 2, -2, -1), (-1, 2, 0, -2)]),
    "PB_q": ("z2_qweyl", [(-1, 2, -2, -1), (-1, 2, 0, -5)]),
}

CLOSED_FORM_PRESETS: dict[str, str] = {label: form[0] for label, form in _CLOSED_FORMS.items()}


def closed_form(label: str, q_bound: int, t_bound: int | None = None) -> BiSeries:
    """Expand one of the six named closed-form products."""
    if label not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed form {label!r}")
    if t_bound is None:
        t_bound = 2 * q_bound
    return _euler_product(_CLOSED_FORMS[label][1], q_bound, t_bound)


def gamma_series(nu: int, q_bound: int, t_bound: int | None = None) -> BiSeries:
    """prod_m (1 - q^m t^{2(m-1)})^{-1} (1 - q^m t^{2m})^{1-nu}."""
    check_count(nu, "nu", 1)
    if t_bound is None:
        t_bound = 2 * q_bound
    return _euler_product([(-1, 2, -2, -1), (-1, 2, 0, 1 - nu)], q_bound, t_bound)


def _wreath_table(coh: BettiTable, d: int, n: int, t_bound: int) -> BettiTable:
    """The q^n slice of the product series to t^t_bound: all of the n-th
    wreath table once t_bound >= d * n, its top degree.  check_duality
    checks the table and d first, then check_count n, for betti, hilb and
    deform alike (deformation_parameter_count has asked for n >= 2 before)."""
    check_duality(coh, d)
    check_count(n, "n")
    return BettiTable(generating_series_product(coh, d, n, t_bound).q_coefficient(n))


def hilb_poincare(surface_coh: BettiTable, n: int) -> BettiTable:
    """Orbifold Poincare polynomial of the n-th symmetric power of a d=2 table.

    For the one-point table {0:1} this reproduces the Poincare polynomials
    of Hilbert schemes of points on the affine plane.  A table supported
    above degree 2 is refused by the one duality check, check_duality,
    before n is checked, as in deformation_parameter_count.
    """
    return _wreath_table(surface_coh, 2, n, 2 * n)


def deformation_parameter_count(coh: BettiTable, d: int, n: int) -> int:
    """Number of deformation parameters of the n-th wreath product.

    Defined as the degree-2 entry of the wreath cohomology table.  For
    d = 2 this works out to b2 + b1(b1-1)/2 + 1; for d > 2 the extra +1
    disappears.  Requires a one-dimensional degree-0 part and an int n >= 2.
    """
    check_duality(coh, d)
    if coh[0] != 1:
        raise ValueError("degree-0 entry must be 1")
    check_count(n, "n", 2)
    # the count is the degree-2 entry, so t^2 is all the series needs
    return _wreath_table(coh, d, n, 2)[2]
