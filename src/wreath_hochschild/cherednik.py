"""Normal-ordering engine for the type A rational Cherednik algebra.

The algebra on n sites is generated by a commuting family x_1..x_n, a
commuting family p_1..p_n, and the symmetric group S_n, subject to

    sigma x_i = x_{sigma(i)} sigma,        sigma p_i = p_{sigma(i)} sigma,
    x_i p_j - p_j x_i = k s_ij             (i != j),
    x_i p_i - p_i x_i = 1 - sum_{j != i} k s_ij,

where s_ij transposes i and j and k is a formal parameter.  Commutators
mean [a, b] = a b - b a; every rewriting rule below is derived from that
sign convention.  Elements are stored in the fixed normal order
x-monomial, then group element, then p-monomial, with coefficients that
are polynomials in k over the rationals (dense tuples of ints, with a
Fraction only where a denominator appears, as in the 1/n! of the
spherical idempotent, added, multiplied and evaluated by poly_add,
poly_mul and poly_eval of ratfunc), so flatness statements are checked
over the polynomial ring rather than at a numeric k.  Setting k = 0
recovers the crossed product of S_n with n commuting Weyl pairs;
crossed_weyl_normal_order implements that algebra directly, without the
rewriting engine, and serves as an oracle for the k -> 0 specialization
of every normal form.

Input is validated at the public edge: word parsing and the
CherednikElement constructor check every generator, monomial and
coefficient.  Normal forms are built once and trusted: normal_order
wraps the dict the rewriter emits (CherednikElement._trusted) without
re-checking its monomials or re-coercing its coefficients, and the
verification suites parse their alphabet once per n and reduce the
parsed words directly (_normal_form).  multiply still builds its result
through the checking constructor, which keeps a product of Fraction
operands integer-first.  Normal forms print (format_element) through
the package's one polynomial printer, series.signed_sum and power_str.
"""

import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import NamedTuple

from .linalg import add_term, exact_scalar
from .presets_io import CheckReport
from .ratfunc import poly_add, poly_eval, poly_mul
from .series import check_count, is_permutation, power_str, signed_sum

KP_ONE = (1,)
KP_K = (0, 1)
KP_MINUS_ONE = (-1,)
KP_MINUS_K = (0, -1)


def _kp(value) -> tuple:
    """Coerce an int, Fraction, or coefficient tuple into a trimmed k-polynomial."""
    if not isinstance(value, tuple):
        value = (value,)
    coeffs = [exact_scalar(v) for v in value]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _kp_add_into(target: dict, key, c: tuple) -> None:
    """target[key] += c for k-polynomials; drops the entry if it cancels.

    c must be trimmed (no trailing zero): a new key stores c as it is."""
    old = target.get(key)
    acc = c if old is None else poly_add(old, c)
    if acc:
        target[key] = acc
    elif old is not None:
        del target[key]


def _identity(n: int) -> tuple:
    return tuple(range(n))


def _compose(sigma: tuple, tau: tuple) -> tuple:
    # group product: (sigma tau)(i) = sigma(tau(i))
    return tuple(sigma[t] for t in tau)


def _transposition(n: int, i: int, j: int) -> tuple:
    one = list(range(n))
    one[i], one[j] = one[j], one[i]
    return tuple(one)


class NormalMonomial(NamedTuple):
    """A basis monomial x^a sigma p^b in the fixed normal order.

    xexp and pexp are n-tuples of nonnegative exponents; perm is the
    one-line form of sigma, zero-indexed (perm[i] is the image of i).
    """

    xexp: tuple
    perm: tuple
    pexp: tuple

    def degree(self) -> int:
        return sum(self.xexp) + sum(self.pexp)


# ---------------------------------------------------------------------------
# words and rewriting


_TOKEN = re.compile(r"^([xp])([1-9][0-9]*)$|^s([1-9][0-9]*),([1-9][0-9]*)$|^s([1-9])([1-9])$")


def _tokenize(text: str, n: int) -> list:
    """Generator tokens: x<i>, p<i>, s<i>,<j>, and s<i><j> while n <= 9
    (for n >= 10 the comma-less form is ambiguous and refused)."""
    atoms = []
    for tok in text.replace("*", " ").split():
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"cannot parse generator {tok!r}")
        if m.group(5) and n >= 10:
            raise ValueError(f"ambiguous generator {tok!r} for n >= 10: "
                             f"write s{m.group(5)},{m.group(6)}")
        if m.group(1):
            atoms.append((m.group(1), int(m.group(2))))
        elif m.group(3):
            atoms.append(("s", int(m.group(3)), int(m.group(4))))
        else:
            atoms.append(("s", int(m.group(5)), int(m.group(6))))
    return atoms


def _parse_atoms(word, n: int) -> tuple:
    """Convert public generators (1-indexed) to internal atoms (0-indexed).

    Accepted letters: ("x", i), ("p", i), the transposition ("s", i, j),
    a full permutation ("perm", one_line) in 1-based one-line notation,
    or a whitespace-separated string of tokens like "p1 x1 s12" (write
    s1,10 for a transposition once n >= 10).  A word is a string, a tuple
    or a list, and each letter a nonempty tuple or list; anything else is
    refused with ValueError, as is every malformed letter.
    """
    if isinstance(word, str):
        word = _tokenize(word, n)
    elif not isinstance(word, (tuple, list)):
        raise ValueError(f"a word is a string or a list of generators, got {word!r}")

    def index(i) -> bool:
        # type(), not isinstance: True and 1.0 are no generator index
        return type(i) is int and 1 <= i <= n

    atoms = []
    for g in word:
        if not isinstance(g, (tuple, list)) or not g:
            raise ValueError(f"unknown generator {g!r}")
        kind = g[0]
        if kind in ("x", "p"):
            if len(g) != 2 or not index(g[1]):
                raise ValueError("generator index out of range")
            atoms.append((kind, g[1] - 1))
        elif kind == "s":
            if len(g) != 3 or not (index(g[1]) and index(g[2])) or g[1] == g[2]:
                raise ValueError("generator index out of range")
            atoms.append(("s", _transposition(n, g[1] - 1, g[2] - 1)))
        elif kind == "perm":
            if len(g) != 2 or not is_permutation(g[1], n):
                raise ValueError("not a permutation in one-line notation")
            atoms.append(("s", tuple(v - 1 for v in g[1])))
        else:
            raise ValueError(f"unknown generator {g!r}")
    return tuple(atoms)


def _rewrite(u, v, n: int):
    """The (letters, k-polynomial) terms that replace the adjacent pair u v,
    or None when the pair is in normal order."""
    a, b = u[0], v[0]
    if a == "p" and b == "x":
        i, j = u[1], v[1]
        if i != j:
            # p_i x_j = x_j p_i - k s_ij
            return [((v, u), KP_ONE), ((("s", _transposition(n, i, j)),), KP_MINUS_K)]
        # p_i x_i = x_i p_i - 1 + sum_{l != i} k s_il
        return [((v, u), KP_ONE), ((), KP_MINUS_ONE)] + [
            ((("s", _transposition(n, i, l)),), KP_K) for l in range(n) if l != i]
    if a == "p" and b == "s":
        # p_i sigma = sigma p_{sigma^{-1}(i)}
        return [((v, ("p", v[1].index(u[1]))), KP_ONE)]
    if a == "s" and b == "x":
        # sigma x_i = x_{sigma(i)} sigma
        return [((("x", u[1][v[1]]), u), KP_ONE)]
    if a == "s" and b == "s":
        return [((("s", _compose(u[1], v[1])),), KP_ONE)]
    if a == b and u[1] > v[1]:
        # out-of-order pair inside a commuting block
        return [((v, u), KP_ONE)]
    return None


def _monomial_of(word, n: int) -> NormalMonomial:
    # assumes the word is redex-free: x block, at most one s, p block
    xexp, pexp = [0] * n, [0] * n
    perm = _identity(n)
    for atom in word:
        if atom[0] == "x":
            xexp[atom[1]] += 1
        elif atom[0] == "p":
            pexp[atom[1]] += 1
        else:
            perm = atom[1]
    # tuple.__new__ skips the NamedTuple constructor's Python-level code
    return tuple.__new__(NormalMonomial, (tuple(xexp), perm, tuple(pexp)))


def _monomial_word(mono: NormalMonomial, n: int) -> tuple:
    word = []
    for i, e in enumerate(mono.xexp):
        word.extend([("x", i)] * e)
    if mono.perm != _identity(n):
        word.append(("s", mono.perm))
    for i, e in enumerate(mono.pexp):
        word.extend([("p", i)] * e)
    return tuple(word)


def _reduce_words(pending: dict, n: int, rightmost: bool) -> dict:
    """Rewrite a k-polynomial combination of words into normal monomials.

    Each word is rewritten at its first pair that _rewrite expands, from
    the left (from the right if rightmost).  No rule lengthens a word, so
    the words wait in one dict per length and the longest go first: a word
    is rewritten only after every longer word has added its share to it,
    not once for each longer word reaching it."""
    work = [{} for _ in range(max(map(len, pending), default=0) + 1)]
    for word, coeff in pending.items():
        work[len(word)][word] = coeff
    out = {}
    for bucket in reversed(work):
        while bucket:
            word, coeff = bucket.popitem()
            for t in range(len(word) - 2, -1, -1) if rightmost else range(len(word) - 1):
                terms = _rewrite(word[t], word[t + 1], n)
                if terms is not None:
                    break
            else:
                _kp_add_into(out, _monomial_of(word, n), coeff)
                continue
            for mid, c in terms:
                nxt = word[:t] + mid + word[t + 2:]
                _kp_add_into(work[len(nxt)], nxt, poly_mul(coeff, c))
    return out


# ---------------------------------------------------------------------------
# elements


class CherednikElement:
    """Finitely supported combination of normal monomials over Q[k]."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=()):
        check_count(n, "n", 1)
        self.n = n
        clean: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mono, coeff in items:
            # tuples of ints (type(), not isinstance: bools and floats are refused)
            if (
                not isinstance(mono, NormalMonomial)
                or any(type(f) is not tuple or len(f) != n for f in mono)
                or {*map(type, mono.xexp + mono.perm + mono.pexp)} != {int}
                or sorted(mono.perm) != list(range(n))
                or min(mono.xexp + mono.pexp, default=0) < 0
            ):
                raise ValueError(f"bad monomial {mono!r}")
            _kp_add_into(clean, mono, _kp(coeff))
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "CherednikElement":
        """Wrap a dict the engine built: canonical normal monomials mapped to
        trimmed, integer-first k-polynomials.  Nothing is checked or copied."""
        elem = object.__new__(cls)
        elem.n = n
        elem.terms = terms
        return elem

    @classmethod
    def zero(cls, n: int) -> "CherednikElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "CherednikElement":
        zero = (0,) * n
        return cls(n, {NormalMonomial(zero, _identity(n), zero): KP_ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, CherednikElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other):
        if not isinstance(other, CherednikElement) or other.n != self.n:
            return NotImplemented
        merged = list(self.terms.items()) + list(other.terms.items())
        return CherednikElement(self.n, merged)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, CherednikElement) or other.n != self.n:
            return NotImplemented
        return self + (-other)

    def scale(self, coeff) -> "CherednikElement":
        c = _kp(coeff)
        return CherednikElement(
            self.n, [(m, poly_mul(v, c)) for m, v in self.terms.items()]
        )

    def __mul__(self, other):
        if isinstance(other, CherednikElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def specialize(self, value=0) -> dict:
        """Evaluate every coefficient at a numeric k; drops vanished terms."""
        value = exact_scalar(value)
        out = {}
        for mono, c in self.terms.items():
            v = poly_eval(c, value)
            if v:
                out[mono] = exact_scalar(v)
        return out

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<CherednikElement n={self.n}: {self}>"


def normal_order(word, n: int, strategy: str = "leftmost") -> CherednikElement:
    """Reduce a generator word to its normal form x^a sigma p^b.

    The result is independent of the reduction strategy; "leftmost" and
    "rightmost" pick which redex is expanded first and exist so that
    confluence_check can compare them.
    """
    check_count(n, "n", 1)
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return _normal_form(_parse_atoms(word, n), n, strategy == "rightmost")


def _normal_form(atoms: tuple, n: int, rightmost: bool) -> CherednikElement:
    """Normal form of a parsed word; the rewriter's integer k-polynomials
    are final, so the result is built once, unchecked."""
    return CherednikElement._trusted(n, _reduce_words({atoms: KP_ONE}, n, rightmost))


def multiply(a: CherednikElement, b: CherednikElement) -> CherednikElement:
    """Normal-ordered product, extended bilinearly over Q[k]."""
    if not isinstance(a, CherednikElement) or not isinstance(b, CherednikElement):
        raise TypeError("multiply expects two CherednikElement operands")
    if a.n != b.n:
        raise ValueError("rank mismatch")
    n = a.n
    right = [(_monomial_word(m2, n), c2) for m2, c2 in b.terms.items()]
    pending: dict = {}
    for m1, c1 in a.terms.items():
        w1 = _monomial_word(m1, n)
        for w2, c2 in right:
            _kp_add_into(pending, w1 + w2, poly_mul(c1, c2))
    return CherednikElement(n, _reduce_words(pending, n, False))


# ---------------------------------------------------------------------------
# k = 0 oracle: the crossed product of S_n with n commuting Weyl pairs


def crossed_weyl_normal_order(word, n: int) -> dict:
    """Normal form of a word at k = 0, computed without the rewriting engine.

    Right-multiplies an accumulating normal form atom by atom:
    appending x_i uses p^b x_i = x_i p^b - b_i p^{b - e_i} followed by
    sigma x_i = x_{sigma(i)} sigma, appending a permutation tau moves it
    through p^b by permuting exponents.  Returns monomial -> coefficient,
    an int (the k = 0 relations have integer coefficients).
    """
    check_count(n, "n", 1)
    atoms = _parse_atoms(word, n)
    zero = (0,) * n
    terms = {NormalMonomial(zero, _identity(n), zero): 1}
    for atom in atoms:
        nxt: dict = {}
        for (a, sigma, b), c in terms.items():
            if atom[0] == "x":
                i = atom[1]
                up = list(a)
                up[sigma[i]] += 1
                add_term(nxt, NormalMonomial(tuple(up), sigma, b), c)
                if b[i]:
                    down = list(b)
                    down[i] -= 1
                    add_term(nxt, NormalMonomial(a, sigma, tuple(down)), -c * b[i])
            elif atom[0] == "p":
                up = list(b)
                up[atom[1]] += 1
                add_term(nxt, NormalMonomial(a, sigma, tuple(up)), c)
            else:
                tau = atom[1]
                moved = tuple(b[tau[j]] for j in range(n))
                add_term(nxt, NormalMonomial(a, _compose(sigma, tau), moved), c)
        terms = nxt
    return terms


# ---------------------------------------------------------------------------
# spherical subalgebra


def spherical_idempotent(n: int) -> CherednikElement:
    """The symmetrizer e = (1/n!) sum of all group elements."""
    check_count(n, "n", 1)
    c = Fraction(1, factorial(n))
    return CherednikElement(n, {mono: (c,) for mono in _all_monomials(n, 0)})


def spherical_product(a: CherednikElement) -> CherednikElement:
    """Compress an element to the spherical subalgebra: e a e."""
    if not isinstance(a, CherednikElement):
        raise TypeError(f"spherical_product expects a CherednikElement, "
                        f"got {type(a).__name__}")
    e = spherical_idempotent(a.n)
    return multiply(multiply(e, a), e)


# ---------------------------------------------------------------------------
# verification suites


def _word_alphabet(n: int) -> list:
    atoms = [("x", i) for i in range(1, n + 1)]
    atoms += [("p", i) for i in range(1, n + 1)]
    atoms += [("s", i, j) for i, j in combinations(range(1, n + 1), 2)]
    return atoms


def _word_label(atoms) -> str:
    """A parsed word in the tokens the parser reads (s1,10 once n >= 10)."""
    return " ".join(_fmt_perm(a[1]) if a[0] == "s" else f"{a[0]}{a[1] + 1}" for a in atoms)


def _words(alphabet, max_len: int):
    """Every word over alphabet of length <= max_len, shortest first."""
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


def confluence_check(n: int, max_deg: int) -> CheckReport:
    """Reduce every word of length <= max_deg under both strategies.

    Also compares the k = 0 specialization of every normal form with the
    independent crossed-product engine.
    """
    check_count(n, "n", 1)
    check_count(max_deg, "max_deg")
    letters = _word_alphabet(n)
    atom_of = dict(zip(letters, _parse_atoms(letters, n)))
    failure, total = None, 0
    for total, word in enumerate(_words(letters, max_deg), 1):
        atoms = tuple(map(atom_of.__getitem__, word))
        left = _normal_form(atoms, n, False)
        if left != _normal_form(atoms, n, True):
            failure = f"strategies diverge on word {_word_label(atoms)}"
        elif left.specialize(0) != crossed_weyl_normal_order(word, n):
            failure = (f"k = 0 normal form of {_word_label(atoms)} disagrees "
                       "with the crossed product")
        if failure:
            break
    checks = [(False, failure)] if failure else [
        (True, f"{total} words of length <= {max_deg} reduce identically "
               "under leftmost and rightmost strategies"),
        (True, "k = 0 specializations match the crossed-product engine")]
    return CheckReport.from_checks(f"cherednik confluence n={n}", checks)


def _all_monomials(n: int, max_deg: int) -> list:
    """Normal monomials of (x, p)-degree <= max_deg; degree 0 gives 1 sigma 1."""
    exps = [v for v in product(range(max_deg + 1), repeat=n) if sum(v) <= max_deg]
    out = []
    for sig in permutations(range(n)):
        for a in exps:
            for b in exps:
                if sum(a) + sum(b) <= max_deg:
                    out.append(NormalMonomial(a, tuple(sig), b))
    return out


def normal_monomial_count(n: int, max_deg: int) -> int:
    """Number of normal monomials of (x, p)-degree <= max_deg."""
    check_count(n, "n", 1)
    check_count(max_deg, "max_deg")
    return len(_all_monomials(n, max_deg))


def pbw_dimension_check(n: int, max_deg: int) -> CheckReport:
    """Flatness certificate: normal monomial count and degree filtration.

    Counts the normal monomials of degree <= max_deg against the
    undeformed dimension n! * C(2n + D, D), then reduces every word of
    length <= max_deg and checks that its terms stay within the degree
    filtration with a k-free top part (so the associated graded algebra
    is the k = 0 crossed product on the same monomial basis).
    """
    check_count(n, "n", 1)
    check_count(max_deg, "max_deg")
    expected = factorial(n) * comb(2 * n + max_deg, max_deg)
    count = normal_monomial_count(n, max_deg)
    filtered = graded = True
    for atoms in _words(_parse_atoms(_word_alphabet(n), n), max_deg):
        xp_len = sum(1 for a in atoms if a[0] != "s")
        for mono, c in _normal_form(atoms, n, False).terms.items():
            degree = mono.degree()
            if degree > xp_len:
                filtered = False
            elif degree == xp_len and len(c) > 1:
                graded = False
    return CheckReport.from_checks(f"cherednik pbw flatness n={n}", [
        (count == expected, f"{count} normal monomials of degree <= {max_deg} "
                            f"(undeformed dimension n!*C(2n+D,D) = {expected})"),
        (filtered, "every reduced word lies in the span of normal monomials of degree "
                   "<= its x,p-length"),
        (graded, "top-degree parts carry no k (associated graded is the crossed product)"),
    ])


def associativity_check(n: int, trials: int = 100, seed: int = 0) -> CheckReport:
    """Exact associativity of multiply on random low-degree elements."""
    check_count(n, "n", 1)
    check_count(trials, "trials", 1)
    rng = random.Random(seed)
    monos = _all_monomials(n, 2)

    def rand_elem():
        picks = rng.sample(monos, rng.randint(1, 2))
        return CherednikElement(
            n,
            [(m, (rng.randint(-2, 2), rng.randint(-1, 1))) for m in picks],
        )

    bad = None
    for _ in range(trials):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            bad = (a, b, c)
            break
    text = (f"{trials} random triples of degree <= 2 elements associate exactly over Q[k]"
            if bad is None else
            f"associativity fails for {bad[0]!r}, {bad[1]!r}, {bad[2]!r}")
    return CheckReport.from_checks(f"cherednik associativity n={n}", [(bad is None, text)])


def spherical_check(n: int) -> CheckReport:
    """Symmetrizer identities: e^2 = e, sigma e = e sigma = e, bi-invariance."""
    check_count(n, "n", 1)
    e = spherical_idempotent(n)
    group = [CherednikElement(n, {mono: KP_ONE}) for mono in _all_monomials(n, 0)]
    compressed = spherical_product(normal_order("x1 p1", n))
    return CheckReport.from_checks(f"cherednik spherical n={n}", [
        (multiply(e, e) == e, "e is idempotent"),
        (all(multiply(g, e) == e and multiply(e, g) == e for g in group),
         "sigma e = e sigma = e for every group element"),
        (spherical_product(CherednikElement.one(n)) == e, "e 1 e = e"),
        (all(multiply(g, compressed) == compressed == multiply(compressed, g)
             for g in group),
         "e x1 p1 e is bi-invariant under the group"),
    ])


# ---------------------------------------------------------------------------
# formatting


def _cycles(perm: tuple) -> list:
    seen, cycles = set(), []
    for i in range(len(perm)):
        if i not in seen and perm[i] != i:
            cyc = [i]
            while perm[cyc[-1]] != i:
                cyc.append(perm[cyc[-1]])
            seen.update(cyc)
            cycles.append(cyc)
    return cycles


def _fmt_perm(perm: tuple) -> str:
    cycles = _cycles(perm)
    if not cycles:
        return ""
    if len(cycles) == 1 and len(cycles[0]) == 2:
        i, j = sorted(cycles[0])
        return f"s{i + 1},{j + 1}" if len(perm) >= 10 else f"s{i + 1}{j + 1}"
    return "".join("(" + " ".join(str(v + 1) for v in cyc) + ")" for cyc in cycles)


def _fmt_vars(letter: str, exps: tuple) -> list:
    return [power_str(f"{letter}{i + 1}", e) for i, e in enumerate(exps) if e]


def _fmt_monomial(mono: NormalMonomial) -> str:
    # the identity permutation prints as "" and is left out
    return " ".join(filter(None, (*_fmt_vars("x", mono.xexp), _fmt_perm(mono.perm),
                                  *_fmt_vars("p", mono.pexp))))


def _display_key(mono: NormalMonomial):
    # degree-descending, then x-exponents, permutation, p-exponents
    return (
        -mono.degree(),
        tuple(-e for e in mono.xexp),
        mono.perm,
        tuple(-e for e in mono.pexp),
    )


def format_element(elem: CherednikElement) -> str:
    """Human-readable normal form, e.g. "x1 p1 - 1 + k s12", through
    series.signed_sum: a one-term k-polynomial q k^j is the coefficient q
    of "k^j monomial", a longer one the parenthesised "(k-polynomial)
    monomial" with coefficient 1."""
    pairs = []
    for mono in sorted(elem.terms, key=_display_key):
        ms = _fmt_monomial(mono)
        live = [(q, power_str("k", j)) for j, q in enumerate(elem.terms[mono]) if q]
        if len(live) == 1:
            q, kj = live[0]
            pairs.append((q, f"{kj} {ms}".strip()))
        else:
            pairs.append((1, f"({signed_sum(live, ' ')}) {ms}".rstrip()))
    return signed_sum(pairs, " ")
