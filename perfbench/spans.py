"""Outside-in tracing of the engine's layers.

A traced pass replaces selected functions and methods of the package with
wrappers defined here.  Each wrapped call records one span (layer, start,
end, parent) in flat arrays, and bumps work counters read from the call's
arguments and result.  Counter bookkeeping runs inside the span of the
layer it counts, so its cost stays in that layer.  When a job ends its
spans are folded into per-layer self time, a span's duration minus the
durations of its direct children, and the arrays are cleared; memory is
therefore bounded by the largest job, not by the run.

Generators (partition enumeration, bar-complex columns) get one span per
item, opened around each next(), so the consumer's loop is not charged to
the producer's layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from fractions import Fraction

PACKAGE = "wreath_hochschild"

LAYERS = (
    "unattributed",  # job time outside every wrapped call (root spans)
    "series",
    "partitions",
    "betti",
    "wreath",
    "presets_io",
    "cli",
    "bruteforce",
    "linalg",
    "ratfunc",
    "koszul",
    "cherednik",
)

COUNTS = (
    "series.mul_calls",
    "series.factor_calls",
    "partitions.yielded",
    "betti.tensor_calls",
    "betti.sym_power_calls",
    "wreath.table_calls",
    "presets_io.bytes_emitted",
    "bruteforce.columns",
    "linalg.inserts",
    "linalg.nnz_in",
    "linalg.rank_gains",
    "linalg.integral_inputs",
    "ratfunc.constructions",
    "ratfunc.trivial_den",
    "ratfunc.reduced",
    "koszul.multiply_calls",
    "koszul.window_columns",
    "cherednik.normal_order_calls",
    "cherednik.cache_hits",
    "cherednik.cache_misses",
)


class Tracer:
    """Span recorder plus per-layer self-time and counter accumulators."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.layer = array("b")
        self.stack = [-1]
        self.self_s = [0.0] * len(LAYERS)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cap_use_max = 0.0
        self.cache_entries = 0
        self.product_cache = None
        # layer of the job spans, which enclose every other span
        self.root = LAYERS.index("unattributed")

    def open(self, layer: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1])
        self.layer.append(layer)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def fold(self) -> None:
        """Add the finished spans' self time to their layers; drop the spans."""
        if len(self.stack) != 1:
            raise RuntimeError("fold() called with spans still open")
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        for i, lid in enumerate(self.layer):
            self.self_s[lid] += end[i] - start[i] - child[i]
        for arr in (self.start, self.end, self.parent, self.layer):
            del arr[:]
        if self.product_cache is not None:
            self.cache_entries = max(self.cache_entries, len(self.product_cache))

    def metrics(self) -> dict:
        """Per-layer metrics of everything folded so far."""
        c = self.counts
        out = {f"{name}.self_s": self.self_s[i] for i, name in enumerate(LAYERS)}
        out.update((k, v) for k, v in c.items() if k not in _RATIO_PARTS)
        out["bruteforce.cap_use_max"] = self.cap_use_max
        out["linalg.rank_gain_frac"] = _ratio(c["linalg.rank_gains"], c["linalg.inserts"])
        out["linalg.integral_frac"] = _ratio(c["linalg.integral_inputs"], c["linalg.inserts"])
        out["ratfunc.trivial_den_frac"] = _ratio(c["ratfunc.trivial_den"],
                                                 c["ratfunc.constructions"])
        out["ratfunc.reduced_frac"] = _ratio(c["ratfunc.reduced"], c["ratfunc.constructions"])
        lookups = c["cherednik.cache_hits"] + c["cherednik.cache_misses"]
        out["cherednik.cache_hit_frac"] = _ratio(c["cherednik.cache_hits"], lookups)
        out["cherednik.cache_entries"] = self.cache_entries
        return out


_RATIO_PARTS = {"linalg.rank_gains", "linalg.integral_inputs",
                "ratfunc.trivial_den", "ratfunc.reduced"}


def _ratio(num, den) -> float:
    # a layer that did no work reports 0, not NaN
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# wrappers


def _wrap_call(tr: Tracer, layer: int, fn, count=None):
    """Span around fn; count(args, kwargs, result) runs inside the span."""

    def wrapper(*args, **kwargs):
        i = tr.open(layer)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result
        finally:
            tr.close(i)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_generator(tr: Tracer, layer: int, fn, counter: str):
    """One span per item of the generator fn returns."""

    def items(it):
        while True:
            i = tr.open(layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.close(i)
            tr.counts[counter] += 1
            yield item

    def wrapper(*args, **kwargs):
        return items(fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


def _replace_everywhere(orig, wrapper) -> None:
    """Rebind every module global and class attribute of the package that is orig."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, val in list(vars(owner).items()):
                if val is orig:
                    setattr(owner, attr, wrapper)


# ---------------------------------------------------------------------------
# counters read from arguments and results


def _strip(t: tuple) -> tuple:
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return t[:n]


def _is_integer(v) -> bool:
    """An int, an integral Fraction, or a RatFunc that is an integer constant."""
    if isinstance(v, (int, Fraction)):
        return v.denominator == 1
    return v.den == (1,) and len(v.num) <= 1


def install(tr: Tracer) -> None:
    """Wrap the layers' entry points in every module of the package."""
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("series", "partitions", "betti", "wreath", "presets_io", "cli",
                         "bruteforce", "linalg", "ratfunc", "koszul", "cherednik")}
    lid = {name: i for i, name in enumerate(LAYERS)}
    counts = tr.counts

    def bump(key):
        def count(args, kwargs, result):
            counts[key] += 1
        return count

    def emitted(args, kwargs, result):
        counts["presets_io.bytes_emitted"] += len(result)

    def window(args, kwargs, result):
        counts["koszul.window_columns"] += len(result)

    bf = mods["bruteforce"]

    def cap_use(args, kwargs, result):
        B, M = args[0], args[1]
        max_level = args[2] if len(args) > 2 else kwargs["max_level"]
        cap = args[3] if len(args) > 3 else kwargs.get("size_cap")
        cap = cap if cap is not None else bf.DEFAULT_SIZE_CAP
        dims = [B.dim ** k * M.dim for k in range(max_level + 2)]
        use = max(dims[k] * dims[k - 1] for k in range(1, max_level + 2)) / cap
        tr.cap_use_max = max(tr.cap_use_max, use)

    def insert_counter(raised):
        def count(args, kwargs, result):
            vec = args[1]
            counts["linalg.inserts"] += 1
            counts["linalg.nnz_in"] += len(vec)
            if raised(result):
                counts["linalg.rank_gains"] += 1
            if all(_is_integer(v) for v in vec.values()):
                counts["linalg.integral_inputs"] += 1
        return count

    ch = mods["cherednik"]
    tr.product_cache = getattr(ch, "_PRODUCT_CACHE", None)

    def cherednik_multiply(fn):
        # misses = growth of the product cache; hits = junction lookups - misses
        def wrapper(a, b):
            i = tr.open(lid["cherednik"])
            try:
                cache = tr.product_cache
                before = len(cache) if cache is not None else 0
                result = fn(a, b)
                misses = (len(cache) - before) if cache is not None else 0
                counts["cherednik.cache_misses"] += misses
                counts["cherednik.cache_hits"] += len(a.terms) * len(b.terms) - misses
                return result
            finally:
                tr.close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    rf = mods["ratfunc"]
    ratfunc_init = rf.RatFunc.__init__

    def ratfunc_new(self, num, den=(1,)):
        i = tr.open(lid["ratfunc"])
        try:
            num, den = tuple(num), tuple(den)
            ratfunc_init(self, num, den)
            counts["ratfunc.constructions"] += 1
            sden = _strip(den)
            if sum(1 for c in sden if c) == 1:
                counts["ratfunc.trivial_den"] += 1
            if (self.num, self.den) != (_strip(num), sden):
                counts["ratfunc.reduced"] += 1
        finally:
            tr.close(i)

    ratfunc_new.__wrapped__ = ratfunc_init

    plain = {
        "partitions": [mods["partitions"].Partition.multiplicities],
        "betti": [mods["betti"].BettiTable.add, mods["betti"].BettiTable.shift],
        "wreath": [getattr(mods["wreath"], n) for n in (
            "generating_series_sum", "generating_series_product", "closed_form",
            "gamma_series", "hilb_poincare", "deformation_parameter_count")],
        "presets_io": [mods["presets_io"].parse, mods["presets_io"].load_preset],
        "cli": [mods["cli"].main],
        "bruteforce": [getattr(bf, n) for n in (
            "verify_homolog_i", "homotopy_identity_check", "afls_check", "bar_apply",
            "tensor_power", "crossed_product")],
        "linalg": [mods["linalg"].TrackingEchelon.express, mods["linalg"].rank_of,
                   mods["linalg"].kernel_combos],
        "ratfunc": [getattr(rf.RatFunc, n) for n in (
            "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__")],
        "koszul": [getattr(mods["koszul"], n) for n in (
            "hh_cohomology_rank_one", "crossed_z2_cohomology", "duality_check",
            "build_cochain_complex")],
        "cherednik": [getattr(ch, n) for n in (
            "confluence_check", "pbw_dimension_check", "associativity_check",
            "spherical_check", "spherical_product", "spherical_idempotent",
            "crossed_weyl_normal_order")],
    }
    counted = [
        ("series", mods["series"].BiSeries.__mul__, bump("series.mul_calls")),
        ("series", mods["series"].BiSeries.apply_factor, bump("series.factor_calls")),
        ("betti", mods["betti"].BettiTable.tensor, bump("betti.tensor_calls")),
        ("betti", mods["betti"].super_sym_powers, bump("betti.sym_power_calls")),
        ("wreath", mods["wreath"].hh_cohomology_wreath, bump("wreath.table_calls")),
        ("wreath", mods["wreath"].hh_homology_wreath, bump("wreath.table_calls")),
        ("presets_io", mods["presets_io"].emit, emitted),
        ("bruteforce", bf.hh_dims, cap_use),
        ("linalg", mods["linalg"].Echelon.insert, insert_counter(lambda r: r is True)),
        ("linalg", mods["linalg"].TrackingEchelon.insert, insert_counter(lambda r: r is None)),
        ("koszul", mods["koszul"].multiply, bump("koszul.multiply_calls")),
        ("koszul", mods["koszul"].window_keys, window),
        ("cherednik", ch.normal_order, bump("cherednik.normal_order_calls")),
    ]

    for layer, fns in plain.items():
        for fn in fns:
            _replace_everywhere(fn, _wrap_call(tr, lid[layer], fn))
    for layer, fn, count in counted:
        _replace_everywhere(fn, _wrap_call(tr, lid[layer], fn, count))
    _replace_everywhere(mods["partitions"].partitions,
                        _wrap_generator(tr, lid["partitions"], mods["partitions"].partitions,
                                        "partitions.yielded"))
    _replace_everywhere(bf.bar_columns,
                        _wrap_generator(tr, lid["bruteforce"], bf.bar_columns,
                                        "bruteforce.columns"))
    _replace_everywhere(ch.multiply, cherednik_multiply(ch.multiply))
    _replace_everywhere(ratfunc_init, ratfunc_new)

