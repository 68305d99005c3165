import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_hochschild import betti, cli, series, wreath
from wreath_hochschild.betti import AlgebraPreset, BettiTable, super_sym_powers
from wreath_hochschild.partitions import count_by_length, partitions
from wreath_hochschild.series import BiSeries
from wreath_hochschild.wreath import (
    CLOSED_FORM_PRESETS,
    PRESETS,
    closed_form,
    deformation_parameter_count,
    gamma_preset,
    gamma_series,
    generating_series_product,
    generating_series_sum,
    hh_cohomology_wreath,
    hh_homology_wreath,
    hilb_poincare,
    surface_preset,
)


def test_preset_catalog():
    assert PRESETS["weyl"].betti == {0: 1}
    assert PRESETS["trig"].betti == {0: 1, 1: 1}
    assert PRESETS["qweyl"].betti == {0: 1, 1: 2, 2: 1}
    assert PRESETS["z2_weyl"].betti == {0: 1, 2: 1}
    assert PRESETS["z2_trig"].betti == {0: 1, 2: 2}
    assert PRESETS["z2_qweyl"].betti == {0: 1, 2: 5}
    assert all(p.d == 2 for p in PRESETS.values())
    assert gamma_preset(4).betti == {0: 1, 2: 3}
    assert gamma_preset(1).betti == {0: 1}
    assert surface_preset(1, 0, 1).betti == {0: 1, 2: 1}


def test_preset_validation():
    for bad in (lambda: AlgebraPreset("x", 3, BettiTable({0: 1})),
                lambda: AlgebraPreset("x", 2, BettiTable({3: 1})),
                lambda: gamma_preset(0),
                lambda: AlgebraPreset("x", 2.0, BettiTable({0: 1})),
                lambda: AlgebraPreset("x", True, BettiTable({0: 1})),
                lambda: gamma_preset(True),
                lambda: gamma_preset(2.5)):
        try:
            bad()
        except ValueError:
            pass
        else:
            assert False


def test_support_beyond_the_duality_dimension_has_one_message():
    for bad in (lambda: AlgebraPreset("x", 2, BettiTable({3: 1})),
                lambda: AlgebraPreset("x", 4, {0: 1, 6: 1}),
                lambda: hilb_poincare(BettiTable({3: 1}), 2),
                lambda: hh_cohomology_wreath(BettiTable({4: 1}), 2, 2)):
        with pytest.raises(ValueError, match="^table support exceeds the duality dimension$"):
            bad()


def test_the_table_is_checked_before_n():
    # a table and an n both bad: the table is named, by either entry point
    for bad in (lambda: hilb_poincare(BettiTable({3: 1}), "2"),
                lambda: deformation_parameter_count(BettiTable({3: 1}), 2, "2")):
        with pytest.raises(ValueError, match="^table support exceeds the duality dimension$"):
            bad()


@pytest.mark.parametrize("table", [{0: 1}, [1, 2, 1]], ids=["dict", "list"])
@pytest.mark.parametrize("call", [
    lambda t: generating_series_product(t, 2, 3),
    lambda t: generating_series_sum(t, 2, 3),
    lambda t: hh_cohomology_wreath(t, 2, 3),
    lambda t: hh_homology_wreath(t, 3),
    lambda t: hilb_poincare(t, 3),
    lambda t: deformation_parameter_count(t, 2, 3),
], ids=["product", "sum", "cohomology", "homology", "hilb", "deform"])
def test_table_entry_points_refuse_a_table_that_is_not_a_betti_table(call, table):
    message = f"table must be a BettiTable, got {type(table).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(table)


def test_homology_wreath_examples():
    assert hh_homology_wreath(BettiTable({0: 1}), 3) == {0: 3}
    hom = BettiTable({0: 1, 1: 2, 2: 1})
    assert hh_homology_wreath(hom, 1) == hom
    assert hh_homology_wreath(hom, 0) == {0: 1}
    assert hh_homology_wreath(BettiTable({}), 4) == {}


def test_cohomology_wreath_examples():
    assert hh_cohomology_wreath(BettiTable({0: 1}), 2, 2) == {0: 1, 2: 1}
    assert hh_cohomology_wreath(BettiTable({0: 1, 2: 1}), 2, 2) == {0: 1, 2: 2, 4: 2}
    assert hh_cohomology_wreath(BettiTable({0: 1, 1: 2, 2: 1}), 2, 2) == {
        0: 1, 1: 2, 2: 3, 3: 4, 4: 2,
    }
    coh = BettiTable({0: 1, 1: 1})
    assert hh_cohomology_wreath(coh, 2, 1) == coh
    assert hh_cohomology_wreath(coh, 2, 0) == {0: 1}


def test_cohomology_wreath_support_bound():
    rng = random.Random(2)
    for _ in range(10):
        d = rng.choice([2, 4])
        coh = BettiTable({k: rng.randrange(3) for k in range(d + 1)})
        n = rng.randrange(5)
        assert hh_cohomology_wreath(coh, d, n).max_degree <= n * d


def test_validation_errors():
    ok = BettiTable({0: 1})
    for bad in (lambda: hh_cohomology_wreath(ok, 3, 2),
                lambda: hh_cohomology_wreath(BettiTable({4: 1}), 2, 2),
                lambda: hh_cohomology_wreath(ok, 2, -1),
                lambda: hh_homology_wreath(ok, -2),
                lambda: closed_form("nope", 3),
                lambda: gamma_series(0, 3),
                lambda: hilb_poincare(BettiTable({3: 1}), 2),
                lambda: hh_cohomology_wreath(ok, 2.0, 3),
                lambda: generating_series_product(ok, 2.0, 3),
                lambda: generating_series_sum(ok, 2.0, 3),
                lambda: gamma_series(True, 3),
                lambda: gamma_series(2.5, 3)):
        try:
            bad()
        except ValueError:
            pass
        else:
            assert False


def test_product_equals_sum_on_presets():
    for preset in PRESETS.values():
        p = generating_series_product(preset.betti, preset.d, 5)
        s = generating_series_sum(preset.betti, preset.d, 5)
        assert p == s, preset.name


def test_product_equals_sum_random_tables():
    rng = random.Random(23)
    for _ in range(12):
        d = rng.choice([2, 4])
        coh = BettiTable({k: rng.randrange(3) for k in range(d + 1)})
        p = generating_series_product(coh, d, 4)
        s = generating_series_sum(coh, d, 4)
        assert p == s


def test_closed_form_expansions():
    pa = closed_form("PA", 3)
    assert pa.q_coefficient(3) == {0: 1, 2: 1, 4: 1}
    paq = closed_form("PA_q", 2)
    assert paq.q_coefficient(2) == {0: 1, 1: 2, 2: 3, 3: 4, 4: 2}


def test_closed_forms_match_preset_products():
    for label, name in CLOSED_FORM_PRESETS.items():
        preset = PRESETS[name]
        cf = closed_form(label, 5)
        pr = generating_series_product(preset.betti, preset.d, 5)
        assert cf == pr, label


def test_series_low_order_rows():
    for preset in PRESETS.values():
        s = generating_series_sum(preset.betti, preset.d, 3)
        assert s.q_coefficient(0) == {0: 1}
        assert s.q_coefficient(1) == preset.betti.dims()


def test_gamma_series():
    assert gamma_series(1, 5) == closed_form("PA", 5)
    assert gamma_series(2, 5) == closed_form("PB", 5)
    g3 = gamma_series(3, 4)
    pr = generating_series_product(BettiTable({0: 1, 2: 2}), 2, 4)
    assert g3 == pr


def test_duality_reversal():
    # cohomology table reversed about degree n*d = homology of the
    # reversed input table
    rng = random.Random(31)
    for _ in range(10):
        d = rng.choice([2, 4])
        n = rng.randrange(1, 5)
        coh = BettiTable({k: rng.randrange(3) for k in range(d + 1)})
        dual = BettiTable({d - k: v for k, v in coh.dims().items()})
        cw = hh_cohomology_wreath(coh, d, n)
        hw = hh_homology_wreath(dual, n)
        reversed_cw = BettiTable({n * d - k: v for k, v in cw.dims().items()})
        assert reversed_cw == hw


def test_hilb_poincare():
    assert hilb_poincare(BettiTable({0: 1}), 3) == {0: 1, 2: 1, 4: 1}
    assert hilb_poincare(BettiTable({0: 1}), 1) == {0: 1}
    assert hilb_poincare(BettiTable({0: 1, 2: 1}), 2) == {0: 1, 2: 2, 4: 2}


def test_hilb_partition_statistic():
    # coefficient of t^{2(n-l)} in the n-th polynomial counts partitions
    # of n with l parts
    for n in range(1, 9):
        table = hilb_poincare(BettiTable({0: 1}), n).dims()
        by_length = count_by_length(n)
        expected = {2 * (n - l): c for l, c in by_length.items()}
        assert table == expected


def test_deformation_counts():
    assert deformation_parameter_count(BettiTable({0: 1}), 2, 2) == 1
    assert deformation_parameter_count(BettiTable({0: 1, 1: 1}), 2, 2) == 1
    assert deformation_parameter_count(BettiTable({0: 1, 1: 2, 2: 1}), 2, 2) == 3
    assert deformation_parameter_count(BettiTable({0: 1, 2: 5}), 2, 2) == 6
    assert deformation_parameter_count(BettiTable({0: 1}), 4, 2) == 0
    # stable in n
    for n in range(2, 6):
        assert deformation_parameter_count(BettiTable({0: 1, 1: 2, 2: 1}), 2, n) == 3


def test_deformation_count_closed_form():
    # degree-2 entry = b2 + C(b1,2) + 1 when d=2 (the +1 drops for d>2)
    rng = random.Random(41)
    for _ in range(10):
        b1, b2 = rng.randrange(4), rng.randrange(4)
        coh = BettiTable({0: 1, 1: b1, 2: b2})
        got = deformation_parameter_count(coh, 2, 3)
        assert got == b2 + b1 * (b1 - 1) // 2 + 1


def test_deformation_count_validation():
    for bad in (lambda: deformation_parameter_count(BettiTable({0: 2}), 2, 2),
                lambda: deformation_parameter_count(BettiTable({0: 1}), 2, 1)):
        try:
            bad()
        except ValueError:
            pass
        else:
            assert False


def test_series_default_t_bound():
    s = generating_series_sum(BettiTable({0: 1, 2: 1}), 2, 3)
    assert isinstance(s, BiSeries)
    assert s.t_bound == 6
    s4 = generating_series_product(BettiTable({0: 1, 4: 1}), 4, 2)
    assert s4.t_bound == 8


def reference_partition_sum(table, shift, n):
    # the literal definition: one tensor product per partition of n
    total = BettiTable({})
    for lam in partitions(n):
        term = BettiTable({0: 1})
        for i, mult in lam.multiplicities().items():
            term = term.tensor(super_sym_powers(table.shift(shift * (i - 1)), mult)[mult])
        total = total.add(term)
    return total


def test_partition_walk_matches_literal_sum():
    rng = random.Random(53)
    for d in (2, 4, 6):
        for _ in range(2):
            table = BettiTable({k: rng.randrange(3) for k in range(d + 1)})
            for shift in (0, d):
                # powers built once for the largest n serve every smaller n
                shared = wreath._sym_power_terms(table, shift, 14)
                for n in range(15):
                    want = reference_partition_sum(table, shift, n)
                    own = wreath._partition_sum(wreath._sym_power_terms(table, shift, n), n)
                    assert own == want, (table, shift, n)
                    assert wreath._partition_sum(shared, n) == want, (table, shift, n)
            assert hh_homology_wreath(table, 9) == reference_partition_sum(table, 0, 9)
            assert hh_cohomology_wreath(table, d, 9) == reference_partition_sum(table, d, 9)


def coloured_partition_counts(colours, top):
    # p_M(n) for n <= top: prod_m (1 - q^m)^(-M), one Euler pass per colour
    counts = [1] + [0] * top
    for m in range(1, top + 1):
        for _ in range(colours):
            for k in range(m, top + 1):
                counts[k] += counts[k - m]
    return counts


def test_coloured_partition_counts_by_enumeration():
    # p_M(n) = sum over partitions of prod_i C(M + p_i - 1, p_i)
    for colours in range(1, 6):
        counts = coloured_partition_counts(colours, 10)
        for n in range(11):
            assert counts[n] == sum(
                math.prod(math.comb(colours + p - 1, p) for p in lam.multiplicities().values())
                for lam in partitions(n))


def test_slot_bound_is_met_with_equality():
    # {0: M} sums to p_M(n) in its one slot, so a narrower slot carries over
    for colours in range(1, 6):
        counts = coloured_partition_counts(colours, 40)
        for n in range(41):
            assert hh_homology_wreath(BettiTable({0: colours}), n) == {0: counts[n]}


def test_odd_only_tables():
    # S^p of an odd space of dimension m vanishes for p > m, so most
    # products on the walk are zero; {1: 1} leaves the partitions into
    # distinct parts, counted by their number of parts
    for n in range(13):
        by_length = {}
        for lam in partitions(n):
            if len(set(lam)) == len(lam):
                by_length[len(lam)] = by_length.get(len(lam), 0) + 1
        assert hh_homology_wreath(BettiTable({1: 1}), n) == by_length
    for table, d in ((BettiTable({1: 1}), 2), (BettiTable({1: 3}), 2), (BettiTable({3: 2}), 4)):
        for n in range(11):
            assert hh_homology_wreath(table, n) == reference_partition_sum(table, 0, n)
            assert hh_cohomology_wreath(table, d, n) == reference_partition_sum(table, d, n)


def test_empty_table_and_smallest_n():
    empty = BettiTable({})
    for n in range(6):
        want = {0: 1} if n == 0 else {}
        assert hh_homology_wreath(empty, n) == want
        assert hh_cohomology_wreath(empty, 2, n) == want
    table = BettiTable({0: 2, 1: 3, 4: 1})
    for shift in (0, 4):
        assert wreath._partition_sum(wreath._sym_power_terms(table, shift, 0), 0) == {0: 1}
        assert wreath._partition_sum(wreath._sym_power_terms(table, shift, 1), 1) == table
    assert generating_series_sum(empty, 2, 3) == generating_series_product(empty, 2, 3)


def test_partition_walk_equals_the_product_slice_at_n_40():
    for preset in [*PRESETS.values(), gamma_preset(4)]:
        slice40 = generating_series_product(preset.betti, preset.d, 40, 40 * preset.d)
        assert hh_cohomology_wreath(preset.betti, preset.d, 40) == BettiTable(
            slice40.q_coefficient(40)), preset.name


def test_partition_route_uses_no_product_code(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the partition sum reached product-route code")

    for name in ("__mul__", "apply_factor"):
        monkeypatch.setattr(BiSeries, name, forbidden)
    for name in ("_euler_product", "_apply_factor_rows", "_unpack_rows"):
        monkeypatch.setattr(series, name, forbidden)
    for name in ("_euler_product", "generating_series_product"):
        monkeypatch.setattr(wreath, name, forbidden)
    qweyl = PRESETS["qweyl"]
    assert hh_cohomology_wreath(qweyl.betti, 2, 6)[2] == 3
    assert generating_series_sum(qweyl.betti, 2, 4).get(1, 1) == 2


_TABLE_COMMANDS = (
    ["series", "--preset", "qweyl", "--max-q", "6"],
    ["betti", "--preset", "z2_qweyl", "-n", "6"],
    ["hilb", "--betti", "1,2,1", "-n", "6"],
    ["deform", "--preset", "qweyl", "-n", "6"],
)


def _cli_out(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), argv
    return out


def test_product_route_uses_no_partition_code(monkeypatch, capsys):
    qweyl = PRESETS["qweyl"]
    walk = generating_series_sum(qweyl.betti, 2, 6)
    gamma_walk = generating_series_sum(gamma_preset(4).betti, 2, 6)
    outputs = [(argv, _cli_out(capsys, argv)) for argv in _TABLE_COMMANDS]

    def forbidden(*args, **kwargs):
        raise AssertionError("the product route reached partition-sum code")

    for name in ("_partition_sum", "_sym_power_terms", "_packed_sym_powers"):
        monkeypatch.setattr(wreath, name, forbidden)
    for name in ("super_sym_powers", "_packed_sym_powers"):
        monkeypatch.setattr(betti, name, forbidden)
    # wreath binds no super_sym_powers of its own; one that it gains is forbidden too
    monkeypatch.setattr(wreath, "super_sym_powers", forbidden, raising=False)
    assert generating_series_product(qweyl.betti, 2, 6) == walk
    assert closed_form("PA_q", 6) == walk
    assert gamma_series(4, 6) == gamma_walk
    for argv, out in outputs:
        assert _cli_out(capsys, argv) == out, argv


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def tables_with_d(draw, top=3):
    d = draw(st.sampled_from((2, 4, 6)))
    dims = draw(st.lists(st.integers(0, top), min_size=d + 1, max_size=d + 1))
    return BettiTable(dict(enumerate(dims))), d


@PROPERTY
@given(tables_with_d())
def test_product_equals_partition_sum_property(table_d):
    table, d = table_d
    assert generating_series_product(table, d, 5) == generating_series_sum(table, d, 5)


@PROPERTY
@given(tables_with_d(top=9), st.booleans(), st.integers(0, 10))
def test_partition_walk_matches_literal_sum_property(table_d, shifted, n):
    table, d = table_d
    shift = d if shifted else 0
    own = wreath._partition_sum(wreath._sym_power_terms(table, shift, n), n)
    assert own == reference_partition_sum(table, shift, n)


@pytest.mark.parametrize("n", [1.5, 2.0, True, "3"], ids=["1.5", "2.0", "True", "str"])
@pytest.mark.parametrize("route, kind", [
    (lambda n: hh_homology_wreath(PRESETS["qweyl"].betti, n), "a nonnegative int"),
    (lambda n: hh_cohomology_wreath(PRESETS["qweyl"].betti, 2, n), "a nonnegative int"),
    (lambda n: hilb_poincare(BettiTable({0: 1}), n), "a nonnegative int"),
    (lambda n: deformation_parameter_count(PRESETS["qweyl"].betti, 2, n), "an int >= 2"),
], ids=["homology", "cohomology", "hilb", "deform"])
def test_walk_routes_refuse_an_n_that_is_not_an_int(route, kind, n):
    message = f"n must be {kind}, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        route(n)


def test_library_tables_read_the_product_not_the_walk(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a library table reached the partition walk")

    monkeypatch.setattr(wreath, "_partition_sum", forbidden)
    assert hilb_poincare(BettiTable({0: 1}), 6) == {0: 1, 2: 1, 4: 2, 6: 3, 8: 3, 10: 1}
    assert deformation_parameter_count(PRESETS["qweyl"].betti, 2, 6) == 3
