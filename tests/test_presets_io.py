import copy
import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_hochschild.betti import AlgebraPreset, BettiTable
from wreath_hochschild.presets_io import CheckReport, emit, load_preset, parse
from wreath_hochschild.series import BiSeries
from wreath_hochschild.wreath import closed_form


def test_load_catalog_presets():
    p = load_preset("qweyl")
    assert p.d == 2 and p.betti == {0: 1, 1: 2, 2: 1}
    assert load_preset("z2_qweyl").betti == {0: 1, 2: 5}


def test_load_gamma():
    p = load_preset("gamma:4")
    assert p.d == 2 and p.betti == {0: 1, 2: 3}
    assert load_preset("gamma:1").betti == {0: 1}


def test_load_json_string():
    p = load_preset('{"name": "user", "d": 4, "betti": [1, 0, 2]}')
    assert p.name == "user" and p.d == 4
    assert p.betti == {0: 1, 2: 2}


def test_load_json_file(tmp_path):
    path = tmp_path / "preset.json"
    path.write_text(json.dumps({"name": "f", "d": 2, "betti": [1, 1]}))
    p = load_preset(str(path))
    assert p.betti == {0: 1, 1: 1}


def test_load_rejects_bad_input():
    bad = [
        "no_such_preset",
        "gamma:x",
        "gamma:0",
        # nu is written as emit writes an int, str(int(s)) == s
        "gamma:1_0",
        "gamma:+3",
        "gamma: 3",
        "gamma:03",
        "gamma:3 ",
        '{"name": "u", "d": 3, "betti": [1]}',      # odd d
        '{"name": "u", "d": 2, "betti": [1, 0, 0, 7]}',  # support beyond d
        '{"name": "u", "d": 2, "betti": [1, -1]}',  # negative dim
        '{"name": "u", "d": 2}',                    # missing key
        '{"name": "u", "d": 2, "betti": "xy"}',
        '{"name": "u", "d": 2.9, "betti": [1, 0, 1]}',  # d not an integer
        '{"name": "u", "d": "2", "betti": [1, 0, 1]}',
        '{"name": "u", "d": 2, "betti": [true, false, true]}',  # bools
    ]
    for name in bad:
        try:
            load_preset(name)
        except ValueError:
            pass
        else:
            assert False, name


def test_series_csv_rows():
    pa = closed_form("PA", 3, 4)
    got = emit(pa, "csv").decode().splitlines()
    assert got[0] == "n,i,dim"
    assert got[1:] == ["0,0,1", "1,0,1", "2,0,1", "2,2,1", "3,0,1", "3,2,1", "3,4,1"]


def test_empty_table_csv_has_header_only():
    assert emit(BettiTable({}), "csv") == b"degree,dim\n"


def test_json_roundtrips():
    series = closed_form("PA_q", 3)
    table = BettiTable({0: 1, 2: 2, 5: 1})
    report = CheckReport("suite", True, ("a", "b"))
    for value in (series, table, report):
        assert parse(emit(value, "json")) == value


def test_csv_roundtrip_terms():
    series = closed_form("PB", 4, 8)
    back = parse(emit(series, "csv"))
    assert isinstance(back, BiSeries)
    assert list(back.terms()) == list(series.terms())
    table = BettiTable({1: 2, 4: 3})
    assert parse(emit(table, "csv")) == table


def test_csv_series_bounds_are_the_largest_degrees_present():
    # csv carries terms only, and no term of PA up to q^3 reaches t^5 or t^6
    series = closed_form("PA", 3)
    assert (series.q_bound, series.t_bound) == (3, 6)
    back = parse(emit(series, "csv"))
    assert list(back.terms()) == list(series.terms())
    assert (back.q_bound, back.t_bound) == (3, 4)
    assert back != series
    assert parse(emit(back, "csv")) == back


@pytest.mark.parametrize("payload, message", [
    ({"schema": "wreath-hochschild/table-v1", "dims": {"0": 1.5}},
     "dimension must be a nonnegative int, got 1.5"),
    ({"schema": "wreath-hochschild/table-v1", "dims": {"0": True}},
     "dimension must be a nonnegative int, got True"),
    ({"schema": "wreath-hochschild/series-v1", "q_bound": 1, "t_bound": 1,
      "terms": [[1, 1, 2.9]]}, "term (1, 1, 2.9) is not integral"),
    ({"schema": "wreath-hochschild/series-v1", "q_bound": 1, "t_bound": 1,
      "terms": [[1, 1, True]]}, "term (1, 1, True) is not integral"),
    ({"schema": "wreath-hochschild/series-v1", "q_bound": 1.5, "t_bound": 1, "terms": []},
     "q_bound must be a nonnegative int, got 1.5"),
], ids=["dim 1.5", "dim true", "term 2.9", "term true", "bound 1.5"])
def test_parse_refuses_non_int_values(payload, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse(json.dumps(payload).encode())


@pytest.mark.parametrize("payload, key", [
    ({"schema": "wreath-hochschild/table-v1"}, "dims"),
    ({"schema": "wreath-hochschild/series-v1", "q_bound": 1, "terms": []}, "t_bound"),
    ({"schema": "wreath-hochschild/report-v1", "name": "x", "passed": True}, "lines"),
])
def test_parse_missing_key_is_a_value_error(payload, key):
    with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
        parse(json.dumps(payload).encode())


_SERIES = {"schema": "wreath-hochschild/series-v1", "q_bound": 1, "t_bound": 1}
_REPORT = {"schema": "wreath-hochschild/report-v1", "name": "x", "passed": True, "lines": []}


@pytest.mark.parametrize("payload", [
    dict(_SERIES, terms=5),
    dict(_SERIES, terms=[5]),
    {"schema": "wreath-hochschild/table-v1", "dims": [1, 2]},
    dict(_REPORT, passed="no"),
    dict(_REPORT, lines="ab"),
    dict(_REPORT, name=5),
], ids=["terms 5", "terms [5]", "dims list", "passed no", "lines ab", "name 5"])
def test_parse_refuses_malformed_payloads_with_value_error(payload):
    with pytest.raises(ValueError):
        parse(json.dumps(payload).encode())


@pytest.mark.parametrize("name, passed", [("x", "no"), ("x", 1), (5, True)])
def test_check_report_refuses_a_non_bool_flag_and_a_non_str_name(name, passed):
    with pytest.raises(ValueError):
        CheckReport(name, passed)


def test_emit_deterministic():
    series = closed_form("PB_trig", 4)
    assert emit(series, "json") == emit(series, "json")
    assert emit(series, "csv") == emit(series, "csv")


def test_plain_format():
    text = emit(closed_form("PA", 2), "plain").decode()
    assert "q^2: 1 + t^2" in text
    table = emit(BettiTable({0: 1, 2: 2}), "plain").decode()
    assert table.strip() == "1 + 2*t^2"


def test_plain_format_signs_units_and_zero():
    s = BiSeries.from_terms(2, 3, [(0, 0, -1), (0, 1, 1), (0, 2, -2), (2, 3, -1)])
    assert emit(s, "plain") == (b"series truncated at q^2, t^3\n"
                                b"q^0: -1 + t - 2*t^2\nq^1: 0\nq^2: -t^3\n")
    s = BiSeries.one(1, 2).apply_factor(-1, 1, 1, 2)
    assert emit(s, "plain") == b"series truncated at q^1, t^2\nq^0: 1\nq^1: -2*t\n"
    assert emit(BettiTable({}), "plain") == b"0\n"
    assert emit(BettiTable({1: 1, 3: 1, 4: 5}), "plain") == b"t + t^3 + 5*t^4\n"


def test_emit_rejects_unknown():
    try:
        emit(BettiTable({}), "xml")
    except ValueError:
        pass
    else:
        assert False
    try:
        emit(42, "json")
    except TypeError:
        pass
    else:
        assert False


def test_a_report_has_no_csv_format():
    # a name and lines are free text: csv wrote "x, y,1" for the name "x, y",
    # dropped the lines, and parse could not read it back
    report = CheckReport("x, y", True, ("[pass] one line",))
    with pytest.raises(ValueError, match=r"^a CheckReport has no csv format: emit it as json or plain$"):
        emit(report, "csv")
    assert parse(emit(report, "json")) == report
    assert emit(report, "plain") == b"PASS x, y\n  [pass] one line\n"


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def series(draw):
    qb, tb = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    terms = draw(st.lists(st.tuples(st.integers(0, qb), st.integers(0, tb),
                                    st.integers(-50, 50)), max_size=12))
    return BiSeries.from_terms(qb, tb, terms)


tables = st.dictionaries(st.integers(0, 12), st.integers(0, 40), max_size=6).map(BettiTable)
reports = st.builds(CheckReport, st.text(max_size=12), st.booleans(),
                    st.lists(st.text(max_size=20), max_size=4).map(tuple))


@PROPERTY
@given(st.one_of(series(), tables, reports))
def test_json_round_trip_property(value):
    assert parse(emit(value, "json")) == value


@PROPERTY
@given(tables)
def test_csv_table_round_trip_property(table):
    assert parse(emit(table, "csv")) == table


@PROPERTY
@given(series())
def test_csv_series_round_trip_up_to_bounds_property(s):
    back = parse(emit(s, "csv"))
    terms = list(s.terms())
    assert list(back.terms()) == terms
    assert back.q_bound == max((n for n, _, _ in terms), default=0)
    assert back.t_bound == max((i for _, i, _ in terms), default=0)
    assert emit(back, "csv") == emit(s, "csv")


@pytest.mark.parametrize("payload", [
    b"degree,dim\n1,2\n1,3",
    b"n,i,dim\n1,0,2\n1,0,3",
    b'{"schema": "wreath-hochschild/series-v1", "q_bound": 1, "t_bound": 1,'
    b' "terms": [[1, 0, 2], [1, 0, 3]]}',
    b'{"schema": "wreath-hochschild/table-v1", "dims": {"1": 2, "1": 3}}',
], ids=["csv table", "csv series", "json series", "json key"])
def test_parse_refuses_a_degree_or_term_named_twice(payload):
    with pytest.raises(ValueError, match="twice"):
        parse(payload)


_TABLE = b'{"schema": "wreath-hochschild/table-v1", "dims": {"%s": 1}}'


@pytest.mark.parametrize("payload", [
    _TABLE % b"1_0", b"degree,dim\n1_0,3", b"n,i,dim\n1,2_0,1",
    _TABLE % b"+2", b"degree,dim\n+2,3", b"n,i,dim\n1,1,+2",
    _TABLE % b" 1", b"degree,dim\n 1,3", b"degree,dim\n1,3 ",
    _TABLE % b"01", b"degree,dim\n01,3", b"n,i,dim\n1,0,-01",
    b"degree,dim\n-0,3",
], ids=["json 1_0", "csv table 1_0", "csv series 2_0",
        "json +2", "csv table +2", "csv series +2",
        "json space", "csv leading space", "csv trailing space",
        "json 01", "csv table 01", "csv series -01",
        "csv -0"])
def test_parse_reads_integers_only_as_emit_writes_them(payload):
    with pytest.raises(ValueError, match="is not an integer as emit writes one"):
        parse(payload)


RECORDS = [
    (AlgebraPreset, ("name", "d", "betti"), ("weyl", 2, BettiTable({0: 1})),
     "AlgebraPreset(name='weyl', d=2, betti=BettiTable({0: 1}))"),
    (CheckReport, ("name", "passed", "lines"), ("suite", True, ("a", "b")),
     "CheckReport(name='suite', passed=True, lines=('a', 'b'))"),
]


@pytest.mark.parametrize("cls, fields, values, text", RECORDS,
                         ids=["AlgebraPreset", "CheckReport"])
def test_records_are_frozen_values(cls, fields, values, text):
    record = cls(*values)
    assert repr(record) == text
    twin = cls(*values)
    assert record == twin and hash(record) == hash(twin) and record is not twin
    assert record != cls("other", *values[1:])
    assert record != values  # equal only to a record of the same class
    assert cls(**dict(zip(fields, values))) == record
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(back) is cls and back == record and repr(back) == text


def test_record_constructors_coerce_and_default_as_before():
    preset = AlgebraPreset(name="weyl", d=2, betti={0: 1, 2: 1})
    assert preset.betti == BettiTable({0: 1, 2: 1}) and isinstance(preset.betti, BettiTable)
    with pytest.raises(ValueError, match="table support exceeds the duality dimension"):
        AlgebraPreset("big", 2, {4: 1})
    assert CheckReport(name="x", passed=False).lines == ()
    assert CheckReport("x", True, ["a", 1]).lines == ("a", "1")
