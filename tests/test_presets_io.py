import json

from wreath_hochschild.betti import BettiTable
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
        '{"name": "u", "d": 3, "betti": [1]}',      # odd d
        '{"name": "u", "d": 2, "betti": [1, 0, 0, 7]}',  # support beyond d
        '{"name": "u", "d": 2, "betti": [1, -1]}',  # negative dim
        '{"name": "u", "d": 2}',                    # missing key
        '{"name": "u", "d": 2, "betti": "xy"}',
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


def test_emit_deterministic():
    series = closed_form("PB_trig", 4)
    assert emit(series, "json") == emit(series, "json")
    assert emit(series, "csv") == emit(series, "csv")


def test_plain_format():
    text = emit(closed_form("PA", 2), "plain").decode()
    assert "q^2: 1 + t^2" in text
    table = emit(BettiTable({0: 1, 2: 2}), "plain").decode()
    assert table.strip() == "1 + 2*t^2"


def test_report_emit():
    rep = CheckReport.combine("all", [
        CheckReport("one", True, ("detail",)),
        CheckReport("two", False),
    ])
    assert not rep.passed
    plain = emit(rep, "plain").decode()
    assert plain.startswith("FAIL all")
    assert "[pass] one" in plain and "[FAIL] two" in plain
    ok = CheckReport.combine("all", [CheckReport("one", True)])
    assert emit(ok, "plain").decode().startswith("PASS all")


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
