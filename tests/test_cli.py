from pathlib import Path

import pytest

from wreath_hochschild import cli
from wreath_hochschild.betti import BettiTable
from wreath_hochschild.bruteforce import SizeCapExceeded
from wreath_hochschild.presets_io import CheckReport, load_preset, parse
from wreath_hochschild.series import BiSeries
from wreath_hochschild.wreath import generating_series_product


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_series_plain(capsys):
    code, out, _ = run(capsys, "series", "--preset", "weyl", "--group", "A",
                       "--max-q", "3", "--max-t", "6")
    assert code == 0
    assert out.splitlines() == [
        "series truncated at q^3, t^6",
        "q^0: 1",
        "q^1: 1",
        "q^2: 1 + t^2",
        "q^3: 1 + t^2 + t^4",
    ]


def test_series_group_b_is_z2_companion(capsys):
    code, out, _ = run(capsys, "series", "--preset", "weyl", "--group", "B",
                       "--max-q", "4")
    assert code == 0
    code2, out2, _ = run(capsys, "series", "--preset", "z2_weyl", "--max-q", "4")
    assert code2 == 0
    assert out == out2


def test_series_group_b_needs_companion(capsys):
    code, _, err = run(capsys, "series", "--preset", "z2_weyl", "--group", "B")
    assert code == 2
    assert "error:" in err


def test_series_json_roundtrip(capsys):
    code, out, _ = run(capsys, "series", "--preset", "trig", "--max-q", "3",
                       "--format", "json")
    assert code == 0
    preset = load_preset("trig")
    assert parse(out.encode()) == generating_series_product(preset.betti, preset.d, 3)


def test_betti_table(capsys):
    code, out, _ = run(capsys, "betti", "--preset", "trig", "-n", "2")
    assert code == 0
    assert out.strip() == "1 + t + t^2 + t^3"


def test_hilb_polynomial(capsys):
    code, out, _ = run(capsys, "hilb", "--betti", "1,0,0", "-n", "3")
    assert code == 0
    assert out.strip() == "1 + t^2 + t^4"
    code, _, err = run(capsys, "hilb", "--betti", "1,zero", "-n", "2")
    assert code == 2
    assert "comma-separated" in err


def test_deform_count(capsys):
    code, out, _ = run(capsys, "deform", "--preset", "qweyl", "-n", "2")
    assert code == 0
    assert out.strip() == "3"


def test_cherednik_reduce(capsys):
    code, out, _ = run(capsys, "cherednik", "reduce", "-n", "2", "p1 x1")
    assert code == 0
    assert out.strip() == "x1 p1 - 1 + k s12"
    code, _, err = run(capsys, "cherednik", "reduce", "-n", "2", "p3 x1")
    assert code == 2
    assert "out of range" in err


def test_unknown_preset(capsys):
    code, _, err = run(capsys, "betti", "--preset", "nope", "-n", "2")
    assert code == 2
    assert "error:" in err


def test_size_caps_refuse_before_any_work(monkeypatch, capsys):
    calls = []

    def stub(result):
        return lambda *args: calls.append(args) or result

    monkeypatch.setattr(cli, "hh_cohomology_wreath", stub(BettiTable({0: 1})))
    monkeypatch.setattr(cli, "hilb_poincare", stub(BettiTable({0: 1})))
    monkeypatch.setattr(cli, "deformation_parameter_count", stub(1))
    monkeypatch.setattr(cli, "generating_series_product", stub(BiSeries.one(1, 1)))
    n_cap, q_cap, t_cap = cli.MAX_WREATH_N, cli.MAX_SERIES_Q, cli.MAX_SERIES_T
    over = [
        (("betti", "--preset", "qweyl", "-n", str(n_cap + 1)),
         f"-n {n_cap + 1} is above the cap of {n_cap}"),
        (("hilb", "--betti", "1,0,0", "-n", str(n_cap + 1)),
         f"-n {n_cap + 1} is above the cap of {n_cap}"),
        (("deform", "--preset", "qweyl", "-n", str(n_cap + 1)),
         f"-n {n_cap + 1} is above the cap of {n_cap}"),
        (("series", "--preset", "weyl", "--max-q", str(q_cap + 1), "--max-t", "2"),
         f"--max-q {q_cap + 1} is above the cap of {q_cap}"),
        (("series", "--preset", "weyl", "--max-q", "2", "--max-t", str(t_cap + 1)),
         f"t bound {t_cap + 1} (--max-t, default d * max-q) is above the cap of {t_cap}"),
        # the default t bound is d * max-q
        (("series", "--preset", '{"name": "x", "d": 4, "betti": [1]}',
          "--max-q", str(t_cap // 4 + 1)),
         f"t bound {4 * (t_cap // 4 + 1)} (--max-t, default d * max-q) "
         f"is above the cap of {t_cap}"),
    ]
    for argv, message in over:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    assert calls == []
    at_cap = [
        ("betti", "--preset", "qweyl", "-n", str(n_cap)),
        ("hilb", "--betti", "1,0,0", "-n", str(n_cap)),
        ("deform", "--preset", "qweyl", "-n", str(n_cap)),
        ("series", "--preset", "weyl", "--max-q", str(q_cap), "--max-t", str(t_cap)),
        ("series", "--preset", "weyl", "--max-q", str(t_cap // 2)),
    ]
    for argv in at_cap:
        assert run(capsys, *argv)[0] == 0, argv
    assert len(calls) == len(at_cap)


def test_wreath_cap_is_set_by_work(monkeypatch, capsys):
    # a d = 20 table does about as much work at n = 31 as a d = 2 one at n = 52
    calls = []
    monkeypatch.setattr(cli, "hh_cohomology_wreath",
                        lambda *args: calls.append(args) or BettiTable({0: 1}))
    monkeypatch.setattr(cli, "deformation_parameter_count",
                        lambda *args: calls.append(args) or 1)
    wide = '{"name": "wide", "d": 20, "betti": [%s]}' % ", ".join(["1"] * 21)
    for command in ("betti", "deform"):
        code, out, err = run(capsys, command, "--preset", wide, "-n", "32")
        assert (code, out, err) == (2, "", "error: -n 32 is above the cap of 31 for d = 20\n")
        assert calls == []
    for command in ("betti", "deform"):
        assert run(capsys, command, "--preset", wide, "-n", "31")[0] == 0
        assert run(capsys, command, "--preset", "gamma:3", "-n", str(cli.MAX_WREATH_N))[0] == 0
    assert [args[-1] for args in calls] == [31, cli.MAX_WREATH_N] * 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


def test_verify_cherednik_suite(capsys):
    code, out, _ = run(capsys, "verify", "cherednik")
    assert code == 0
    assert "PASS cherednik confluence n=2" in out
    assert "FAIL" not in out


def test_verify_reports_failure_exit(monkeypatch, capsys):
    monkeypatch.setitem(cli._SUITES, "cherednik",
                        lambda seed: [CheckReport("stub", False, ("[FAIL] stub",))])
    code, out, _ = run(capsys, "verify", "cherednik")
    assert code == 1
    assert "FAIL stub" in out


def test_verify_all_continues_past_a_raising_suite(monkeypatch, capsys):
    def capped(seed):
        raise SizeCapExceeded("bar level 3 needs 10^9 entries")

    for name in list(cli._SUITES):
        monkeypatch.setitem(cli._SUITES, name,
                            lambda seed, name=name: [CheckReport(f"{name} stub", True)])
    monkeypatch.setitem(cli._SUITES, "bruteforce", capped)
    code, out, err = run(capsys, "verify", "all")
    assert code == 1
    assert out.splitlines() == [
        "PASS wreath stub",
        "FAIL verify bruteforce",
        "  [FAIL] SizeCapExceeded: bar level 3 needs 10^9 entries",
        "PASS koszul stub",
        "PASS cherednik stub",
    ]
    assert "error: bar level 3 needs 10^9 entries" in err


@pytest.mark.parametrize("suite", ["wreath", "bruteforce", "koszul", "cherednik"])
def test_verify_report_text_is_pinned(capsys, suite):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    golden = Path(__file__).parent / "data" / f"verify_{suite}.txt"
    assert out.encode() == golden.read_bytes()


def test_cherednik_reduce_two_digit_indices(capsys):
    code, out, _ = run(capsys, "cherednik", "reduce", "-n", "11", "x10 p10")
    assert (code, out) == (0, "x10 p10\n")
    code, out, err = run(capsys, "cherednik", "reduce", "-n", "11", "s12")
    assert code == 2
    assert "ambiguous generator 's12'" in err
