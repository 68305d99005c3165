import json
import re
from pathlib import Path

import pytest

from wreath_hochschild import cli, wreath
from wreath_hochschild.betti import BettiTable
from wreath_hochschild.bruteforce import (
    FiniteDimAlgebra,
    RegularBimodule,
    SizeCapExceeded,
    hh_dims,
)
from wreath_hochschild.partitions import Partition
from wreath_hochschild.presets_io import CheckReport, emit, load_preset, parse
from wreath_hochschild.series import BiSeries
from wreath_hochschild.wreath import (
    PRESETS,
    closed_form,
    deformation_parameter_count,
    gamma_series,
    generating_series_product,
    hh_cohomology_wreath,
)


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


def test_unreadable_preset_path_is_a_usage_error(capsys, tmp_path):
    # a directory exists but cannot be read as a preset file
    code, out, err = run(capsys, "betti", "--preset", str(tmp_path), "-n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read preset file ")
    assert repr(str(tmp_path)) in err
    with pytest.raises(ValueError, match="cannot read preset file"):
        load_preset(str(tmp_path))


def test_size_caps_refuse_before_any_work(monkeypatch, capsys):
    calls = []

    def stub(coh, d, q_bound, t_bound):
        calls.append((q_bound, t_bound))
        return BiSeries.one(q_bound, t_bound)

    monkeypatch.setattr(cli, "generating_series_product", stub)
    monkeypatch.setattr(wreath, "generating_series_product", stub)
    q_cap, t_cap = cli.MAX_SERIES_Q, cli.MAX_SERIES_T
    wide = '{"name": "wide", "d": 20, "betti": [%s]}' % ", ".join(["1"] * 21)
    over = [
        (("betti", "--preset", "qweyl", "-n", str(q_cap + 1)),
         f"-n {q_cap + 1} is above the cap of {q_cap}"),
        (("hilb", "--betti", "1,0,0", "-n", str(q_cap + 1)),
         f"-n {q_cap + 1} is above the cap of {q_cap}"),
        (("deform", "--preset", "qweyl", "-n", str(q_cap + 1)),
         f"-n {q_cap + 1} is above the cap of {q_cap}"),
        # betti reads the series to t^(d * n)
        (("betti", "--preset", wide, "-n", str(t_cap // 20 + 1)),
         f"t bound {20 * (t_cap // 20 + 1)} (d * n) is above the cap of {t_cap}"),
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
        (("betti", "--preset", "qweyl", "-n", str(q_cap)), (q_cap, 2 * q_cap)),
        (("hilb", "--betti", "1,0,0", "-n", str(q_cap)), (q_cap, 2 * q_cap)),
        # deform reads the degree-2 entry only, so its cap is the same for every d
        (("deform", "--preset", "qweyl", "-n", str(q_cap)), (q_cap, 2)),
        (("deform", "--preset", wide, "-n", str(q_cap)), (q_cap, 2)),
        (("betti", "--preset", wide, "-n", str(t_cap // 20)), (t_cap // 20, t_cap)),
        (("series", "--preset", "weyl", "--max-q", str(q_cap), "--max-t", str(t_cap)),
         (q_cap, t_cap)),
        (("series", "--preset", "weyl", "--max-q", str(t_cap // 2)), (t_cap // 2, t_cap)),
    ]
    for argv, _ in at_cap:
        assert run(capsys, *argv)[0] == 0, argv
    assert calls == [bounds for _, bounds in at_cap]


def test_tables_match_the_partition_walk(capsys):
    # the CLI reads the product series; the library's walk is the oracle
    d4 = '{"name": "w4", "d": 4, "betti": [1, 2, 0, 1, 3]}'
    for name in sorted(PRESETS) + ["gamma:3", d4]:
        preset = load_preset(name)
        for n in range(13):
            for fmt in ("plain", "json", "csv"):
                want = emit(hh_cohomology_wreath(preset.betti, preset.d, n), fmt)
                got = run(capsys, "betti", "--preset", name, "-n", str(n), "--format", fmt)
                assert got == (0, want.decode(), ""), (name, n, fmt)
            if n >= 2:
                want = hh_cohomology_wreath(preset.betti, preset.d, n)[2]
                assert run(capsys, "deform", "--preset", name, "-n", str(n)) == (
                    0, f"{want}\n", ""), (name, n)
    for dims in ("1", "1,0,0", "1,1,1", "1,2,1", "2,0,3", "0,3"):
        table = BettiTable(dict(enumerate(int(v) for v in dims.split(","))))
        for n in range(13):
            for fmt in ("plain", "json", "csv"):
                want = emit(hh_cohomology_wreath(table, 2, n), fmt)
                got = run(capsys, "hilb", "--betti", dims, "-n", str(n), "--format", fmt)
                assert got == (0, want.decode(), ""), (dims, n, fmt)


def test_tables_do_not_walk_partitions(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a CLI table reached the partition walk")

    qweyl = PRESETS["qweyl"]
    want = emit(hh_cohomology_wreath(qweyl.betti, qweyl.d, 6), "plain").decode()
    monkeypatch.setattr(wreath, "_partition_sum", forbidden)
    assert run(capsys, "betti", "--preset", "qweyl", "-n", "6") == (0, want, "")
    assert run(capsys, "hilb", "--betti", "1,0,0", "-n", "3") == (0, "1 + t^2 + t^4\n", "")
    assert run(capsys, "deform", "--preset", "qweyl", "-n", "6") == (0, "3\n", "")


@pytest.mark.parametrize("argv, message", [
    (("deform", "--preset", '{"name": "x", "d": 2, "betti": [2, 0, 1]}', "-n", "3"),
     "degree-0 entry must be 1"),
    (("deform", "--preset", "qweyl", "-n", "1"), "n must be an int >= 2, got 1"),
    (("betti", "--preset", "qweyl", "-n", "-1"), "n must be a nonnegative int, got -1"),
    (("hilb", "--betti", "1,0,0", "-n", "-1"), "n must be a nonnegative int, got -1"),
    (("deform", "--preset", "qweyl", "-n", "-1"), "n must be an int >= 2, got -1"),
    (("hilb", "--betti", "1,0,0,1", "-n", "3"), "table support exceeds the duality dimension"),
    # the product route builds its series before any row, so BiSeries refuses the bounds
    (("series", "--preset", "weyl", "--max-q", "-1"), "q_bound must be a nonnegative int, got -1"),
    (("series", "--preset", "weyl", "--max-q", "3", "--max-t", "-1"),
     "t_bound must be a nonnegative int, got -1"),
    # nu is read by parse's integer rule, and a well-spelt bad nu reaches check_count
    (("deform", "--preset", "gamma:1_0", "-n", "2"),
     "bad gamma preset 'gamma:1_0': expected gamma:<int>"),
    (("betti", "--preset", "gamma:03", "-n", "2"),
     "bad gamma preset 'gamma:03': expected gamma:<int>"),
    (("betti", "--preset", "gamma:-1", "-n", "2"), "nu must be a positive int, got -1"),
])
def test_table_inputs_refused(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def _command(*argv):
    """The table command's own call, which raises its refusal as ValueError
    (main prints it as one error: line and exits 2)."""
    args = cli._PARSER.parse_args(list(argv))
    return args.func(args)


def _preset(d=2, betti=(1, 0, 1)):
    return load_preset(json.dumps({"name": "u", "d": d, "betti": list(betti)}))


# one row per input field: two bad values that used to meet two different
# copies of the count rule now get one message shape
@pytest.mark.parametrize("call, values, shape", [
    (lambda v: _preset(d=v), (2.0, 3), "duality dimension d must be an even positive int"),
    (lambda v: _preset(betti=(1, v)), (1.5, -1), "dimension must be a nonnegative int"),
    (lambda v: BettiTable({v: 1}), (1.0, -1), "degree must be a nonnegative int"),
    (lambda v: BettiTable({0: v}), (True, -2), "dimension must be a nonnegative int"),
    (lambda v: BiSeries(v, 1), (True, -1), "q_bound must be a nonnegative int"),
    (lambda v: BiSeries(1, v), (1.0, -1), "t_bound must be a nonnegative int"),
    (lambda v: generating_series_product(PRESETS["weyl"].betti, 2, v), (-1, True, 2.0),
     "q_bound must be a nonnegative int"),
    (lambda v: generating_series_product(PRESETS["weyl"].betti, 2, 3, v), (-1, True, 2.0),
     "t_bound must be a nonnegative int"),
    (lambda v: closed_form("PA", v), (-1, True, 2.0), "q_bound must be a nonnegative int"),
    (lambda v: gamma_series(3, 3, v), (-1, True, 2.0), "t_bound must be a nonnegative int"),
    (lambda v: Partition((v,)), (2.5, 0), "part must be a positive int"),
    (lambda v: deformation_parameter_count(PRESETS["qweyl"].betti, 2, v), (1, -1),
     "n must be an int >= 2"),
    (lambda v: _command("betti", "--preset", "qweyl", "-n", str(v)), (-1, -2),
     "n must be a nonnegative int"),
    (lambda v: _command("hilb", "--betti", "1,0,0", "-n", str(v)), (-1, -2),
     "n must be a nonnegative int"),
    (lambda v: _command("deform", "--preset", "qweyl", "-n", str(v)), (1, -1),
     "n must be an int >= 2"),
], ids=["json d", "json dims", "degree", "dimension", "q_bound", "t_bound",
        "product q_bound", "product t_bound", "closed form q_bound", "gamma series t_bound",
        "part", "deform n", "betti -n", "hilb -n", "deform -n"])
def test_each_field_has_one_refusal(call, values, shape):
    for value in values:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{shape}, got {value!r}')}$"):
            call(value)


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


@pytest.mark.parametrize("value", ["abc", "1e9", "-1", "+5", " 5", "1_000", "5.0"])
def test_verify_refuses_a_malformed_size_cap_before_any_suite(monkeypatch, capsys, value):
    def must_not_run(seed):
        raise AssertionError("a suite ran")

    for name in list(cli._SUITES):
        monkeypatch.setitem(cli._SUITES, name, must_not_run)
    monkeypatch.setenv("HH_SIZE_CAP", value)
    for suite in ("all", "bruteforce", "wreath"):
        assert run(capsys, "verify", suite) == (
            2, "", f"error: HH_SIZE_CAP must be a nonnegative integer, got {value!r}\n")


def test_size_cap_env_is_validated_by_the_library(monkeypatch):
    A = FiniteDimAlgebra.truncated_polynomial(2)
    monkeypatch.setenv("HH_SIZE_CAP", "abc")
    with pytest.raises(ValueError, match="HH_SIZE_CAP must be a nonnegative integer, got 'abc'"):
        hh_dims(A, RegularBimodule(A), 1)
    monkeypatch.setenv("HH_SIZE_CAP", "0")
    with pytest.raises(SizeCapExceeded):
        hh_dims(A, RegularBimodule(A), 1)
    monkeypatch.setenv("HH_SIZE_CAP", "")
    assert hh_dims(A, RegularBimodule(A), 1) == [2, 1]


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
