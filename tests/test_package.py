import importlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wreath_hochschild as wh
from wreath_hochschild import cherednik, koszul, ratfunc, series
from wreath_hochschild.cherednik import CherednikElement, NormalMonomial, normal_order
from wreath_hochschild.koszul import RankOneElement
from wreath_hochschild.ratfunc import RatFunc

SRC = str(Path(__file__).resolve().parents[1] / "src")
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

# the package's public names, one set per owning submodule
PUBLIC = {
    "betti": {"AlgebraPreset", "BettiTable", "super_sym_powers"},
    "bruteforce": {
        "AutoTwistedBimodule", "FiniteDimAlgebra", "GroupAction", "RegularBimodule",
        "SizeCapExceeded", "TwistedBimodule", "afls_check", "crossed_product", "hh_dims",
        "homotopy_identity_check", "rotation_permutation", "tensor_power",
        "verify_homolog_i",
    },
    "cherednik": {
        "CherednikElement", "NormalMonomial", "associativity_check", "confluence_check",
        "crossed_weyl_normal_order", "normal_monomial_count", "normal_order",
        "pbw_dimension_check", "spherical_check", "spherical_idempotent",
        "spherical_product",
    },
    "koszul": {
        "RankOneElement", "WindowInstability", "build_cochain_complex",
        "crossed_z2_cohomology", "duality_check", "hh_cohomology_rank_one",
    },
    "linalg": {"CertificateError"},
    "partitions": {"Partition", "count_by_length", "partition_count", "partitions"},
    "presets_io": {"CheckReport", "emit", "load_preset", "parse"},
    "series": {"BiSeries"},
    "wreath": {
        "PRESETS", "closed_form", "deformation_parameter_count", "gamma_preset",
        "gamma_series", "generating_series_product", "generating_series_sum",
        "hh_cohomology_wreath", "hh_homology_wreath", "hilb_poincare", "surface_preset",
    },
}
NAMES = set().union(*PUBLIC.values())

ENGINE = ("bruteforce", "koszul", "cherednik", "linalg", "ratfunc")


def test_the_public_names_are_the_54_of_each_submodule():
    assert len(NAMES) == 54
    assert set(wh.__all__) == NAMES and len(wh.__all__) == 54
    for mod, names in PUBLIC.items():
        owner = importlib.import_module(f"wreath_hochschild.{mod}")
        for name in names:
            # partitions too: the function, not the submodule of that name
            assert getattr(wh, name) is getattr(owner, name), name


def test_star_import_binds_exactly_the_public_names():
    scope = {}
    exec("from wreath_hochschild import *", scope)
    assert set(scope) - {"__builtins__"} == NAMES


def test_dir_lists_every_name_and_an_unknown_name_is_an_attribute_error():
    assert NAMES <= set(dir(wh))
    with pytest.raises(AttributeError, match="no_such_name"):
        wh.no_such_name
    assert not hasattr(wh, "no_such_name")


def test_one_polynomial_printer():
    assert ratfunc.poly_str is series.poly_str
    # normal forms and Koszul elements print through the one signed-sum printer
    assert cherednik.signed_sum is koszul.signed_sum is series.signed_sum
    assert cherednik.power_str is koszul.power_str is series.power_str


def _element(terms):
    """A rank-2 Cherednik element from {(xexp, perm, pexp): k-polynomial}."""
    return CherednikElement(2, {NormalMonomial(*m): c for m, c in terms.items()})


ONE, S12 = ((0, 0), (0, 1), (0, 0)), ((0, 0), (1, 0), (0, 0))


@pytest.mark.parametrize("build, text", [
    (lambda: normal_order("p1 x1 p1 x1", 2),
     "x1^2 p1^2 - 3 x1 p1 + k x1 s12 p1 + k x1 s12 p2 + k x2 s12 p1 + (1 + k^2) - 2 k s12"),
    (lambda: _element({((1, 0), (0, 1), (0, 0)): (Fraction(-1, 2),),
                       ((0, 0), (1, 0), (0, 1)): (Fraction(3, 4), Fraction(-1, 3)),
                       ONE: (0, Fraction(-5, 2))}),
     "-1/2 x1 + (3/4 - 1/3 k) s12 p2 - 5/2 k"),
    (lambda: _element({ONE: (Fraction(-1, 2), 0, 1)}), "(-1/2 + k^2)"),
    (lambda: _element({ONE: (0, 0, -1)}), "-k^2"),
    (lambda: _element({ONE: (0, 0, 0, 1)}), "k^3"),
    (lambda: _element({S12: (0, 0, -1)}), "-k^2 s12"),
    (lambda: normal_order("p1 x10", 10), "x10 p1 - k s1,10"),
    (lambda: normal_order("p1 x11 s1,11", 11), "x11 s1,11 p11 - k"),
    (lambda: RankOneElement("weyl", {(0, 0): -1, (1, 1): 1, (2, 0): 3}), "-1 + x p + 3*x^2"),
    (lambda: RankOneElement("weyl", {(0, 1): Fraction(-1, 2), (1, 0): Fraction(3, 2)}),
     "-1/2*p + 3/2*x"),
    (lambda: RankOneElement("trig", {(-1, 0): -2, (1, 2): 1, (0, 1): -1}),
     "-2*X^-1 - p + X p^2"),
    (lambda: RankOneElement("qweyl", {(-1, -1): RatFunc((1, 1)), (0, 0): RatFunc((0, -1)),
                                      (1, 2): RatFunc.q_power(-1), (3, 3): -1}),
     "(1 + q)*X^-1 P^-1 - q + (1)/(q)*X P^2 - X^3 P^3"),
    (lambda: RankOneElement("qweyl", {}), "0"),
], ids=["word n=2", "fractions, negative first", "lone k-polynomial", "lone -k^2", "lone k^3",
        "-k^2 s12", "n=10", "n=11", "weyl", "weyl fractions", "trig", "qweyl", "zero"])
def test_printer_output_is_pinned(build, text):
    assert str(build()) == text


def test_signed_sum_rules():
    assert series.signed_sum([], "*") == series.signed_sum([(0, "x")], "*") == "0"
    assert series.signed_sum([(-2, ""), (1, "x"), (-1, "y"), (-3, "z"), (4, "w")], "*") == \
        "-2 + x - y - 3*z + 4*w"
    assert series.signed_sum([(-1, "k"), (Fraction(1, 2), "k^2")], " ") == "-k + 1/2 k^2"
    assert [series.power_str("t", e) for e in (0, 1, 2, -1)] == ["", "t", "t^2", "t^-1"]


def test_one_permutation_predicate():
    from wreath_hochschild import bruteforce

    assert bruteforce.is_permutation is cherednik.is_permutation is series.is_permutation


@pytest.mark.parametrize("argv", [
    ["series", "--preset", "qweyl", "--max-q", "3"],
    ["betti", "--preset", "trig", "-n", "2"],
    ["hilb", "--betti", "1,0,1", "-n", "3"],
    ["deform", "--preset", "weyl", "-n", "2"],
])
def test_table_commands_load_no_chain_level_layer(argv):
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from wreath_hochschild import cli\n"
        "with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"names = ['wreath_hochschild.' + m for m in {ENGINE!r}] + ['fractions']\n"
        "print(*[name for name in names if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_table_command_loads_no_dataclasses_json_random_or_typing():
    # against the modules loaded before the engine import, so that modules
    # the interpreter's site hooks preload do not count
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "before = set(sys.modules)\n"
        "from wreath_hochschild import cli\n"
        "with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):\n"
        "    assert cli.main(['deform', '--preset', 'weyl', '-n', '2']) == 0\n"
        "added = set(sys.modules) - before\n"
        "print(*[name for name in ('dataclasses', 'inspect', 'json', 'random', 'typing')\n"
        "        if name in added])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_the_bar_complex_oracle_loads_no_other_chain_level_layer():
    # invariant_dim reads the rank of its projector, not a trace, so linalg
    # needs no rational functions and bruteforce loads neither other oracle
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import wreath_hochschild.bruteforce\n"
        "names = ['wreath_hochschild.' + m for m in ('linalg', 'ratfunc', 'koszul', 'cherednik')]\n"
        "print(*[name for name in names if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["wreath_hochschild.linalg"]


@pytest.mark.parametrize("oracle, others", [("koszul", ("bruteforce", "cherednik")),
                                            ("cherednik", ("bruteforce", "koszul"))])
def test_the_koszul_and_cherednik_oracles_load_no_other_oracle(oracle, others):
    # what the oracles share, such as series.is_permutation, lives in the
    # table layers, so no oracle reaches another through an import
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"import wreath_hochschild.{oracle}\n"
        f"names = ['wreath_hochschild.' + m for m in {others!r}]\n"
        "print(*[name for name in names if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_the_benchmark_tracer_installs_and_runs():
    # perfbench/spans.py wraps package functions and methods by name, so a
    # renamed or deleted one fails install here, not in a traced benchmark run
    code = (
        "import contextlib, io, sys\n"
        f"sys.path[:0] = [{SRC!r}, {PERFBENCH!r}]\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "from wreath_hochschild import cli\n"
        "from wreath_hochschild.bruteforce import FiniteDimAlgebra, verify_homolog_i\n"
        "with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):\n"
        "    assert cli.main(['betti', '--preset', 'qweyl', '-n', '3']) == 0\n"
        "report = verify_homolog_i(FiniteDimAlgebra.truncated_polynomial(2), n=2, max_level=1)\n"
        "assert report.passed, report.lines\n"
        "tracer.fold()\n"
        "metrics = tracer.metrics()\n"
        "print(*[layer for layer in ('cli', 'bruteforce', 'linalg')\n"
        "        if metrics[layer + '.self_s'] > 0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["cli", "bruteforce", "linalg"]
