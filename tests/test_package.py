import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import wreath_hochschild as wh
from wreath_hochschild import ratfunc, series

SRC = str(Path(__file__).resolve().parents[1] / "src")

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


def test_one_permutation_predicate():
    from wreath_hochschild import bruteforce, cherednik

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
