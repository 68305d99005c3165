"""Command-line entry point: computations and verification suites.

Subcommands
    series     bivariate generating series of a preset (product form)
    betti      cohomology table of the n-th wreath product of a preset
    hilb       orbifold Poincare polynomial of a symmetric power
    deform     deformation parameter count of a preset
    cherednik  normal-order a word in the rational Cherednik algebra
    verify     run the verification suites, exit 0 iff everything passes

Exit codes: 0 success, 1 verification failure (including an internal
certificate that did not hold), 2 usage error.  Error messages go to
standard error.  A verification suite that raises is reported as a
failed check, and the remaining suites still run.  The brute-force size
cap honours the HH_SIZE_CAP environment variable, which verify checks
first (exit 2 unless a nonnegative integer); randomized suites take
--seed.  betti, hilb and deform read the q^n coefficient of the product
series, as wreath's hilb_poincare and deformation_parameter_count do; the
partition walk behind hh_homology_wreath, hh_cohomology_wreath and
generating_series_sum is only the oracle of verify wreath.  Every table
command refuses a q bound (-n or --max-q) above MAX_SERIES_Q and a t bound
above MAX_SERIES_T, with exit 2 before any work; the library has no cap.

The table commands load only the series layer.  Only verify and cherednik
load the chain-level layers (bruteforce, koszul, cherednik, linalg and
ratfunc), by importing them inside the functions that use them.  Table
commands also load no dataclasses, json or random module: json only when
a JSON preset is read or --format json is written, random only in verify
wreath.
"""

import argparse
import sys

from .betti import BettiTable
from .partitions import count_by_length
from .presets_io import CheckReport, emit, load_preset
from .series import check_cap
from .wreath import (
    CLOSED_FORM_PRESETS,
    _wreath_table,
    closed_form,
    deformation_parameter_count,
    generating_series_product,
    generating_series_sum,
    hilb_poincare,
)

# group B replaces each rank-one preset by its Z/2 crossed product
Z2_COMPANIONS = {"weyl": "z2_weyl", "trig": "z2_trig", "qweyl": "z2_qweyl"}

# Size caps, refused before any work.  Every table command reads the product
# series, which costs about q^2 shift-adds of a packed t-row per factor: one
# fresh process on a 2-vCPU machine takes about 0.45 s for betti --preset
# qweyl -n 300 (q^300, t^600).
MAX_SERIES_Q = 300
MAX_SERIES_T = 600


def _check_bounds(q_bound: int, t_bound: int, q_flag: str, t_rule: str):
    check_cap(f"{q_flag} {q_bound}", q_bound, MAX_SERIES_Q)
    check_cap(f"t bound {t_bound} ({t_rule})", t_bound, MAX_SERIES_T)


def _cmd_series(args) -> int:
    preset = load_preset(args.preset)
    if args.group == "B":
        companion = Z2_COMPANIONS.get(preset.name)
        if companion is None:
            raise ValueError(f"preset {preset.name!r} has no Z2 companion; group B "
                             f"applies only to {sorted(Z2_COMPANIONS)}")
        preset = load_preset(companion)
    t_bound = preset.d * args.max_q if args.max_t is None else args.max_t
    _check_bounds(args.max_q, t_bound, "--max-q", "--max-t, default d * max-q")
    series = generating_series_product(preset.betti, preset.d, args.max_q, t_bound)
    sys.stdout.buffer.write(emit(series, args.format))
    return 0


def _cmd_betti(args) -> int:
    preset = load_preset(args.preset)
    _check_bounds(args.n, preset.d * args.n, "-n", "d * n")
    table = _wreath_table(preset.betti, preset.d, args.n, preset.d * args.n)
    sys.stdout.buffer.write(emit(table, args.format))
    return 0


def _cmd_hilb(args) -> int:
    try:
        dims = [int(v) for v in args.betti.split(",")]
    except ValueError:
        raise ValueError(f"--betti expects comma-separated integers, got {args.betti!r}")
    table = BettiTable(dict(enumerate(dims)))
    _check_bounds(args.n, 2 * args.n, "-n", "d * n")
    sys.stdout.buffer.write(emit(hilb_poincare(table, args.n), args.format))
    return 0


def _cmd_deform(args) -> int:
    preset = load_preset(args.preset)
    # the count reads the series to t^2 only, whatever d is
    _check_bounds(args.n, 2, "-n", "d * n")
    print(deformation_parameter_count(preset.betti, preset.d, args.n))
    return 0


def _cmd_cherednik(args) -> int:
    from .cherednik import normal_order

    print(normal_order(args.word, args.n))
    return 0


# ---------------------------------------------------------------------------
# verification suites


def verify_wreath(seed: int = 0) -> list:
    import random

    checks = []
    for label in sorted(CLOSED_FORM_PRESETS):
        preset = load_preset(CLOSED_FORM_PRESETS[label])
        closed = closed_form(label, 8, 40)
        prod = generating_series_product(preset.betti, preset.d, 8, 40)
        sums = generating_series_sum(preset.betti, preset.d, 8, 40)
        checks.append((closed == prod == sums,
                       f"{label}: closed form == product == partition sum up to q^8 "
                       f"(preset {preset.name})"))
    reports = [CheckReport.from_checks("wreath closed forms", checks)]

    rng = random.Random(seed)
    bad = None
    for _ in range(50):
        d = rng.choice((2, 4))
        table = BettiTable({j: rng.randint(0, 3) for j in range(d + 1)})
        if generating_series_product(table, d, 6) != generating_series_sum(table, d, 6):
            bad = (table, d)
            break
    text = ("product == partition sum up to q^6 for 50 random tables"
            if bad is None else f"routes disagree for {bad[0]!r}, d={bad[1]}")
    reports.append(CheckReport.from_checks("wreath product vs sum property",
                                           [(bad is None, text)]))

    pa = closed_form("PA", 12)
    point = BettiTable({0: 1})
    # row n of the statistic: t^(2(n-l)) -> number of partitions of n with l parts
    stat = [{2 * (n - parts): c for parts, c in count_by_length(n).items()}
            for n in range(13)]
    reports.append(CheckReport.from_checks("wreath partition statistic", [
        (all(pa.q_coefficient(n) == stat[n] for n in range(13)),
         "q^n t^(2(n-l)) coefficients count partitions of n with l parts, n <= 12"),
        (all(hilb_poincare(point, n).dims() == stat[n] for n in range(11)),
         "one-point orbifold polynomials match the partition statistic, n <= 10"),
    ]))

    checks = []
    for name, want in (("weyl", 1), ("trig", 2), ("qweyl", 3), ("z2_qweyl", 6)):
        preset = load_preset(name)
        got = deformation_parameter_count(preset.betti, preset.d, 2)
        dims = preset.betti.dims()
        b1, b2 = dims.get(1, 0), dims.get(2, 0)
        generic = b2 + b1 * (b1 - 1) // 2 + (1 if preset.d == 2 else 0)
        checks.append((got == generic,
                       f"{name}: count {got} matches b2 + C(b1,2) + [d=2] = {generic}"))
        if name in ("weyl", "qweyl", "z2_qweyl"):
            checks.append((got == want, f"{name}: count is {want}"))
    checks.append((deformation_parameter_count(BettiTable({0: 1}), 4, 2) == 0,
                   "rigid d=4 point table has no deformation parameters"))
    reports.append(CheckReport.from_checks("wreath deformation counts", checks))
    return reports


def verify_bruteforce(seed: int = 0) -> list:
    from .bruteforce import (
        FiniteDimAlgebra,
        GroupAction,
        afls_check,
        homotopy_identity_check,
        slot_permutation,
        verify_homolog_i,
    )

    reports = []
    dual = FiniteDimAlgebra.truncated_polynomial(2)
    z2 = FiniteDimAlgebra.group_algebra([[0, 1], [1, 0]])
    for A in (dual, z2):
        for n, levels in ((2, 3), (3, 2)):
            reports.append(verify_homolog_i(A, n=n, max_level=levels))
    for n in (2, 3):
        for m in (1, 2, 3, 4):
            reports.append(homotopy_identity_check(z2, n, m, trials=50, seed=seed))
    cubic = FiniteDimAlgebra.truncated_polynomial(3)
    sign = [{i: (-1) ** i} for i in range(3)]
    reports.append(afls_check(cubic, GroupAction.generate(cubic, [sign]), max_level=2))
    square = z2.tensor(z2)
    sp = slot_permutation(z2, 2, (2, 1))
    swap = [{sp[i]: 1} for i in range(square.dim)]
    reports.append(afls_check(square, GroupAction.generate(square, [swap]), max_level=2))
    return reports


# eps-sector dimensions; the id sectors and the crossed totals are the
# (b0, b1, b2) of each kind's preset and of its Z2 companion
_KOSZUL_EPS = {"weyl": (0, 0, 1), "trig": (0, 0, 2), "qweyl": (0, 0, 4)}


def _preset_dims(name: str) -> tuple:
    betti = load_preset(name).betti
    return betti[0], betti[1], betti[2]


def verify_koszul(seed: int = 0) -> list:
    from .koszul import (
        KINDS,
        TWISTS,
        build_cochain_complex,
        crossed_z2_cohomology,
        duality_check,
        hh_cohomology_rank_one,
    )

    checks = [(
        all(
            not any(build_cochain_complex(kind, twist, 6)[2].values())
            for kind in KINDS
            for twist in TWISTS
        ),
        "consecutive differentials compose to zero for every kind and twist",
    )]
    tables = {(kind, "eps"): want for kind, want in _KOSZUL_EPS.items()}
    tables.update(((kind, "id"), _preset_dims(kind)) for kind in KINDS)
    for (kind, twist), want in sorted(tables.items()):
        dims = {hh_cohomology_rank_one(kind, twist, N) for N in (8, 10, 12)}
        checks.append((dims == {want},
                       f"{kind}/{twist}: dimensions {want} stable at windows 8, 10, 12"))
    for kind in sorted(KINDS):
        want = _preset_dims(Z2_COMPANIONS[kind])
        checks.append((crossed_z2_cohomology(kind, 8) == want,
                       f"crossed {kind}: Z2-invariant totals {want}"))
    reports = [CheckReport.from_checks("koszul cohomology tables", checks)]
    reports.extend(duality_check(kind) for kind in KINDS)
    return reports


def verify_cherednik(seed: int = 0) -> list:
    from .cherednik import (
        associativity_check,
        confluence_check,
        pbw_dimension_check,
        spherical_check,
    )

    reports = [confluence_check(2, 4), confluence_check(3, 3)]
    reports.extend(pbw_dimension_check(n, 3) for n in (2, 3))
    reports.extend(associativity_check(n, trials=100, seed=seed) for n in (2, 3))
    reports.extend(spherical_check(n) for n in (2, 3))
    return reports


_SUITES = {
    "wreath": verify_wreath,
    "bruteforce": verify_bruteforce,
    "koszul": verify_koszul,
    "cherednik": verify_cherednik,
}


def _cmd_verify(args) -> int:
    from .bruteforce import _resolve_cap

    _resolve_cap(None)  # a malformed HH_SIZE_CAP is a usage error, before any suite
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        try:
            reports = _SUITES[name](args.seed)
        except RuntimeError as exc:
            # an internal certificate or size cap failed: record it, run the rest
            print(f"error: {exc}", file=sys.stderr)
            reports = [CheckReport.from_checks(
                f"verify {name}", [(False, f"{type(exc).__name__}: {exc}")])]
        for rep in reports:
            sys.stdout.buffer.write(emit(rep, "plain"))
            sys.stdout.buffer.flush()
            all_ok = all_ok and rep.passed
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreath-hh",
        description="Exact Hochschild (co)homology of wreath product algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="generating series of a preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--group", choices=("A", "B"), default="A")
    p.add_argument("--max-q", type=int, default=6)
    p.add_argument("--max-t", type=int, default=None,
                   help="defaults to d * max-q")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("betti", help="cohomology table of the n-th wreath product")
    p.add_argument("--preset", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("hilb", help="orbifold Poincare polynomial of a symmetric power")
    p.add_argument("--betti", required=True, help="comma-separated b0,b1,b2")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_hilb)

    p = sub.add_parser("deform", help="deformation parameter count")
    p.add_argument("--preset", required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("cherednik", help="rational Cherednik algebra tools")
    csub = p.add_subparsers(dest="action", required=True)
    c = csub.add_parser("reduce", help="normal-order a generator word")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("word")
    c.set_defaults(func=_cmd_cherednik)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=("all",) + tuple(_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
