"""The benchmark's three workloads as fixed job lists, and their checks.

A job is one public call into the engine (or one cli.main command) plus
the canonicalisation of its result to bytes: series, tables and reports
through emit(..., "json"), Koszul dimension triples as the table
{degree: dim} through emit, Cherednik normal forms as their string, and
CLI commands as the bytes they write.  Every job is checked after it
returns:

- its own check, if any (a report must pass, a dimension triple must be
  the known one, a command must exit 0);
- jobs sharing a group must emit identical bytes (product == partition
  sum == closed form, leftmost == rightmost rewriting);
- a job whose id has a committed digest must match it byte for byte.

Each job list has 5 jobs modulo 10 (65, 55 and 15).  Over P passes, p50
and p90 then fall in the middle of one job's P samples rather than on
the border between two jobs.  Seeded jobs cost either well below p50 or
between p50 and p90, so the seed does not decide which job sets them.

The seed only chooses inputs; the engine receives the generated values.
Engine calls are looked up through the modules at call time, so wrappers
installed by the tracer are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import wreath_hochschild as wh
from wreath_hochschild import bruteforce, cherednik, cli, koszul, wreath


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], bytes]
    group: Optional[str] = None
    check: Optional[Callable[[bytes], Optional[str]]] = None


def _emit(obj) -> bytes:
    return wh.emit(obj, "json")


def _report_passed(out: bytes) -> Optional[str]:
    return None if json.loads(out)["passed"] is True else "report did not pass"


def _dims_are(want: tuple):
    want_doc = {str(i): v for i, v in enumerate(want) if v}

    def check(out: bytes) -> Optional[str]:
        got = json.loads(out)["dims"]
        return None if got == want_doc else f"dims {got}, expected {want_doc}"

    return check


def _dims_table(dims: tuple) -> bytes:
    return _emit(wh.BettiTable(dict(enumerate(dims))))


# ---------------------------------------------------------------------------
# tables: series routes, wreath rows, CLI commands


def _cli_run(argv: list) -> bytes:
    """cli.main(argv) with stdout captured; the exit code ends the payload."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
        out.flush()
    return buf.getvalue() + f"exit {code}\n".encode()


def _cli_ok(out: bytes) -> Optional[str]:
    return None if out.endswith(b"exit 0\n") else "nonzero exit"


TABLES_Q = 12
TABLES_RANDOM_Q = 4
TABLES_ROWS = (26, 28, 30)
TABLES_CLI = (
    ["series", "--preset", "weyl", "--max-q", "8", "--format", "json"],
    ["series", "--preset", "qweyl", "--group", "B", "--max-q", "8", "--format", "csv"],
    ["series", "--preset", "trig", "--max-q", "6"],
    ["betti", "--preset", "trig", "-n", "16", "--format", "json"],
    ["betti", "--preset", "qweyl", "-n", "12", "--format", "csv"],
    ["betti", "--preset", "gamma:4", "-n", "10"],
    ["hilb", "--betti", "1,0,0", "-n", "12", "--format", "json"],
    ["hilb", "--betti", "1,1,1", "-n", "8"],
    ["deform", "--preset", "qweyl", "-n", "2"],
    ["deform", "--preset", "z2_qweyl", "-n", "3"],
    ["series", "--preset", "gamma:3", "--max-q", "6", "--format", "json"],
)


def tables_jobs(seed: int) -> list:
    rng = random.Random(seed)
    Q = TABLES_Q
    closed_for = {name: label for label, name in wreath.CLOSED_FORM_PRESETS.items()}
    names = sorted(wreath.PRESETS) + [f"gamma:{nu}" for nu in rng.sample(range(2, 10), 3)]
    jobs = []
    for name in names:
        group = f"series/{name}/Q={Q}"

        def route(fn_name, name=name):
            p = wh.load_preset(name)
            return _emit(getattr(wh, fn_name)(p.betti, p.d, Q))

        jobs.append(Job(f"{group}/product",
                        lambda route=route: route("generating_series_product"), group))
        jobs.append(Job(f"{group}/sum",
                        lambda route=route: route("generating_series_sum"), group))
        if name in closed_for:
            label = closed_for[name]
            jobs.append(Job(f"{group}/closed_form/{label}",
                            lambda label=label: _emit(wh.closed_form(label, Q)), group))
        if name.startswith("gamma:"):
            nu = int(name.split(":")[1])
            jobs.append(Job(f"{group}/gamma_series",
                            lambda nu=nu: _emit(wh.gamma_series(nu, Q)), group))
    qweyl = wreath.PRESETS["qweyl"]
    for n in TABLES_ROWS:
        jobs.append(Job(f"row/qweyl/n={n}",
                        lambda n=n: _emit(wh.hh_cohomology_wreath(qweyl.betti, qweyl.d, n))))
    for _ in range(12):
        d = rng.choice((2, 4))
        dims = [rng.randint(0, 3) for _ in range(d + 1)]
        table = wh.BettiTable(dict(enumerate(dims)))
        group = f"random/d={d}/b={','.join(map(str, dims))}/Q={TABLES_RANDOM_Q}"
        jobs.append(Job(f"{group}/product", lambda t=table, d=d: _emit(
            wh.generating_series_product(t, d, TABLES_RANDOM_Q)), group))
        jobs.append(Job(f"{group}/sum", lambda t=table, d=d: _emit(
            wh.generating_series_sum(t, d, TABLES_RANDOM_Q)), group))
    for argv in TABLES_CLI:
        jobs.append(Job("cli/" + " ".join(argv), lambda argv=argv: _cli_run(argv),
                        check=_cli_ok))
    return jobs


# ---------------------------------------------------------------------------
# certify-rational: bar complexes, Koszul windows over Q, Cherednik rewriting

KOSZUL_DIMS = {
    ("weyl", "id"): (1, 0, 0),
    ("trig", "id"): (1, 1, 0),
    ("qweyl", "id"): (1, 2, 1),
    ("weyl", "eps"): (0, 0, 1),
    ("trig", "eps"): (0, 0, 2),
    ("qweyl", "eps"): (0, 0, 4),
}
CROSSED_DIMS = {"weyl": (1, 0, 1), "trig": (1, 0, 2), "qweyl": (1, 0, 5)}


def _report_job(job_id: str, call) -> Job:
    return Job(job_id, lambda: _emit(call()), check=_report_passed)


def _rank_one_job(kind: str, twist: str, N: int) -> Job:
    return Job(f"koszul/{kind}/{twist}/N={N}",
               lambda: _dims_table(koszul.hh_cohomology_rank_one(kind, twist, N)),
               check=_dims_are(KOSZUL_DIMS[kind, twist]))


def _crossed_job(kind: str, N: int) -> Job:
    return Job(f"koszul/{kind}/crossed/N={N}",
               lambda: _dims_table(koszul.crossed_z2_cohomology(kind, N)),
               check=_dims_are(CROSSED_DIMS[kind]))


def _random_word(rng: random.Random, n: int, length: int) -> str:
    letters = [f"x{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    letters += [f"s{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return " ".join(rng.choice(letters) for _ in range(length))


def certify_rational_jobs(seed: int) -> list:
    rng = random.Random(seed)
    dual = wh.FiniteDimAlgebra.truncated_polynomial(2)
    z2 = wh.FiniteDimAlgebra.group_algebra([[0, 1], [1, 0]])
    cubic = wh.FiniteDimAlgebra.truncated_polynomial(3)
    sign = wh.GroupAction.generate(cubic, [[{i: Fraction(-1) ** i} for i in range(3)]])
    square = z2.tensor(z2)
    sp = bruteforce.slot_permutation(z2, 2, (2, 1))
    swap = wh.GroupAction.generate(square, [[{sp[i]: Fraction(1)} for i in range(square.dim)]])

    jobs = []
    for label, A, n, levels in (("dual", dual, 2, 1), ("dual", dual, 2, 3),
                                ("dual", dual, 3, 2), ("z2", z2, 2, 1), ("z2", z2, 2, 3),
                                ("z2", z2, 3, 1)):
        jobs.append(_report_job(f"homolog/{label}/n={n}/levels={levels}",
                                lambda A=A, n=n, lv=levels: wh.verify_homolog_i(
                                    A, n=n, max_level=lv)))
    for n in (2, 3):
        for m in (1, 2, 3, 4):
            s = rng.randrange(2 ** 31)
            jobs.append(_report_job(f"homotopy/z2/n={n}/m={m}/trials=25/seed={s}",
                                    lambda n=n, m=m, s=s: wh.homotopy_identity_check(
                                        z2, n, m, trials=25, seed=s)))
    jobs.append(_report_job("afls/cubic-sign/levels=2", lambda: wh.afls_check(cubic, sign, 2)))
    jobs.append(_report_job("afls/z2xz2-swap/levels=1", lambda: wh.afls_check(square, swap, 1)))
    jobs += [_rank_one_job("weyl", "id", 4), _rank_one_job("weyl", "eps", 4),
             _rank_one_job("trig", "id", 4)]
    for kind in ("weyl", "trig"):
        for twist in ("id", "eps"):
            for N in (6, 8, 10):
                jobs.append(_rank_one_job(kind, twist, N))
        jobs.append(_crossed_job(kind, 6))
    jobs.append(_report_job("duality/weyl/N=6", lambda: koszul.duality_check("weyl", 6)))
    jobs.append(_report_job("duality/trig/N=4", lambda: koszul.duality_check("trig", 4)))

    jobs.append(_report_job("cherednik/confluence/n=2/deg=3",
                            lambda: cherednik.confluence_check(2, 3)))
    jobs.append(_report_job("cherednik/confluence/n=3/deg=2",
                            lambda: cherednik.confluence_check(3, 2)))
    for n in (2, 3):
        jobs.append(_report_job(f"cherednik/pbw/n={n}/deg=3",
                                lambda n=n: cherednik.pbw_dimension_check(n, 3)))
    for n in (2, 3):
        s = rng.randrange(2 ** 31)
        jobs.append(_report_job(f"cherednik/associativity/n={n}/trials=10/seed={s}",
                                lambda n=n, s=s: cherednik.associativity_check(
                                    n, trials=10, seed=s)))
        jobs.append(_report_job(f"cherednik/spherical/n={n}",
                                lambda n=n: cherednik.spherical_check(n)))
    for n in (2, 3):
        for _ in range(3):
            word = _random_word(rng, n, 6)
            group = f"cherednik/normal_order/n={n}/{word}"
            for strategy in ("leftmost", "rightmost"):
                jobs.append(Job(f"{group}/{strategy}",
                                lambda w=word, n=n, st=strategy: str(
                                    cherednik.normal_order(w, n, st)).encode(),
                                group))
    return jobs


# ---------------------------------------------------------------------------
# certify-qdeformed: the qweyl windows over Q(q); deterministic


def certify_qdeformed_jobs(seed: int) -> list:
    # eps at N = 8 rather than 7: no two of the jobs that set p50 and p90
    # (id N = 9 and eps N = 8) cost within 15% of a neighbour
    jobs = [_rank_one_job("qweyl", "id", N) for N in range(5, 13)]
    jobs += [_rank_one_job("qweyl", "eps", N) for N in (4, 5, 6, 8)]
    jobs += [_crossed_job("qweyl", N) for N in (4, 5)]
    jobs.append(_report_job("duality/qweyl/N=4", lambda: koszul.duality_check("qweyl", 4)))
    return jobs


WORKLOADS = {
    "tables": tables_jobs,
    "certify-rational": certify_rational_jobs,
    "certify-qdeformed": certify_qdeformed_jobs,
}


# ---------------------------------------------------------------------------
# one pass


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def run_pass(jobs: list, digests: dict, require_digests: bool, tracer=None,
             between=None) -> dict:
    """Run every job once, in order; a failing job is recorded, not raised.

    Returns {"wall": s, "jobs": [[id, seconds, error or None, sha256], ...]}.
    wall is the time spent running and checking jobs; it leaves out
    between(), which runs before each job, and the tracer's folding.
    With a tracer, each job is one root span, folded when the job ends.
    """
    clock = time.perf_counter
    results = []
    reference: dict = {}
    wall = 0.0
    for job in jobs:
        if between is not None:
            between()
        span = tracer.open(tracer.root) if tracer is not None else None
        start = clock()
        out, err = None, None
        try:
            out = job.run()
        except Exception as exc:  # a raising job counts as failed; the run goes on
            err = f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        if span is not None:
            tracer.close(span)
            tracer.fold()
        checked = clock()
        sha = digest(out) if isinstance(out, bytes) else None
        if err is None:
            err = _verify(job, out, sha, digests, require_digests, reference)
        wall += seconds + clock() - checked
        results.append([job.id, seconds, err, sha])
    return {"wall": wall, "jobs": results}


def _verify(job: Job, out, sha, digests: dict, require_digests: bool, reference: dict):
    if not isinstance(out, bytes):
        return f"output is {type(out).__name__}, not bytes"
    try:
        if job.check is not None:
            err = job.check(out)
            if err:
                return err
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    want = digests.get(job.id)
    if want is not None and sha != want:
        return "output does not match the committed digest"
    if want is None and require_digests:
        return "no committed digest for this job"
    # the first output of a group that passed the checks above is the reference
    if job.group is not None and reference.setdefault(job.group, out) != out:
        return f"output differs from the first job of group {job.group}"
    return None
