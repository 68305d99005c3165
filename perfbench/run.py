"""Benchmark of the wreath-hochschild engine, driven from outside.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
tables, certify-rational, certify-qdeformed.  Each is a closed loop with
one client in one single-threaded process: a fixed job list, generated
from --seed, is run pass after pass, and the next job starts only when
the previous one returns.  Every pass runs in a freshly forked child of a
process that has imported the package and run nothing else, so each pass
sees the module-level caches of a fresh `wreath-hh` process, and their
cold cost lands in wall_s.

--trace 0 prints the end-to-end metrics: wall_s (median seconds per pass),
job_s.p50 and job_s.p90 (per-job latency over all jobs of the run),
setup_s (import, preset catalogue and first argument parse, median over
fresh interpreters) and peak_rss_mb (largest pass process).  failed_frac
is printed as well; failures are also counted in the result's `failed`.

Times are reference seconds (see probe.py).  The machine's speed drifts
on a shared host, for every job alike, so raw run medians disagree by
more than any useful bound.  Each pass is therefore scaled by the median
time of a fixed stdlib probe run between its jobs, and each set-up sample
by probes run right after it in the same interpreter.  The raw medians
and the speed factor are printed beside them.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of spans.py, plus trace.overhead_frac, the traced job time over
the untraced job time, minus 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Other modes:

    --write-digests   record the default seed's output digests
    --self-check      show that a corrupted and a raising job are counted
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from probe import REFERENCE_S, probe_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
EXPECTATIONS = os.path.join(HERE, "expectations.json")

PINNED_HASH_SEED = "0"
DEFAULT_SEED = 0  # the seed whose outputs digests.json records
MIN_PASSES = 3
MIN_JOB_SAMPLES = 100  # p90 with at least ten samples beyond it
SETUP_SAMPLES = 20
PROBE_INTERVAL_S = 0.3

# the probes run after the timed part, so that they import nothing into it
SETUP_CODE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from wreath_hochschild import cli, presets_io, wreath
for name in sorted(wreath.PRESETS):
    presets_io.load_preset(name)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["deform", "--preset", "weyl", "-n", "2"])
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from probe import probe_seconds
print(code, seconds, *(probe_seconds() for _ in range(3)))
"""


def _pin_environment() -> None:
    """Re-exec under a fixed hash seed and without HH_SIZE_CAP.

    A stray HH_SIZE_CAP changes which jobs raise; the hash seed fixes the
    iteration order of string-keyed sets.
    """
    env = dict(os.environ)
    changed = env.pop("HH_SIZE_CAP", None) is not None
    if env.get("PYTHONHASHSEED") != PINNED_HASH_SEED:
        env["PYTHONHASHSEED"] = PINNED_HASH_SEED
        changed = True
    if changed:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:], env)


class _SpeedProbe:
    """Probes the machine between jobs, at most every PROBE_INTERVAL_S, so
    that a pass's speed factor follows the machine through the pass."""

    def __init__(self):
        self.times = []
        self.last = -math.inf

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.times.append(probe_seconds())
            self.last = time.perf_counter()

    def speed(self) -> float:
        """Factor turning the pass's measured seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.times)


def _import_engine() -> None:
    if not os.path.isfile(os.path.join(SRC, "wreath_hochschild", "__init__.py")):
        raise SystemExit(f"error: no engine source under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import wreath_hochschild

    if not os.path.abspath(wreath_hochschild.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {wreath_hochschild.__file__}, not the source tree")


# ---------------------------------------------------------------------------
# environment facts printed with every result


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _print_environment(args) -> None:
    print(f"python {platform.python_version()} | nproc {len(os.sched_getaffinity(0))} | "
          f"commit {_git_commit()} | src sha256 {_source_digest()}")
    print(f"workload {args.workload} | seed {args.seed} | seconds {args.seconds} | "
          f"trace {args.trace} | PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')} | "
          f"HH_SIZE_CAP {'unset' if 'HH_SIZE_CAP' not in os.environ else 'set'}")


# ---------------------------------------------------------------------------
# passes


def _forked_pass(workloads, spans, jobs, digests, require, traced: bool) -> dict:
    """Run one pass in a forked child and return its result.

    The child probes the machine's speed between its jobs and after the
    last one.  The probes run in the same busy process as the jobs, since
    a probe after an idle wait reads the machine at another clock speed.
    A first probe, discarded, takes the copy-on-write faults of the fresh
    child.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child must never return into the parent's loop, whatever happens
        code = 1
        try:
            os.close(r)
            tracer = None
            if traced:
                tracer = spans.Tracer()
                spans.install(tracer)
            probe_seconds()
            probe = _SpeedProbe()
            result = workloads.run_pass(jobs, digests, require, tracer, probe)
            probe.times.append(probe_seconds())
            result["speed"] = probe.speed()
            result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                result["layers"] = tracer.metrics()
            payload = json.dumps(result)
            code = 0
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
        try:
            with os.fdopen(w, "w") as fh:
                fh.write(payload)
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    result = json.loads(data) if data else {"error": "pass process wrote no result"}
    if "error" in result or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"pass process failed:\n{result.get('error', status)}")
    return result


def _setup_sample() -> tuple:
    """(seconds, speed): import, catalogue and a first command, timed inside
    a fresh interpreter, and the speed factor of probes run right after."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 5 or fields[0] != "0":
        raise RuntimeError(f"setup timing failed: {proc.stderr.strip()}")
    return float(fields[1]), REFERENCE_S / statistics.median(map(float, fields[2:]))


def _quartiles(values: list) -> tuple:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _result_line(failures: list, attempted: int, metrics: dict) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _print_failures(failures: list) -> None:
    for job_id, err in failures[:20]:
        print(f"FAILED {job_id}: {err}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures")


def _failures(passes: list) -> list:
    return [(job_id, err) for p in passes for job_id, _, err, _ in p["jobs"] if err]


def _job_seconds(p: dict) -> float:
    """Reference seconds spent inside the pass's jobs."""
    return p["speed"] * sum(row[1] for row in p["jobs"])


def _min_passes(jobs: list) -> int:
    return max(MIN_PASSES, math.ceil(MIN_JOB_SAMPLES / len(jobs)))


def _run_untraced(args, workloads, spans, jobs, digests, require) -> None:
    _setup_sample()  # may compile bytecode; not counted
    passes, setup = [], []
    t0 = time.perf_counter()
    # one set-up sample after each pass spreads them over the run
    while len(passes) < _min_passes(jobs) or time.perf_counter() - t0 < args.seconds:
        passes.append(_forked_pass(workloads, spans, jobs, digests, require, False))
        setup.append(_setup_sample())
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample())
    walls = [p["wall"] * p["speed"] for p in passes]
    samples = [row[1] * p["speed"] for p in passes for row in p["jobs"]]
    setups = [seconds * speed for seconds, speed in setup]
    failures = _failures(passes)
    wall = statistics.median(walls)
    setup_s = statistics.median(setups)
    p50 = statistics.median(samples)
    p90 = statistics.quantiles(samples, n=10)[8]
    rss = max(p["rss_kb"] for p in passes) / 1024
    wq, sq = _quartiles(walls), _quartiles(setups)
    speed = statistics.median(p["speed"] for p in passes)
    raw_wall = statistics.median(p["wall"] for p in passes)
    print(f"machine speed {speed:.3f} x reference (median over passes); times below are "
          f"reference seconds, raw wall median {raw_wall:.4f} s")
    print(f"wall_s       {wall:.4f} s  median of {len(walls)} passes "
          f"(q1 {wq[0]:.4f}, q3 {wq[1]:.4f}); {len(jobs)} jobs per pass")
    print(f"job_s.p50    {p50:.6f} s  over {len(samples)} jobs")
    print(f"job_s.p90    {p90:.6f} s  over {len(samples)} jobs")
    print(f"setup_s      {setup_s:.4f} s  median of {len(setups)} fresh interpreters "
          f"(q1 {sq[0]:.4f}, q3 {sq[1]:.4f}; raw median "
          f"{statistics.median(x for x, _ in setup):.4f} s)")
    print(f"peak_rss_mb  {rss:.1f} MB  largest pass process")
    print(f"failed_frac  {len(failures) / len(samples):.4f}  "
          f"({len(failures)} of {len(samples)} jobs)")
    _print_failures(failures)
    print(_result_line(failures, len(samples), {
        "wall_s": (wall, "s"),
        "job_s.p50": (p50, "s"),
        "job_s.p90": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }))


def _run_traced(args, workloads, spans, jobs, digests, require) -> None:
    plain, traced = [], []
    t0 = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        plain.append(_forked_pass(workloads, spans, jobs, digests, require, False))
        traced.append(_forked_pass(workloads, spans, jobs, digests, require, True))
    failures = _failures(plain + traced)
    attempted = sum(len(p["jobs"]) for p in plain + traced)
    names = list(traced[0]["layers"])
    # median_low: counters, which repeat exactly, stay whole numbers
    layers = {k: statistics.median_low(p["layers"][k] * (p["speed"] if k.endswith(".self_s")
                                                          else 1) for p in traced)
              for k in names}
    traced_s = statistics.median(_job_seconds(p) for p in traced)
    plain_s = statistics.median(_job_seconds(p) for p in plain)
    layers["trace.overhead_frac"] = traced_s / plain_s - 1
    print(f"traced job time {traced_s:.4f} s per pass vs untraced {plain_s:.4f} s "
          f"(medians of {len(traced)} and {len(plain)} passes)")
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    for name in spans.LAYERS:
        self_s = layers[f"{name}.self_s"]
        counters = ", ".join(f"{k.split('.', 1)[1]}={layers[k]:g}" for k in names
                             if k.startswith(name + ".") and not k.endswith(".self_s"))
        print(f"{name:13s} self {self_s:9.4f} s {100 * self_s / total:5.1f}%  {counters}")
    print(f"trace.overhead_frac {layers['trace.overhead_frac']:.4f}")
    for rule in _load_json(EXPECTATIONS)["placement"]:
        value = layers[rule["metric"]]
        if args.workload in rule.get("zero_on", ()):
            held = value == 0
            want = "= 0"
        elif args.workload in rule.get("nonzero_on", ()):
            held = value != 0
            want = "!= 0"
        else:
            continue
        print(f"placement {rule['metric']} {want} on {args.workload}: "
              f"{'holds' if held else 'DOES NOT HOLD'} ({value:g})")
    _print_failures(failures)
    units = _load_json(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"]
    print(_result_line(failures, attempted,
                       {m["name"]: (layers[m["name"]], m["unit"]) for m in units}))


# ---------------------------------------------------------------------------
# maintenance modes


def _write_digests(args, workloads) -> int:
    jobs = workloads.WORKLOADS[args.workload](DEFAULT_SEED)
    result = workloads.run_pass(jobs, {}, False)
    failures = _failures([result])
    if failures:
        _print_failures(failures)
        print("digests not written: the pass has failures")
        return 1
    if len({job.id for job in jobs}) != len(jobs):
        raise SystemExit("error: duplicate job ids")
    table = _load_json(DIGESTS) if os.path.exists(DIGESTS) else {}
    table[args.workload] = {job_id: sha for job_id, _, _, sha in result["jobs"]}
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(jobs)} digests for {args.workload}")
    return 0


def _self_check(args, workloads) -> int:
    """A corrupted output and a raising job each count once; the rest pass."""
    jobs = workloads.WORKLOADS[args.workload](DEFAULT_SEED)
    digests = _load_json(DIGESTS)[args.workload]
    corrupt, raising = jobs[0], jobs[1]

    def flipped(job=corrupt):
        out = job.run()
        return out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]

    def boom():
        raise RuntimeError("deliberate failure")

    bad = [workloads.Job(corrupt.id, flipped, corrupt.group, corrupt.check),
           workloads.Job(raising.id, boom, raising.group, raising.check)] + jobs[2:]
    result = workloads.run_pass(bad, digests, True)
    failed = sorted(job_id for job_id, _ in _failures([result]))
    _print_failures(_failures([result]))
    ok = len(result["jobs"]) == len(jobs) and failed == sorted([corrupt.id, raising.id])
    print(f"self-check {'passed' if ok else 'FAILED'}: {len(failed)} of "
          f"{len(result['jobs'])} jobs failed, expected exactly the 2 altered ones")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "certify-rational", "certify-qdeformed"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write-digests", action="store_true")
    mode.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    _pin_environment()
    _import_engine()
    import spans
    import workloads

    if args.write_digests:
        return _write_digests(args, workloads)
    if args.self_check:
        return _self_check(args, workloads)
    _print_environment(args)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    digests = _load_json(DIGESTS).get(args.workload, {})
    require = args.seed == DEFAULT_SEED
    if args.trace:
        _run_traced(args, workloads, spans, jobs, digests, require)
    else:
        _run_untraced(args, workloads, spans, jobs, digests, require)
    return 0


if __name__ == "__main__":
    sys.exit(main())
