"""The arrtwist benchmark: seeded workloads run through the CLI in-process.

    python3 bench/run.py --workload laurent --seed 0 --seconds 54 --trace 0

Run from the repository root (the package is imported from ``src/``).  Each
job is one ``arrtwist.cli.main(argv)`` call with stdout captured; one client,
no threads, the next job starts when the previous one returns (a closed
loop).  The job list is repeated in passes until the next pass would overrun
``--seconds``.  Every output is checked: exit code, the job's closed-form
oracle, agreement between passes, and for the recorded seed the SHA-256 of
the report stored in ``expected.json``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it carries per-job
detail (sizes, digests, times), the tail percentile and the host
calibration time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_REPEATS = 5
TAIL_BEYOND = 10

sys.path.insert(0, HERE)
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import arrtwist afresh from the checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "arrtwist", "cli.py")):
        raise ProgramMissing(f"no arrtwist sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [k for k in sys.modules if k == "arrtwist" or k.startswith("arrtwist.")]:
        del sys.modules[name]
    cli = importlib.import_module("arrtwist.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"arrtwist imported from {cli.__file__}, not {SRC}")
    return cli


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
    except OSError:
        pass


def write_inputs(jobs, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    for k, job in enumerate(jobs):
        jobdir = os.path.join(workdir, f"{k:02d}")
        os.makedirs(jobdir)
        for name, text in job.files.items():
            with open(os.path.join(jobdir, name), "w") as fh:
                fh.write(text)


def run_job(cli, job, k, workdir):
    """One CLI call: (exit code, seconds, stdout, exception text or None)."""
    argv = job.resolved_argv(os.path.join(workdir, f"{k:02d}"))
    buf = io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejected the command line
        rc, error = e.code, f"usage error (exit {e.code})"
    except Exception as e:  # a crash is a failed job, not a failed run
        rc, error = None, f"{type(e).__name__}: {e}"
    return rc, perf_counter() - start, buf.getvalue(), error


def setup(workload, seed, workdir):
    """Import, generate and write inputs, one warm-up job: (seconds, cli, jobs)."""
    start = perf_counter()
    cli = import_program()
    jobs = make_jobs(workload, seed)
    write_inputs(jobs, workdir)
    run_job(cli, jobs[0], 0, workdir)
    return perf_counter() - start, cli, jobs


def calibrate():
    """A fixed stdlib-only loop (Fraction polynomial products) to read host
    speed drift next to the metrics; metrics are never divided by it."""
    a = [Fraction(k + 1, 2 * k + 3) for k in range(24)]
    b = [Fraction(3 * k - 7, k + 5) for k in range(24)]
    start = perf_counter()
    for _ in range(12):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    return perf_counter() - start


class Checker:
    """Checks outputs and keeps one digest per job across passes."""

    def __init__(self, workload, seed, jobs):
        self.jobs = jobs
        self.digests = {}
        self.exits = {}
        self.problems = []
        self.failed = 0
        self.attempted = 0
        self.expected = {}
        if os.path.isfile(EXPECTED):
            with open(EXPECTED) as fh:
                data = json.load(fh)
            if data["seed"] == seed:
                self.expected = data["jobs"].get(workload, {})

    def check(self, k, rc, out, error):
        job = self.jobs[k]
        bad = [error] if error else []
        if rc != job.expect_exit:
            bad.append(f"exit {rc}, expected {job.expect_exit}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            bad.append("report differs from an earlier pass")
        self.exits[k] = rc
        want = self.expected.get(job.id)
        if want is not None and want != [rc, digest]:
            bad.append("exit code or report digest differs from expected.json")
        try:
            report = json.loads(out)
        except ValueError:
            bad.append("report is not JSON")
        else:
            bad.extend(job.oracle(report))
        self.attempted += 1
        if bad:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"job": job.id, "problems": bad})


def run_passes(cli, jobs, workdir, checker, budget, tracer=None):
    """Repeat the job list until the next pass would overrun ``budget``
    seconds (at least one pass).  Returns (pass times, per-job times)."""
    deadline = perf_counter() + budget
    pass_times, job_times = [], [[] for _ in jobs]
    while True:
        outputs = []
        start = perf_counter()
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
            rc, dt, out, error = run_job(cli, job, k, workdir)
            job_times[k].append(dt)
            outputs.append((rc, out, error))
        pass_times.append(perf_counter() - start)
        for k, (rc, out, error) in enumerate(outputs):
            checker.check(k, rc, out, error)
        if perf_counter() + statistics.median(pass_times) > deadline:
            return pass_times, job_times


def tail(samples):
    """The sample at the highest percentile with TAIL_BEYOND samples above
    it: (value, percentile)."""
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=54.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, cli, jobs = setup(args.workload, args.seed, workdir)
            setups.append(seconds)
        calib = [calibrate() for _ in range(3)]
        checker = Checker(args.workload, args.seed, jobs)
        budget = args.seconds / 2 if args.trace else args.seconds
        pass_times, job_times = run_passes(cli, jobs, workdir, checker, budget)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_times, _ = run_passes(cli, jobs, workdir, checker, budget, tracer)
            finally:
                tracer.uninstall()
        calib += [calibrate() for _ in range(3)]
    except ProgramMissing as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        remove_workdir(workdir)

    # The tail is taken within each pass (every pass runs the same job list)
    # and its median reported, so it does not depend on the pass count.
    tails = [tail(list(per_pass)) for per_pass in zip(*job_times)]
    wall = statistics.median(pass_times)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(pass_times),
        "pass_times_s": pass_times,
        "setup_samples_s": setups,
        "job_tail": {"percentile": tails[0][1], "jobs_per_pass": len(jobs), "beyond": TAIL_BEYOND},
        "host.calib_s": statistics.median(calib),
        "failed_frac": checker.failed / checker.attempted,
        "problems": checker.problems,
        "jobs": [
            {"id": job.id, "argv": job.argv, "sizes": job.sizes, "exit": checker.exits.get(k),
             "sha256": checker.digests.get(k), "median_s": statistics.median(job_times[k])}
            for k, job in enumerate(jobs)
        ],
    }
    if args.trace:
        metrics = tracer.layer_metrics(len(traced_times))
        metrics["trace.overhead_s"] = statistics.median(traced_times) - wall
        metrics["host.calib_s"] = detail["host.calib_s"]
        detail["traced_pass_times_s"] = traced_times
        detail["spans"] = len(tracer.span_name)
        for k, entry in enumerate(detail["jobs"]):
            entry["boundaries"] = sorted(set(tracer.jobs[k].boundaries))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "job_p50_s": statistics.median(t for ts in job_times for t in ts),
            "job_tail_s": statistics.median(t for t, _ in tails),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - checker.failed / checker.attempted,
        }
    units = metric_units()
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def metric_units():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
