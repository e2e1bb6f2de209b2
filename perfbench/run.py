"""Benchmark for subsemi: end-to-end passes, or one traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from the
checkout's src/ directory, and nothing needs building. Workloads are closed
loops: one client, whose next call starts only after the previous returns.

  audit_n9            `python -m subsemi verify-theorem --n 9 --json --workers 2`
                      in a fresh interpreter per pass: the paper's audit, as
                      users run it (seed-free: the input is the whole universe).
  count_large         the calls `subsemi count` makes (brute-force count, then
                      the split counter as a cross-check) on ten seeded
                      structures with n = 19-21, loaded with
                      jsonio.structure_from_dict as `--input` would.
  subuniverses_large  enumerate_subuniverses, then sigma_trace_bound on a seeded
                      subset H, on four seeded structures with n = 18-20.

--trace 0 runs passes for about S seconds (at least three), each in a fresh
process, and prints the end-to-end metrics: median wall, CPU (workers
included) and peak RSS of one pass, items (structures audited, structures
counted, subuniverses listed) per second, and the median set-up time of
fresh interpreters that import subsemi and build the inputs (two before each
pass, at least nine).
All times, and so items per second, are read at the reference speed of
probe.py: a fixed unit of the benchmark's own pure-Python work is timed
every 20 ms inside the timed processes, and a pass's seconds, less the
probe's, are scaled by the reference unit time over the pass's mean unit
time (set-up times by the run's median factor). The speed of a shared
host's CPUs drifts by tens of percent within minutes; this removes most of
that drift from the figures, and none of a change in the program's speed.
The samples line prints the seconds as measured too.
--trace 1 runs one traced and one untraced in-process pass with one worker
and prints the per-layer metrics. Every output is checked against
perfbench/oracle.py, which shares no code with the package. The last line of
stdout is one JSON object with correct, attempted, failed and metrics; the
lines before it record the environment and the samples.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import inputs  # noqa: E402  (this file's directory is first on sys.path)
import oracle  # noqa: E402
import probe  # noqa: E402

AUDIT_ITEMS = oracle.SEMILATTICES_N9

MIN_PASSES = 3
PROBES_PER_PASS = 2
MIN_PROBES = 9
AUDIT_WORKERS = 2
DEADLINE_S = 170       # the whole run, children included, ends within this

WORKLOADS = ("audit_n9", "count_large", "subuniverses_large")


class Child:
    """A finished child process: exit code, output, wall time and rusage."""

    def __init__(self, args, deadline):
        self.t0 = time.monotonic()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - self.t0), _kill_group, (proc.pid,))
        timer.start()
        errors = []
        reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
        reader.start()
        try:
            self.stdout = proc.stdout.read()
            # wait4 rather than wait: its rusage covers this child and the
            # workers it waited for, and no other process.
            _, status, self.usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, SIGINT): the child runs in a session of
            # its own, so it and its workers would outlive this process.
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        self.wall = time.monotonic() - self.t0
        self.rc = proc.returncode = os.waitstatus_to_exitcode(status)
        self.stderr = errors[0] if errors else b""

    @property
    def cpu(self):
        return self.usage.ru_utime + self.usage.ru_stime

    @property
    def rss_mib(self):
        return self.usage.ru_maxrss / 1024

    def report(self):
        """The JSON line a perfbench/child.py process printed, or None."""
        if self.rc != 0:
            return None
        try:
            return json.loads(self.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            return None

    def describe(self):
        tail = self.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return f"exit {self.rc}: " + " | ".join(tail)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def child_args(mode, workload, seed):
    return [sys.executable, str(BENCH / "child.py"), mode, workload, str(seed)]


# -- environment ------------------------------------------------------------


def environment(seed, workers, backend):
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "workers": workers,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "backend": backend,
    }


# -- checks -----------------------------------------------------------------


class Checker:
    """Compares one workload's results with the oracle; counts items and failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        if workload == "audit_n9":
            self.reference = oracle.reference_audit()
        elif workload == "count_large":
            self.expected = oracle.expected_counts(inputs.count_suite(seed))
        else:
            self.expected = oracle.expected_listings(inputs.subuniverse_suite(seed))

    def fail(self, items, why):
        self.failed += items
        if len(self.problems) < 10:
            self.problems.append(why)

    def audit(self, stdout, rc):
        self.attempted += AUDIT_ITEMS
        if rc != 1 or stdout != self.reference:
            self.fail(AUDIT_ITEMS, f"audit output differs from the reference (exit {rc})")

    def universe(self, structures):
        """The traced audit enumerated as many structures as A006966 counts."""
        if self.workload == "audit_n9" and structures != AUDIT_ITEMS:
            self.fail(AUDIT_ITEMS, f"enumerated {structures} structures, not {AUDIT_ITEMS}")

    def results(self, results):
        """Check a child's results; None means the child failed."""
        if self.workload == "count_large":
            self.attempted += len(self.expected)
            if results is None or len(results) != len(self.expected):
                self.fail(len(self.expected), "count_large pass did not finish")
                return
            for (n, count), r in zip(self.expected, results):
                want = oracle.sigma(count, n)
                ok = (r["n"] == n and r["brute"] == r["split"] == count
                      and Fraction(r["brute_sigma"]) == want == Fraction(r["split_sigma"]))
                if not ok:
                    self.fail(1, f"count_large n={n}: got {r}, expected count {count}")
        else:
            total = sum(e[1] for e in self.expected)
            self.attempted += total
            if results is None or len(results) != len(self.expected):
                self.fail(total, "subuniverses_large pass did not finish")
                return
            for (n, count, digest, bound), r in zip(self.expected, results):
                ok = (r["n"] == n and r["listed"] == r["split"] == count and r["ascending"]
                      and r["digest"] == digest and Fraction(r["bound"]) == bound
                      and bound >= oracle.sigma(count, n))
                if not ok:
                    self.fail(count, f"subuniverses_large n={n}: got {r}, expected "
                                     f"{count} subsets, bound {bound}")

    def child(self, child):
        """Check what a child.py pass or trace reported; returns its report."""
        report = child.report()
        if report is None and len(self.problems) < 10:
            self.problems.append(f"{self.workload} child failed, {child.describe()}")
        if self.workload == "audit_n9":
            results = report["results"] if report else {"stdout": "", "rc": None}
            self.audit(results["stdout"].encode(), results["rc"])
        else:
            self.results(report["results"] if report else None)
        return report


# -- runs -------------------------------------------------------------------


def setup_time(workload, seed, deadline):
    """Seconds from spawn to inputs built for a fresh interpreter; and the backend."""
    child = Child(child_args("setup", workload, seed), deadline)
    report = child.report()
    if report is None:
        raise RuntimeError(f"set-up failed, {child.describe()}")
    return report["ready"] - child.t0, report["backend"]


def one_pass(workload, seed, checker, deadline):
    """(wall, cpu, peak RSS MiB, items) of one end-to-end pass, wall and CPU
    at the reference speed of probe.py; then wall and CPU as measured, and
    the speed factor (reference seconds per measured second)."""
    if workload == "audit_n9":
        child = Child([sys.executable, str(BENCH / "probe.py"), "-m", "subsemi",
                       "verify-theorem", "--n", str(inputs.AUDIT_N), "--json",
                       "--workers", str(AUDIT_WORKERS)], deadline)
        checker.audit(child.stdout, child.rc)
        main, others = probe.totals(child.stderr)
        units = sum(t["units"] for t in main + others)
        spent = sum(t["seconds"] for t in main + others)
        if len(main) != 1 or not units:
            checker.problems.append(f"audit pass reported no probe totals, {child.describe()}")
            return child.wall, child.cpu, child.rss_mib, 0, child.wall, child.cpu, 1.0
        # The main process's probe time delays the pass; the workers' probe
        # time runs beside it, on the other CPU, and costs only CPU time.
        wall = probe.at_reference(child.wall, main[0]["seconds"], units, spent)
        cpu = probe.at_reference(child.cpu, spent, units, spent)
        return (wall, cpu, child.rss_mib, AUDIT_ITEMS, child.wall, child.cpu,
                probe.at_reference(1.0, 0.0, units, spent))
    child = Child(child_args("pass", workload, seed), deadline)
    report = checker.child(child)
    if report is None or not report["probe"]["units"]:
        if report is not None:
            checker.problems.append(f"{workload} pass timed no probe unit")
        return child.wall, child.cpu, child.rss_mib, 0, child.wall, child.cpu, 1.0
    if workload == "count_large":
        items = len(report["results"])
    else:
        items = sum(r["listed"] for r in report["results"])
    units, spent = report["probe"]["units"], report["probe"]["seconds"]
    return (probe.at_reference(report["wall"], spent, units, spent),
            probe.at_reference(report["cpu"], spent, units, spent), child.rss_mib,
            items, report["wall"], report["cpu"], probe.at_reference(1.0, 0.0, units, spent))


def end_to_end(workload, seed, seconds, checker, deadline):
    # Set-up timings run between passes, so that they sample the machine over
    # the whole run as the passes do, not in one burst. A further pass starts
    # while it would end at most half a pass after `seconds`, so that runs
    # last `seconds` on average, whatever the length of a pass.
    setup, samples = [], []
    start = time.monotonic()
    while len(samples) < MIN_PASSES or (
            time.monotonic() - start + statistics.median(s[4] for s in samples) / 2
            <= seconds):
        if time.monotonic() >= deadline:
            break
        for _ in range(PROBES_PER_PASS):
            setup.append(setup_time(workload, seed, deadline))
        samples.append(one_pass(workload, seed, checker, deadline))
    while len(setup) < MIN_PROBES:
        setup.append(setup_time(workload, seed, deadline))
    backend = setup[-1][1]
    setup = [t for t, _ in setup]
    # Set-up is read at the run's median speed factor: its fresh interpreters
    # are too short-lived to probe, and they ran amid the probed passes.
    speed = statistics.median(s[6] for s in samples)
    metrics = {
        "setup_s": (statistics.median(setup) * speed, "s"),
        "wall_s": (statistics.median(s[0] for s in samples), "s"),
        "cpu_s": (statistics.median(s[1] for s in samples), "s"),
        "peak_rss_mib": (statistics.median(s[2] for s in samples), "MiB"),
        "items_per_s": (statistics.median(s[3] / s[0] for s in samples), "1/s"),
    }
    print(f"samples: setup_s={[round(t, 4) for t in setup]} (as measured) passes="
          f"{[[round(v, 4) for v in s] for s in samples]} (wall and cpu at the "
          "reference speed, rss_mib, items, wall and cpu as measured, speed factor)")
    return metrics, backend


def traced(workload, seed, checker, deadline):
    trace = Child(child_args("trace", workload, seed), deadline)
    trace_report = checker.child(trace)
    plain = Child(child_args("pass", workload, seed), deadline)
    plain_report = checker.child(plain)
    if trace_report is None or plain_report is None:
        raise RuntimeError("traced run failed: " + "; ".join(checker.problems))
    metrics = {name: tuple(pair) for name, pair in trace_report["metrics"].items()}
    if "enumeration" not in trace_report["absent"]:
        checker.universe(metrics["enumeration.structures"][0])
    plain_wall = plain_report["wall"] - plain_report["probe"]["seconds"]
    metrics["trace_overhead_s"] = (trace_report["wall"] - plain_wall, "s")
    if trace_report["absent"]:
        print(f"absent layers: {trace_report['absent']}")
    print(f"traced wall {trace_report['wall']:.4f} s, untraced serial wall "
          f"{plain_wall:.4f} s")
    return metrics, trace_report["backend"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "subsemi" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'subsemi'}; run from a subsemi checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    checker = Checker(args.workload, args.seed)
    if args.trace:
        metrics, backend = traced(args.workload, args.seed, checker, deadline)
    else:
        metrics, backend = end_to_end(args.workload, args.seed, args.seconds, checker,
                                      deadline)
    workers = AUDIT_WORKERS if args.workload == "audit_n9" and not args.trace else 1
    print("env: " + json.dumps(environment(args.seed, workers, backend), sort_keys=True))
    for problem in checker.problems:
        print(f"check failed: {problem}")
    error_rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"error_rate: {error_rate} ({checker.failed} of {checker.attempted} items)")
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
