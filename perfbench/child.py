"""Child-process side of the benchmark: one workload, one fresh interpreter.

    python perfbench/child.py MODE WORKLOAD SEED

MODE is one of
  setup  import subsemi and build the workload's inputs, then exit;
  pass   build the inputs and run one untraced pass with one worker, with
         the machine-speed probe of probe.py running;
  trace  the same pass without the probe, with spans recorded around the
         calls into each layer.

Each mode prints one JSON line: "ready" (CLOCK_MONOTONIC after set-up),
"wall" and "cpu" (seconds inside the timed calls), the workload's results,
in pass mode "probe" (units and seconds of the probe inside the timed
calls), and in trace mode the per-layer metrics. A fresh interpreter per
pass keeps the package's in-process caches (enumeration levels, family
codes) cold, as they are for a user's run. The parent puts the checkout's src/ on
PYTHONPATH; this file refuses a subsemi imported from anywhere else.
"""

import hashlib
import importlib
import io
import json
import resource
import sys
import time
from array import array
from contextlib import redirect_stdout
from pathlib import Path

import inputs
from probe import PROBE

SRC = Path(__file__).resolve().parent.parent / "src"
AUDIT_ARGV = ["verify-theorem", "--n", str(inputs.AUDIT_N), "--json", "--workers", "1"]


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Timed:
    """Sums wall and CPU seconds over the timed sections of a pass, and the
    probe units timed inside them."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.units = 0
        self.probe_s = 0.0

    def __enter__(self):
        self._p = (PROBE.units, PROBE.seconds)
        self._t = time.perf_counter()
        self._c = _cpu()

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._t
        self.cpu += _cpu() - self._c
        self.units += PROBE.units - self._p[0]
        self.probe_s += PROBE.seconds - self._p[1]


# -- workloads --------------------------------------------------------------
# Each is (set-up, pass). The pass calls only user-facing surfaces: the CLI,
# names in subsemi.__all__, and jsonio.structure_from_dict. It looks them up
# on their modules at call time, so the tracer's wrappers are seen.


def _load(data):
    import subsemi.jsonio
    return subsemi.jsonio.structure_from_dict(data)[0]


def audit_setup(seed):
    import subsemi.cli  # noqa: F401  (the CLI's own import cost)
    return None


def audit_pass(_, timed):
    import subsemi.cli
    out = io.StringIO()
    with timed, redirect_stdout(out):
        rc = subsemi.cli.main(AUDIT_ARGV)
    return {"stdout": out.getvalue(), "rc": rc}


def count_setup(seed):
    return [_load(data) for data, _ in inputs.count_suite(seed)]


def count_pass(structures, timed):
    import subsemi
    results = []
    for a in structures:
        with timed:
            brute = subsemi.count_subuniverses_bruteforce(a)
            split = subsemi.count_subuniverses_split(a, 0)
        results.append({"n": a.n, "brute": brute.count, "brute_sigma": str(brute.sigma),
                        "split": split.count, "split_sigma": str(split.sigma)})
    return results


def subuniverses_setup(seed):
    return [(_load(data), h) for data, h, _ in inputs.subuniverse_suite(seed)]


def subuniverses_pass(suite, timed):
    import subsemi
    results = []
    for a, h in suite:
        with timed:
            subs = subsemi.enumerate_subuniverses(a)
            bound = subsemi.sigma_trace_bound(a, h)
        ascending = all(x < y for x, y in zip(subs, subs[1:]))
        digest = hashlib.sha256(array("Q", subs).tobytes()).hexdigest()
        listed = len(subs)
        del subs
        # The split count is a check, not part of the workload: it is called
        # through subsemi.counting, a binding the tracer leaves alone.
        results.append({"n": a.n, "listed": listed, "ascending": ascending,
                        "digest": digest, "bound": str(bound),
                        "split": subsemi.counting.count_subuniverses_split(a, 0).count})
    return results


WORKLOADS = {
    "audit_n9": (audit_setup, audit_pass),
    "count_large": (count_setup, count_pass),
    "subuniverses_large": (subuniverses_setup, subuniverses_pass),
}


# -- tracing ----------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) recorded by wrapping module functions."""

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.nested = [], [], [], [], []
        self.stack = []
        self.active = {}
        self.counters = {"kernel.subsets_scanned": 0, "kernel.closed_emitted": 0}
        self.levels = {}      # n -> (stats, structures) of each EnumerationRun seen

    def wrap(self, module_name, attr, span, hook=None):
        """Replace module.attr by a recording wrapper; False if it does not exist."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(span)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.nested.append(tracer.active.get(span, 0) > 0)
            tracer.end.append(0.0)
            tracer.active[span] = tracer.active.get(span, 0) + 1
            tracer.stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.stack.pop()
                tracer.active[span] -= 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)
        return True

    def summary(self):
        """{span: (calls, busy, self)}: busy counts only the outermost span of a
        recursion; self is a span's duration minus its direct children."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i, span in enumerate(self.name):
            calls, busy, own = out.get(span, (0, 0.0, 0.0))
            dur = self.end[i] - self.start[i]
            out[span] = (calls + 1, busy + (0.0 if self.nested[i] else dur),
                         own + dur - child[i])
        return out


# Hooks read call arguments and results defensively: a changed signature
# leaves a counter at zero instead of failing the traced run.


def _scanned(tracer, args, result):
    if args and isinstance(args[0], int):
        tracer.counters["kernel.subsets_scanned"] += 1 << args[0]


def _emitted(tracer, args, result):
    tracer.counters["kernel.closed_emitted"] += len(result)


def _level(tracer, args, result):
    stats = getattr(result, "stats", None)
    if isinstance(stats, dict) and hasattr(result, "structures"):
        tracer.levels[result.n] = (dict(stats), len(result.structures))


# (module, name bound there, span, hook). Each function is wrapped under the
# name its callers use: canonical_form as imported into each calling module,
# the kernel through the kernel module the counters call, and the public
# names the workloads call through the subsemi package.
TARGETS = (
    ("subsemi.cli", "main", "cli", None),
    ("subsemi.verifier", "verify_theorem", "verifier", None),
    ("subsemi.verifier", "enumerate_semilattices", "enumeration", _level),
    ("subsemi.enumeration", "enumerate_semilattices", "enumeration", _level),
    ("subsemi.enumeration", "_upclosed_extensions", "enumeration.extensions", None),
    ("subsemi.enumeration", "canonical_form", "order.canonical_form", None),
    ("subsemi.verifier", "canonical_form", "order.canonical_form", None),
    ("subsemi.analysis", "canonical_form", "order.canonical_form", None),
    ("subsemi.cli", "canonical_form", "order.canonical_form", None),
    ("subsemi.enumeration", "to_semilattice", "order.to_semilattice", None),
    ("subsemi.verifier", "to_semilattice", "order.to_semilattice", None),
    ("subsemi.analysis", "family_codes", "analysis.family_codes", None),
    ("subsemi.verifier", "count_subuniverses_bruteforce", "counting.bruteforce", None),
    ("subsemi", "count_subuniverses_bruteforce", "counting.bruteforce", None),
    ("subsemi.verifier", "count_subuniverses_split", "counting.split", None),
    ("subsemi", "count_subuniverses_split", "counting.split", None),
    ("subsemi", "sigma_trace_bound", "counting.trace_bound", None),
    ("subsemi.kernel", "count_closed", "kernel.count_closed", _scanned),
    ("subsemi.kernel", "enumerate_closed", "kernel.enumerate_closed", _emitted),
    ("subsemi.jsonio", "structure_from_dict", "jsonio.structure_from_dict", None),
)


def install():
    """Wrap every target; a span is absent when none of its bindings exists."""
    tracer = Tracer()
    present = set()
    for module_name, attr, span, hook in TARGETS:
        if tracer.wrap(module_name, attr, span, hook):
            present.add(span)
    tracer.absent = {span for _, _, span, _ in TARGETS} - present
    return tracer


def layer_metrics(tracer):
    """Per-layer metrics (name -> (value, unit)) and the layers reported absent."""
    spans = tracer.summary()

    def calls(s):
        return spans.get(s, (0, 0.0, 0.0))[0]

    def busy(s):
        return spans.get(s, (0, 0.0, 0.0))[1]

    def own(s):
        return spans.get(s, (0, 0.0, 0.0))[2]

    generated = [stats for n, (stats, _) in tracer.levels.items() if n > 1]
    candidates = sum(s.get("candidates", 0) for s in generated)
    structures = tracer.levels[max(tracer.levels)][1] if tracer.levels else 0
    scanned = tracer.counters["kernel.subsets_scanned"]
    metrics = {
        "enumeration.busy_s": (busy("enumeration"), "s"),
        "enumeration.extensions_s": (busy("enumeration.extensions"), "s"),
        "enumeration.candidates": (candidates, "count"),
        "enumeration.duplicates": (sum(s.get("duplicates", 0) for s in generated), "count"),
        "enumeration.structures": (structures, "count"),
        "enumeration.kept_ratio": (structures / candidates if candidates else 0.0, "ratio"),
        "order.canonical_form.calls": (calls("order.canonical_form"), "count"),
        "order.canonical_form.busy_s": (busy("order.canonical_form"), "s"),
        "order.to_semilattice.busy_s": (busy("order.to_semilattice"), "s"),
        "kernel.count_closed.calls": (calls("kernel.count_closed"), "count"),
        "kernel.count_closed.busy_s": (busy("kernel.count_closed"), "s"),
        "kernel.subsets_scanned": (scanned, "count"),
        "kernel.subsets_per_s": (scanned / busy("kernel.count_closed") if scanned else 0.0, "1/s"),
        "kernel.enumerate_closed.calls": (calls("kernel.enumerate_closed"), "count"),
        "kernel.enumerate_closed.busy_s": (busy("kernel.enumerate_closed"), "s"),
        "kernel.closed_emitted": (tracer.counters["kernel.closed_emitted"], "count"),
        "counting.bruteforce.self_s": (own("counting.bruteforce"), "s"),
        "counting.split.calls": (calls("counting.split"), "count"),
        "counting.split.busy_s": (busy("counting.split"), "s"),
        "counting.trace_bound.self_s": (own("counting.trace_bound"), "s"),
        "analysis.family_codes.busy_s": (busy("analysis.family_codes"), "s"),
        "verifier.self_s": (own("verifier"), "s"),
        "cli.self_s": (own("cli"), "s"),
        "jsonio.structure_from_dict.busy_s": (busy("jsonio.structure_from_dict"), "s"),
    }
    return metrics, sorted(tracer.absent)


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    tracer = None
    if mode == "trace":
        tracer = install()
    import subsemi
    if SRC not in Path(subsemi.__file__).resolve().parents:
        raise SystemExit(f"subsemi imported from {subsemi.__file__}, not from {SRC}")
    setup, one_pass = WORKLOADS[workload]
    data = setup(seed)
    report = {"ready": time.monotonic()}
    backend = getattr(getattr(subsemi, "kernel", None), "backend", None)
    report["backend"] = backend() if callable(backend) else None
    if mode != "setup":
        timed = Timed()
        if mode == "pass":
            PROBE.start()
        report["results"] = one_pass(data, timed)
        PROBE.stop()
        report["wall"] = timed.wall
        report["cpu"] = timed.cpu
        if mode == "pass":
            report["probe"] = {"units": timed.units, "seconds": timed.probe_s}
    if tracer is not None:
        report["metrics"], report["absent"] = layer_metrics(tracer)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
