"""Self-check of the benchmark's exact counts.

    python3 perfbench/selfcheck.py

Runs the traced run of every workload twice, from the root of a checkout,
and fails (exit 1) unless every count metric reads the same both times. The
audit's input is seed-free, so its two runs use different seeds; the seeded
workloads repeat one seed. It also prints how the audit's counts compare
with the values recorded at the commit that introduced the benchmark; a
change there is expected from work that alters generation or counting, so it
is reported, not failed.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

SEEDS = {"audit_n9": (1, 2), "count_large": (7, 7), "subuniverses_large": (7, 7)}

AUDIT_AT_INTRODUCTION = {
    "enumeration.candidates": 20302,
    "enumeration.duplicates": 12932,
    "enumeration.structures": 5994,
    "order.canonical_form.calls": 26311,
    "kernel.count_closed.calls": 5994,
    "kernel.subsets_scanned": 3068928,
    "counting.split.calls": 5994,
}


def counts(workload, seed):
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed",
                          str(seed), "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, check=True, timeout=200)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main():
    ok = True
    for workload, (first, second) in SEEDS.items():
        a, b = counts(workload, first), counts(workload, second)
        for name in sorted(a):
            same = a[name] == b.get(name)
            ok &= same
            print(f"{workload:<19} {name:<30} {a[name]:>10} {b.get(name):>10}"
                  f"  {'same' if same else 'DIFFERS'}")
        if workload == "audit_n9":
            for name, value in AUDIT_AT_INTRODUCTION.items():
                if a.get(name) != value:
                    print(f"note: {name} is {a.get(name)}; it was {value} when the "
                          "benchmark was introduced")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
