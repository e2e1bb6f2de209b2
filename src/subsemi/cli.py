"""Command-line entry point wiring counting, cataloging, enumeration,
classification, verification, and export.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or input error.

Each command imports the modules it runs when it starts, so a command loads
only what it uses: `count --input F` loads no enumeration, and a serial run
never loads the process-pool modules.
"""

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from subsemi.counting import DEFAULT_K, count_subuniverses_checked
from subsemi.errors import (
    ConfigError,
    FormatError,
    SizeLimitError,
    SubsemiError,
    UnknownStructureError,
)


DEFAULT_CEILING = 9

# a count is at most 2^n, so sigma_k = count * 2^(k-n) is at most 2^k, and
# the JSON's sigma_decimal float holds 2^k up to k = 1023
MAX_K = 1023


def enumeration_ceiling():
    """The ceiling set by SUBUNIV_CEILING, or DEFAULT_CEILING when it is unset."""
    env = os.environ.get("SUBUNIV_CEILING")
    if not env:
        return DEFAULT_CEILING
    try:
        ceiling = int(env)
    except ValueError:
        ceiling = 0
    if ceiling < 1:
        raise ConfigError(
            f"SUBUNIV_CEILING must be an integer of at least 1, got {env!r}")
    return ceiling


def _usable_cpus():
    """The CPUs this process may run on (taskset or a container cpuset can
    allow fewer than the machine has), or the machine's count where the
    platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_settings(args):
    """Range-check the settings a command takes and fill in their defaults.

    Only the commands with --ceiling read SUBUNIV_CEILING, and they refuse an
    n above the ceiling before any work starts.
    """
    given = vars(args)
    if "ceiling" in given and args.ceiling is None:
        args.ceiling = enumeration_ceiling()
    if "workers" in given and args.workers is None:
        args.workers = _usable_cpus()
    for name in ("ceiling", "k", "workers"):
        value = given.get(name)
        if value is not None and value < 1:
            raise ConfigError(f"--{name} must be at least 1, got {value}")
    if "k" in given and args.k > MAX_K:
        raise ConfigError(f"--k must be at most {MAX_K}, got {args.k}")
    if "ceiling" in given and args.n > args.ceiling:
        raise SizeLimitError(
            f"enumeration ceiling is {args.ceiling}; raise it explicitly for n={args.n}")


def _write_json(data, out=None):
    """Write data as indented JSON and a newline to out, stdout by default,
    as the encoder yields it: a report is never held whole as one string."""
    out = sys.stdout if out is None else out
    json.dump(data, out, indent=2, sort_keys=True)
    out.write("\n")


def _resolve_input(args):
    """(structure, labels) from --named or --input."""
    if getattr(args, "named", None):
        from subsemi import catalog
        ns = catalog.build_named(args.named)
        return ns.structure, ns.labels
    if getattr(args, "input", None):
        from subsemi.jsonio import load_structure
        return load_structure(args.input)
    raise FormatError("one of --named or --input is required")


def cmd_count(args):
    """`count` and `sigma`: the checked count, printed as JSON, except that
    `sigma` prints the bare relative count unless --json is given."""
    from subsemi.jsonio import count_report_to_dict
    structure, _ = _resolve_input(args)
    report = count_subuniverses_checked(structure, args.k)
    if args.json or args.command == "count":
        _write_json(count_report_to_dict(report))
    else:
        print(report.sigma)
    return 0


def cmd_catalog(args):
    from subsemi import catalog
    rows = []
    for id_ in catalog.catalog_ids():
        ns = catalog.build_named(id_)
        rows.append({
            "id": ns.id,
            "n": ns.structure.n,
            "kind": type(ns.structure).__name__,
            "expected_sigma5": str(ns.expected_sigma5),
            "reported_sigma5": [str(v) for v in ns.reported_sigma5],
            "provenance": ns.provenance,
        })
    if args.json:
        _write_json(rows)
    elif args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["id", "n", "kind", "expected_sigma5",
                         "reported_sigma5", "provenance"])
        for r in rows:
            writer.writerow([r["id"], r["n"], r["kind"], r["expected_sigma5"],
                             ";".join(r["reported_sigma5"]), r["provenance"]])
    else:
        for r in rows:
            reported = ",".join(r["reported_sigma5"]) or "-"
            print(f"{r['id']:<6} n={r['n']:<2} {r['kind'][:7]:<8} "
                  f"sigma5={r['expected_sigma5']:<8} reported={reported:<10} {r['provenance']}")
    return 0


@contextmanager
def _writing_out(path):
    """Report an OSError while writing --out as a one-line input error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from None


def cmd_enumerate(args):
    from subsemi.enumeration import enumerate_semilattices
    from subsemi.jsonio import structure_to_dict
    outdir = Path(args.out) if args.out else None
    if outdir:
        # a bad path fails before the run rather than after it
        with _writing_out(args.out):
            outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    run = enumerate_semilattices(args.n, args.workers)
    elapsed = time.perf_counter() - t0
    manifest = {
        "n": run.n,
        "count": len(run.codes),
        "stats": run.stats,
        "elapsed_seconds": round(elapsed, 3),
        "files": [],
    }
    if args.as_lattice_count:
        # adding a new bottom is a bijection onto the lattices one size up
        manifest["lattices_on_n_plus_1"] = len(run.codes)
    if outdir:
        with _writing_out(args.out):
            for i, (sl, code) in enumerate(zip(run.structures, run.codes)):
                fname = f"semilattice_{run.n}_{i:05d}.json"
                payload = structure_to_dict(sl)
                payload["canonical_code"] = code.hex()
                with open(outdir / fname, "w") as f:
                    _write_json(payload, f)
                manifest["files"].append(fname)
            with open(outdir / "manifest.json", "w") as f:
                _write_json(manifest, f)
    _write_json(manifest)
    return 0


def cmd_rank(args):
    from subsemi import verifier
    report = verifier.rank(args.n, workers=args.workers)
    if args.json:
        _write_json(verifier.ranking_to_dict(report))
    elif args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["rank", "count", "witnesses"])
        for i, v in enumerate(report.values, start=1):
            writer.writerow([i, v, len(report.witnesses[v])])
    else:
        for i, v in enumerate(report.values, start=1):
            wit = report.witnesses[v]
            print(f"rank {i:>2}: count={v:<6} witnesses={len(wit)}")
    return 0


def cmd_classify(args):
    from subsemi import analysis
    structure, labels = _resolve_input(args)
    if not hasattr(structure, "top"):
        raise FormatError("classification needs a total semilattice (covers format)")
    result = {
        "n": structure.n,
        "narrows": sorted(labels[u] for u in analysis.narrows(structure)),
        "families": {},
    }
    for core_id in analysis.FAMILY_CORES:
        c0_len, c1_len = analysis.matches_family(structure, core_id) or (None, None)
        result["families"][core_id] = {
            "matched": c0_len is not None,
            "c0_len": c0_len,
            "c1_len": c1_len,
        }
    _write_json(result)
    return 0


def cmd_verify_theorem(args):
    from subsemi import verifier
    from subsemi.order import poset_from_code
    result = verifier.verify_theorem(args.n, workers=args.workers)
    if args.json:
        _write_json(verifier.theorem_to_dict(result))
    else:
        for c, e, m in result.top3:
            print(f"top3 context: count={c} expected={e} {'ok' if m else 'DIFFERS'}")
        for c in result.claims:
            line = f"claim ({c.claim}) rank {c.expected_rank}: {c.status}"
            if c.notes:
                line += f"  [{c.notes}]"
            print(line)
            for code in c.extra_witnesses:
                covers = list(poset_from_code(bytes.fromhex(code)).covers)
                print(f"    extra witness {code[:16]}... covers={covers}")
    return 0 if result.all_passed else 1


def cmd_verify_lemmas(args):
    from subsemi import verifier
    report = verifier.verify_lemmas()
    if args.json:
        _write_json(verifier.lemmas_to_dict(report))
    else:
        for e in report.entries:
            reported = ", ".join(str(v) for v in e.reported_values)
            print(f"{e.location:<16} reported={reported:<10} computed={e.computed} "
                  f"({float(e.computed)}): {e.classification}")
        for p in report.properties:
            print(f"property {p.name}: {p.instances} instances, {p.violations} violations")
        for note in report.notes:
            print(f"note: {note}")
    return 0 if report.all_passed else 1


def cmd_export_dot(args):
    from subsemi import catalog
    from subsemi.jsonio import load_structure, structure_to_dot
    try:
        ns = catalog.build_named(args.id)
        structure, labels = ns.structure, ns.labels
    except UnknownStructureError:
        if Path(args.id).exists():
            structure, labels = load_structure(args.id)
        else:
            raise
    text = structure_to_dot(structure, labels, name=args.id)
    if args.out:
        with _writing_out(args.out):
            Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subsemi",
        description="Subuniverse counting and ranking verification for finite "
                    "join-semilattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    def structure_args(p):
        p.add_argument("--named", help="catalog id (see `subsemi catalog`)")
        p.add_argument("--input", help="structure JSON file")
        p.add_argument("--k", type=int, default=DEFAULT_K, help="sigma reference size")
        p.add_argument("--json", action="store_true")

    p = add("count", cmd_count, help="count subuniverses")
    structure_args(p)
    p = add("sigma", cmd_count, help="relative number of subuniverses, exact")
    structure_args(p)

    p = add("catalog", cmd_catalog, help="list named structures")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")

    p = add("enumerate", cmd_enumerate, help="all n-element semilattices up to iso")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="directory for one JSON file per structure")
    p.add_argument("--as-lattice-count", action="store_true",
                   help="also report the count as lattices on n+1 elements")
    p.add_argument("--workers", type=int, help="defaults to machine cores")
    p.add_argument("--ceiling", type=int, help="override enumeration ceiling")

    p = add("rank", cmd_rank, help="distinct subuniverse counts at size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--workers", type=int, help="defaults to machine cores")
    p.add_argument("--ceiling", type=int)

    p = add("classify", cmd_classify, help="narrows and family membership")
    p.add_argument("--named")
    p.add_argument("--input")
    p.add_argument("--json", action="store_true")

    p = add("verify-theorem", cmd_verify_theorem, help="check the ranking claims at n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--workers", type=int, help="defaults to machine cores")
    p.add_argument("--ceiling", type=int)

    p = add("verify-lemmas", cmd_verify_lemmas,
            help="catalog values and lemma property suites")
    p.add_argument("--json", action="store_true")

    p = add("export-dot", cmd_export_dot, help="DOT digraph of a structure")
    p.add_argument("id", help="catalog id or structure JSON path")
    p.add_argument("--out")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_settings(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except SubsemiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point stdout at devnull, so the
        # interpreter's last flush of what is still buffered cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
