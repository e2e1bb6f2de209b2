"""File formats: structure JSON (covers / partial joins) and DOT export.

Total semilattices:   {"labels": [...], "covers": [[lower, upper], ...]}
Partial algebras:     {"n": 9, "joins": [[i, j, k], ...]}

Cover and join entries may reference elements by index or by label.
"""

import json

from subsemi.counting import PartialBinaryAlgebra
from subsemi.errors import FormatError, SubsemiError
from subsemi.order import JoinSemilattice, Poset, to_semilattice


# The most elements a structure file may hold, in either format. A join-format
# n is a bare number in the file, and the parser builds one label per element;
# the bound keeps a stated n, or a long label list, from exhausting memory.
MAX_N = 1 << 16


def _resolve(entry, labels, field):
    """The element an entry names: an index, or a label looked up in labels,
    the dict _labels returns (None when no labels are given)."""
    if isinstance(entry, int) and not isinstance(entry, bool):
        if labels is not None and not 0 <= entry < len(labels):
            raise FormatError(f"{field}: index {entry} out of range")
        return entry
    if labels is None:
        raise FormatError(f"{field}: label {entry!r} used but no labels given")
    try:
        return labels[entry]
    except (KeyError, TypeError):   # TypeError: a list or an object is no key
        raise FormatError(f"{field}: unknown label {entry!r}") from None


def _labels(data):
    """The dict from each label, as a string, to its element, in label
    order, or None when the field is absent."""
    labels = data.get("labels")
    if labels is None:
        return None
    if not isinstance(labels, (list, tuple)) or not labels:
        raise FormatError("labels: expected a nonempty list")
    if len(labels) > MAX_N:
        raise FormatError(f"labels: expected at most {MAX_N}, got {len(labels)}")
    index = {str(x): i for i, x in enumerate(labels)}
    if len(index) != len(labels):
        raise FormatError("labels: duplicate label")
    return index


def _entries(data, field, size, shape):
    """Each entry of a list field, checked to be a list of the given size."""
    entries = data[field]
    if not isinstance(entries, (list, tuple)):
        raise FormatError(f"{field}: expected a list")
    for idx, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != size:
            raise FormatError(f"{field}[{idx}]: expected {shape}")
        yield idx, entry


def structure_from_dict(data, check_n=None):
    """Parse a structure dict; returns (structure, labels). check_n, when
    given, is called with the number of elements once it is known, before
    any entry is read: it may refuse the structure by raising."""
    if not isinstance(data, dict):
        raise FormatError("top level: expected an object")
    if "covers" in data:
        labels = _labels(data)
        if labels is None:
            raise FormatError("labels: required nonempty list for cover format")
        if check_n is not None:
            check_n(len(labels))
        covers = [(_resolve(lo, labels, f"covers[{idx}][0]"),
                   _resolve(hi, labels, f"covers[{idx}][1]"))
                  for idx, (lo, hi) in _entries(data, "covers", 2, "[lower, upper]")]
        try:
            sl = to_semilattice(Poset.from_covers(len(labels), covers))
        except SubsemiError as exc:
            raise FormatError(f"covers: {exc}") from exc
        return sl, tuple(labels)
    if "joins" in data:
        labels = _labels(data)
        n = data.get("n", None if labels is None else len(labels))
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_N:
            raise FormatError(f"n: required integer from 1 to {MAX_N} for join format")
        if labels is not None and n != len(labels):
            raise FormatError(f"n: {n} differs from the number of labels, {len(labels)}")
        if check_n is not None:
            check_n(n)
        joins = [tuple(_resolve(x, labels, f"joins[{idx}][{t}]")
                       for t, x in enumerate(triple))
                 for idx, triple in _entries(data, "joins", 3, "[i, j, k]")]
        try:
            pa = PartialBinaryAlgebra(n, joins)
        except ValueError as exc:
            raise FormatError(f"joins: {exc}") from exc
        return pa, tuple(labels) if labels else tuple(str(i) for i in range(n))
    raise FormatError("top level: expected a 'covers' or 'joins' field")


def load_structure(path, check_n=None):
    """Read a structure file; returns (structure, labels). check_n is as for
    structure_from_dict."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    # bytes that are not UTF-8, or arrays nested past the recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    return structure_from_dict(data, check_n)


def structure_to_dict(structure, labels=None):
    if labels is None:
        labels = [str(i) for i in range(structure.n)]
    labels = list(labels)
    if isinstance(structure, JoinSemilattice):
        return {"labels": labels,
                "covers": [list(c) for c in structure.covers]}
    return {"labels": labels, "n": structure.n,
            "joins": [list(t) for t in structure.defined_joins]}


def structure_to_dot(structure, labels=None, name="structure"):
    """DOT digraph of covers, drawn bottom to top; defined joins of partial
    algebras appear as labeled constraint nodes."""
    if labels is None:
        labels = [str(i) for i in range(structure.n)]
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=BT;"]
    for i, lab in enumerate(labels):
        lines.append(f"  e{i} [label={json.dumps(str(lab))}];")
    if isinstance(structure, JoinSemilattice):
        for lo, hi in structure.covers:
            lines.append(f"  e{lo} -> e{hi};")
    else:
        for t, (i, j, k) in enumerate(structure.defined_joins):
            lines.append(f'  j{t} [label="v", shape=diamond, fontsize=9];')
            lines.append(f"  e{i} -> j{t} [dir=none, style=dashed];")
            lines.append(f"  e{j} -> j{t} [dir=none, style=dashed];")
            lines.append(f"  j{t} -> e{k};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def count_report_to_dict(report):
    return {
        "count": report.count,
        "sigma": str(report.sigma),
        "sigma_decimal": float(report.sigma),
        "k": report.k,
        "n": report.n,
    }
