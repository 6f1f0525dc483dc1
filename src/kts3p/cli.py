"""Command-line front end: construct systems, verify externally supplied
ones, browse the fixed component catalog, and report order coverage.

Exit codes: 0 success, 2 verification failure, 3 malformed input,
4 unsupported order.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import catalog, pipeline, verify
from . import groups as G
from .designkit import (DifferenceMatrix, dm_to_json, group_from_labels,
                        group_labels, witness_to_json)

EXIT_OK, EXIT_VERIFY, EXIT_MALFORMED, EXIT_UNSUPPORTED = 0, 2, 3, 4


def _encode_point(group, p):
    if isinstance(p[0], str):
        return f"inf{p[1]}"
    return G.encode_element(group, p)


def _decode_point(group, s):
    if not isinstance(s, str):
        raise ValueError(f"point {s!r} is not a string")
    if s in ("inf1", "inf2", "inf3"):
        return ("inf", int(s[3]))
    return G.parse_element(group, s)


def _point_labels(system):
    return [_encode_point(system.group, p) for p in system.points]


def system_to_json(system, with_trace=False):
    labels = np.array(_point_labels(system), dtype=object)
    data = {
        "order": system.order,
        "group": group_labels(system.group),
        "points": labels.tolist(),
        "blocks": labels[system.blocks].tolist(),
        "resolution": [labels[cls].tolist() for cls in system.resolution],
    }
    if with_trace and system.trace is not None:
        data["trace"] = system.trace
    return data


_COLUMNS = np.arange(3)


def _list_text(items, pad):
    """Rendered items as `json.dumps(indent=2)` lays out a list whose "["
    sits on a line that starts with `pad` (a newline and spaces)."""
    if not items:
        return "[]"
    item = pad + "  "
    return "[" + item + ("," + item).join(items) + pad + "]"


def _triple_table(labels, pad):
    """(3, v) object array: the text each point contributes as the first,
    second or third entry of a triple, in a `_triples_text` list at `pad`.
    Every cell starts with the comma that separates it from the cell
    before."""
    lab = np.array(labels, dtype=object)
    item, entry = pad + "  ", pad + "    "
    return np.stack([f",{item}[{entry}" + lab, f",{entry}" + lab,
                     f",{entry}" + lab + f"{item}]"])


def _triples_text(table, rows, pad):
    """An int32 (k, 3) id array as `json.dumps(indent=2)` lays out its list
    of label triples: one gather from `table` and one join."""
    if not len(rows):
        return "[]"
    cells = table[_COLUMNS, rows].ravel().tolist()
    cells[0] = cells[0][1:]
    return "[" + "".join(cells) + pad + "]"


class _SystemEncoder(json.JSONEncoder):
    """Encodes a KirkmanSystem as the text of
    `json.dumps(system_to_json(system, with_trace), indent=2,
    sort_keys=True)`, without building its nested lists: each point label
    is escaped once, and `blocks` and `resolution` are gathered from the
    id arrays.  The small fields go through the stock encoder,
    which `_dump` gives indent=2 and sort_keys=True, one level deeper.
    It is an encoder class so that writing a system file stays a single
    `json.dumps` call, the call perfbench's tracer times as `cli.encode`."""

    def __init__(self, *, with_trace=False, **kwargs):
        super().__init__(**kwargs)
        self.with_trace = with_trace

    def encode(self, system):
        fields = {"order": system.order, "group": group_labels(system.group)}
        if self.with_trace and system.trace is not None:
            fields["trace"] = system.trace
        dump = super().encode
        parts = {k: dump(x).replace("\n", "\n  ") for k, x in fields.items()}
        labels = [encode_basestring_ascii(s) for s in _point_labels(system)]
        top, inner = "\n  ", "\n    "
        parts["points"] = _list_text(labels, top)
        parts["blocks"] = _triples_text(_triple_table(labels, top),
                                        system.blocks, top)
        table = _triple_table(labels, inner)
        parts["resolution"] = _list_text(
            [_triples_text(table, cls, inner) for cls in system.resolution],
            top)
        return "{" + ",".join(f'{top}"{k}": {parts[k]}'
                              for k in sorted(parts)) + "\n}"


def _id_rows(ids, rows):
    """Map a list of label triples to an int32 (k, 3) array of point ids in
    one pass; raises ValueError if an entry of `rows` does not hold 3
    labels, and KeyError for a label missing from `ids`."""
    if not set(map(len, rows)) <= {3}:
        raise ValueError("a block does not have 3 points")
    flat = map(ids.__getitem__, chain.from_iterable(rows))
    return np.fromiter(flat, np.int32, count=3 * len(rows)).reshape(-1, 3)


def _group_order(labels, limit):
    """The order the atom labels name (D: 6, G_a: 3·4^a, Z_m: m, V_n: n),
    computed without building any atom; an order above `limit` comes back
    as limit + 1."""
    order = 1
    for lab in labels:
        if lab == "D":
            k = 6
        else:
            kind, n = lab[:1], int(lab[1:])
            if kind not in ("G", "Z", "V") or n < 1:
                raise ValueError(f"unknown atom label {lab!r}")
            k = 3 * 4 ** min(n, limit.bit_length()) if kind == "G" else n
        order *= k
        if order > limit:
            return limit + 1
    return order


def system_from_json(data):
    """Decode a system file; raises ValueError unless the group labels name
    an order that fits the point count, every point is a string label and
    every block a triple of listed points."""
    try:
        labels = data["points"]
        want = len(labels) - 3
        if _group_order(data["group"], want) != want:
            raise ValueError(f"{len(labels)} points, but the group labels "
                             f"do not name a group of order {want}")
        g = group_from_labels(data["group"])
        points = [_decode_point(g, s) for s in labels]
        ids = {s: i for i, s in enumerate(labels)}
        blocks = _id_rows(ids, list(data["blocks"]))
        classes = list(data["resolution"])
        ends = list(accumulate(map(len, classes)))
        flat = _id_rows(ids, list(chain.from_iterable(classes)))
        resolution = np.split(flat, ends)[:-1]
        order = int(data["order"])
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            OverflowError) as exc:
        raise ValueError(f"malformed system file: {exc}") from exc
    return pipeline.KirkmanSystem(order=order, group=g, points=points,
                                  blocks=blocks, resolution=resolution)


def _dump(data, out, **encoder):
    text = json.dumps(data, indent=2, sort_keys=True, **encoder)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_construct(args):
    try:
        system = pipeline.construct(args.order)
    except pipeline.UnsupportedOrder as exc:
        c = exc.classification
        print(f"order {c.v} not covered ({c.case}): {c.reason}",
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"order {args.order} unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    _dump(system, args.out, cls=_SystemEncoder, with_trace=args.trace)
    return EXIT_OK


LEVELS = ("sts", "kts", "pyramidal", "full")


def cmd_verify(args):
    try:
        with open(args.input) as fh:
            data = json.load(fh)
        system = system_from_json(data)
    except (OSError, json.JSONDecodeError, ValueError, RecursionError) as exc:
        print(f"cannot read system: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    parts = {"sts": verify.verify_sts(system)}
    if args.level in ("kts", "pyramidal", "full"):
        parts["resolution"] = verify.verify_resolution(system)
    if args.level in ("pyramidal", "full"):
        parts["pyramidal"] = verify.verify_3pyramidal(system)
    report = {"ok": all(p["ok"] for p in parts.values()), **parts}
    _dump(report, None)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def cmd_catalog(args):
    if args.action == "list":
        for eid in catalog.ENTRY_IDS:
            print(eid)
        return EXIT_OK
    if args.id is None:
        print("catalog show needs an id", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        obj = catalog.get(args.id)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MALFORMED
    if isinstance(obj, DifferenceMatrix):
        _dump(dm_to_json(obj), None)
    else:
        _dump(witness_to_json(obj), None)
    return EXIT_OK


def cmd_coverage(args):
    for v in range(9, args.max + 1, 6):
        c = pipeline.classify_order(v)
        status = "covered" if c.covered else (
            "admissible" if c.admissible else "impossible")
        line = f"{v}\t{c.case}\t{status}"
        if c.reason:
            line += f"\t{c.reason}"
        print(line)
    return EXIT_OK


def cmd_selftest(args):
    failures = []

    def check(name, ok, detail=""):
        print(f"{'ok' if ok else 'FAIL'}  {name}" + (f"  {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    report = catalog.verify_all()
    bad = {k: m for k, m in report.items() if m != "ok"}
    check("catalog integrity", not bad, f"{len(report)} entries")

    for v in (9, 15, 33, 39, 51, 87):
        try:
            system = pipeline.construct(v)
            rep = verify.verify_full(system)
            check(f"construct({v})", rep["ok"])
        except Exception as exc:  # noqa: BLE001 - selftest reports, not raises
            check(f"construct({v})", False, repr(exc))

    mism = [v for v in range(9, 3003, 6)
            if pipeline.classify_order(v).admissible
            != G.pertinent_order(v - 3)]
    check("classification vs existence sweep to 3000", not mism,
          str(mism[:5]) if mism else "")

    try:
        pipeline.construct(21)
        check("typed rejection of v=21", False)
    except pipeline.UnsupportedOrder:
        check("typed rejection of v=21", True)
    print("selftest:", "PASS" if not failures else f"FAIL ({failures})")
    return EXIT_OK if not failures else EXIT_VERIFY


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="kts3p",
        description="Kirkman triple systems with a 3-point-fixing sharply "
                    "transitive symmetry group")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="build and self-verify a system")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--trace", action="store_true",
                   help="include the construction trace in the output")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="verify a system from a JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--level", choices=LEVELS, default="full")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog", help="browse the fixed component tables")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("id", nargs="?", default=None)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("coverage", help="classify a range of orders")
    p.add_argument("--max", type=int, default=999)
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("selftest", help="run the built-in acceptance battery")
    p.set_defaults(fn=cmd_selftest)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
