"""Command-line front end: construct systems, verify externally supplied
ones, browse the fixed component catalog, and report order coverage.

Exit codes: 0 success, 2 verification failure, 3 malformed input,
4 unsupported order.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def system_to_json(system, with_trace=False):
    g = system.group
    labels = np.array([_encode_point(g, p) for p in system.points],
                      dtype=object)
    data = {
        "order": system.order,
        "group": group_labels(g),
        "points": labels.tolist(),
        "blocks": labels[system.blocks].tolist(),
        "resolution": [labels[cls].tolist() for cls in system.resolution],
    }
    if with_trace and system.trace is not None:
        data["trace"] = system.trace
    return data


def _id_rows(ids, blocks):
    """Map label triples to an int32 (k, 3) array of point ids; a label
    missing from `ids` raises KeyError."""
    rows = [[ids[s] for s in b] for b in blocks]
    if any(len(b) != 3 for b in rows):
        raise ValueError("a block does not have 3 points")
    return np.array(rows, dtype=np.int32).reshape(-1, 3)


def system_from_json(data):
    """Decode a system file; raises ValueError unless the group order fits
    the point count, every point is a string label and every block a triple
    of listed points."""
    try:
        g = group_from_labels(data["group"])
        labels = data["points"]
        if g.order != len(labels) - 3:
            raise ValueError(f"{len(labels)} points for a group of order "
                             f"{g.order}")
        points = [_decode_point(g, s) for s in labels]
        ids = {s: i for i, s in enumerate(labels)}
        blocks = _id_rows(ids, data["blocks"])
        resolution = [_id_rows(ids, cls) for cls in data["resolution"]]
        order = int(data["order"])
    except (KeyError, TypeError, ValueError, IndexError,
            AttributeError) as exc:
        raise ValueError(f"malformed system file: {exc}") from exc
    return pipeline.KirkmanSystem(order=order, group=g, points=points,
                                  blocks=blocks, resolution=resolution)


def _dump(data, out):
    text = json.dumps(data, indent=2, sort_keys=True)
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
    _dump(system_to_json(system, with_trace=args.trace), args.out)
    return EXIT_OK


LEVELS = ("sts", "kts", "pyramidal", "full")


def cmd_verify(args):
    try:
        with open(args.input) as fh:
            data = json.load(fh)
        system = system_from_json(data)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
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
