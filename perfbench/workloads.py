"""Seeded inputs for the three benchmark workloads, and the corruptions the
`cli-roundtrip` workload feeds to `kts3p verify`.

Everything here is pure Python and never imports the program: the program
only ever sees the orders drawn here and the files written from them.

Runs on different seeds must be comparable, so every seed carries nearly
the same work: the sweep balances its draws on measured per-order costs,
and the other two workloads keep their orders fixed and let the seed place
the corruptions.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("sweep", "large", "cli-roundtrip")
DEFAULT_SEED = 0

# Orders in [39, 400] that `classify_order` reports as covered.  The sweep
# stops at 400 so that one pass takes a few seconds and each run holds
# several passes: single passes on a shared host vary by up to 70%.
SWEEP_ORDERS = (
    39, 51, 57, 63, 81, 87, 105, 111, 147, 153, 159, 177, 183, 195, 207,
    225, 231, 243, 249, 255, 273, 297, 303, 321, 327, 339, 351, 369, 375,
    393, 399)
SWEEP_MAX = 400
SWEEP_STRATA = 8
SWEEP_TOLERANCE = 0.01

# Seconds of `construct` plus `verify_full` per order, alone in a fresh
# worker (fastest of three, 2-core Xeon, Python 3.11, numpy 2.4).  Draws are
# balanced on these, since the cost depends on the group's shape and on the
# base-block check (|G| <= 360) as much as on v².
SWEEP_COST = {
    39: 0.02, 51: 0.03, 57: 0.05, 63: 0.05, 81: 0.09, 87: 0.10, 105: 0.11,
    111: 0.14, 147: 0.27, 153: 0.26, 159: 0.29, 177: 0.32, 183: 0.50,
    195: 0.33, 207: 0.52, 225: 0.58, 231: 0.64, 243: 0.76, 249: 0.66,
    255: 0.91, 273: 0.98, 297: 0.96, 303: 1.10, 321: 1.05, 327: 1.66,
    339: 1.38, 351: 1.40, 369: 0.67, 375: 0.82, 393: 0.88, 399: 0.97}

# Route steps the program records in `system.trace["steps"]`; every sweep
# draw includes an order whose route takes each of them.
ALL_STEP_OPS = frozenset((
    "9mod24", "15mod24", "15mod24bis", "lift", "doubly-disjoint",
    "compose-homogeneous", "compose-splittable", "head-tower", "catalog",
    "union"))

# The route steps of each sweep order, as `construct` records them.
_R9 = ("9mod24", "catalog")
_R15 = ("15mod24", "catalog", "union")
_RBIS = ("15mod24bis", "catalog", "union")
_RLIFT = ("catalog", "lift", "union")
_RDD = ("catalog", "compose-splittable", "doubly-disjoint", "union")
_RTOWER = ("catalog", "head-tower", "union")
_RHOM = ("15mod24", "catalog", "compose-homogeneous", "union")
SWEEP_STEPS = {
    39: ("catalog",), 51: _RTOWER, 57: _R9, 63: _R15, 81: _R9, 87: _RBIS,
    105: _R9, 111: _R15, 147: ("catalog", "union"), 153: _R9, 159: _R15,
    177: _R9, 183: _RDD, 195: _RTOWER, 207: _R15, 225: _R9, 231: _RBIS,
    243: _RHOM, 249: _R9, 255: _RLIFT, 273: _R9, 297: _R9, 303: _R15,
    321: _R9, 327: _RDD, 339: _RLIFT, 351: _R15, 369: _R9, 375: _RBIS,
    393: _R9, 399: _RLIFT}

# v = 819 (G2 x V17) on every seed: the largest order of the benchmark,
# alone, and the same route shape as v = 1971 (a homogeneous matrix composed
# over V17).  v = 1971 itself takes ~30 s a pass, so a run would hold one
# pass and its time would vary with the host by more than the bound; v = 819
# takes ~4 s.  Covered orders near it differ by up to 20% in time, more than
# the spread allowed between runs, so the seed does not change this
# workload's input.
LARGE_ORDER = 819

# Two covered orders on every seed: 147 (G2 x V3, two catalog seeds and a
# union) and 183 (G1 x V3 x V5, doubly disjoint and composed).  One round
# trip of both takes ~3.5 s, so a run holds several.  The cost of a round
# trip depends on the group's shape as much as on v, so seeded orders would
# change the work by up to 30%; here the seed places the corruptions instead.
CLI_ORDERS = (147, 183)

# Covered orders excluded on purpose: both are defects on the ROADMAP, and
# including them would hang the run or exhaust memory instead of measuring.
NON_TERMINATING = (2451, 2739)


def _strata(orders, k):
    """Split the sorted orders into k contiguous runs of nearly equal length."""
    bounds = [round(i * len(orders) / k) for i in range(k + 1)]
    return [orders[a:b] for a, b in zip(bounds, bounds[1:])]


def sweep_orders(seed):
    """One order from each stratum, redrawn until the draw takes every route
    step and its cost is within SWEEP_TOLERANCE of the mean draw's."""
    strata = _strata(SWEEP_ORDERS, SWEEP_STRATA)
    target = sum(sum(SWEEP_COST[v] for v in s) / len(s) for s in strata)
    rng = random.Random(f"sweep:{seed}")
    while True:
        draw = [rng.choice(s) for s in strata]
        cost = sum(SWEEP_COST[v] for v in draw)
        steps = set().union(*(SWEEP_STEPS[v] for v in draw))
        if abs(cost / target - 1) <= SWEEP_TOLERANCE and steps == ALL_STEP_OPS:
            return sorted(draw)


def large_orders(seed):
    return [LARGE_ORDER]


def cli_orders(seed):
    return list(CLI_ORDERS)


def orders(workload, seed):
    return {"sweep": sweep_orders, "large": large_orders,
            "cli-roundtrip": cli_orders}[workload](seed)


# ---------------------------------------------------------------------------
# corruptions of a clean `kts3p construct` file

# Inputs that make `kts3p verify` exit 1 with a traceback at the commit that
# introduced this benchmark (ROADMAP, input hardening).  They still run in
# every pass; see `expected_exit` for how they are scored.  An inflated group
# label such as G12 is left out on purpose: `parse_element` would build
# about 5·10⁷ tuples from it, exhausting memory instead of measuring.
KNOWN_TRACEBACKS = ("non-string-point", "dropped-point", "one-point-block")
CORRUPTIONS = ("swap-points", "drop-block", "move-block", "bad-label",
               "truncated") + KNOWN_TRACEBACKS


def _class_of(data, block):
    key = frozenset(block)
    for ci, cls in enumerate(data["resolution"]):
        for bi, b in enumerate(cls):
            if frozenset(b) == key:
                return ci, bi
    raise ValueError(f"block {block} is in no class")


def _swap_points(data, rng):
    blocks = data["blocks"]
    while True:
        i, j = rng.sample(range(len(blocks)), 2)
        if not set(blocks[i]) & set(blocks[j]):
            break
    x, y = rng.randrange(3), rng.randrange(3)
    old_i, old_j = list(blocks[i]), list(blocks[j])
    ci, bi = _class_of(data, old_i)
    cj, bj = _class_of(data, old_j)
    blocks[i][x], blocks[j][y] = old_j[y], old_i[x]
    data["resolution"][ci][bi] = list(blocks[i])
    data["resolution"][cj][bj] = list(blocks[j])


def _drop_block(data, rng):
    i = rng.randrange(len(data["blocks"]))
    ci, bi = _class_of(data, data["blocks"][i])
    del data["blocks"][i]
    del data["resolution"][ci][bi]


def _move_block(data, rng):
    ci, cj = rng.sample(range(len(data["resolution"])), 2)
    src = data["resolution"][ci]
    data["resolution"][cj].append(src.pop(rng.randrange(len(src))))


def _middle(rng, n):
    """A seeded index near the middle of n items.  Decoding stops at the
    first bad item, so this keeps the work before the failure the same on
    every seed."""
    return rng.randrange(n // 2 - n // 50, n // 2 + n // 50 + 1)


def _bad_label(data, rng):
    """A label with the right atoms whose last coordinate is out of range."""
    blk = data["blocks"][_middle(rng, len(data["blocks"]))]
    k = next(k for k, p in enumerate(blk) if not p.startswith("inf"))
    head, _, last = blk[k].rpartition(":")
    coords = last.strip("()").split(",")
    coords[-1] = "1000003"
    body = ",".join(coords)
    blk[k] = f"{head}:({body})" if last.startswith("(") else f"{head}:{body}"


def _non_string_point(data, rng):
    blk = data["blocks"][_middle(rng, len(data["blocks"]))]
    blk[rng.randrange(3)] = 7


def _dropped_point(data, rng):
    del data["points"][rng.randrange(3, len(data["points"]))]


def _one_point_block(data, rng):
    cls = data["resolution"][_middle(rng, len(data["resolution"]))]
    k = rng.randrange(len(cls))
    cls[k] = cls[k][:1]


_MUTATORS = {
    "swap-points": _swap_points, "drop-block": _drop_block,
    "move-block": _move_block, "bad-label": _bad_label,
    "non-string-point": _non_string_point, "dropped-point": _dropped_point,
    "one-point-block": _one_point_block}


def _canonical(data):
    """The system as sets: blocks, classes, points, so that a corruption that
    only reorders what it touches is caught as no change."""
    def block(b):
        return frozenset(map(repr, b))
    return (frozenset(map(block, data["blocks"])),
            frozenset(frozenset(map(block, c)) for c in data["resolution"]),
            frozenset(map(repr, data["points"])))


def corruptions(clean_text, seed, v):
    """(name, text) for each corrupted copy of a clean system file.  Raises
    if a corruption leaves the system unchanged as a set of blocks, classes
    or points."""
    canon = _canonical(json.loads(clean_text))
    for name in CORRUPTIONS:
        rng = random.Random(f"corrupt:{seed}:{v}:{name}")
        if name == "truncated":
            yield name, clean_text[:rng.randrange(len(clean_text) // 4,
                                                  3 * len(clean_text) // 4)]
            continue
        data = json.loads(clean_text)
        _MUTATORS[name](data, rng)
        if _canonical(data) == canon:
            raise AssertionError(f"corruption {name} left order {v} unchanged")
        yield name, json.dumps(data)


def expected_exit(name, code):
    """Whether a `kts3p verify` outcome is right for an input.  A clean file
    must exit 0 and a corrupted one 2 or 3 (the fuzz contract).  A known
    traceback input may instead still raise (`code` None): that is the
    ROADMAP defect, counted in `fail_share` but not as a benchmark failure."""
    if name == "clean":
        return code == 0
    if code in (2, 3):
        return True
    return name in KNOWN_TRACEBACKS and code is None
