"""Difference-family and difference-matrix kernel.

These predicates double as independent oracles for the construction code:
they recompute every multiset from the definitions and never trust flags
carried by a witness.  They count over element ids (indices into
`element_list`), which a witness holds for every element it states, and
check what it states without searching for it or writing to it: sums and
differences come from the per-atom tables of `groups.atom_table`, built
with each atom's own `add`, and multisets are `np.bincount` histograms.

Difference convention: the entry of a block's difference table at row r,
column c is r -^ c.  In a non-abelian group the order matters and this is
the orientation all the literal tables in the catalog follow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import groups as G

# the ordered pairs (r, c) of distinct positions in a triple
_ROW = np.array([0, 0, 1, 1, 2, 2])
_COL = np.array([1, 2, 0, 2, 0, 1])


def difference_counts(group, triples):
    """How often each element id is a difference r −^ c of the entries at two
    distinct positions of a triple, over all `triples` (element ids, k × 3).
    Positions, not values: a triple with a repeated entry contributes 0s."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    diff = G.id_sum(group, triples[:, _ROW], triples[:, _COL], negate=True)
    return np.bincount(diff.ravel(), minlength=group.order)


@dataclass
class Diagnosis:
    ok: bool
    problems: list = field(default_factory=list)

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(self.problems[:10]) or "failed"


def _fail(*problems):
    return Diagnosis(False, list(problems))


def _compare_counts(group, actual, expected, what):
    """Compare two id histograms; the first ten missing and excess elements
    are named in id order, which is the lexicographic order of elements."""
    problems = []
    for word, short in (("missing", expected - actual),
                        ("excess", actual - expected)):
        short = np.maximum(short, 0)
        total = int(short.sum())
        if total:
            first = np.searchsorted(np.cumsum(short),
                                    np.arange(min(total, 10)), side="right")
            names = [_label(group, i) for i in first]
            problems.append(f"{what}: {word} {names}"
                            + (f" (+{total - 10} more)" if total > 10 else ""))
    return Diagnosis(not problems, problems)


def _label(group, x):
    """The canonical label of the element id `x`, naming it in a problem."""
    return G.encode_element(group, group.element_list[x])


def _outside(witness):
    """The id histogram of the elements outside witness.excluded(): 1 for
    each of them, 0 elsewhere."""
    outside = np.ones(witness.group.order, dtype=np.int64)
    outside[witness.excluded()] = 0
    return outside


# ---------------------------------------------------------------------------
# spreads and witnesses

def _element_id(group, x, what):
    """`x` as an int, when it is an element id of `group`: an integer but
    no bool, in range(|G|); anything else raises ValueError."""
    if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
            or not 0 <= x < group.order):
        raise ValueError(f"{what} must be an element id of {group!r}, 0 to "
                         f"{group.order - 1}, not {x!r}")
    return int(x)


class Spread:
    """The {2^3, 3} partial spread of a pertinent group: its three order-2
    subgroups together with {0, x, -x}.  `x` is an element id of order 3,
    `order3` the ids (0, x, -x)."""

    def __init__(self, group, x):
        self.group = group
        self.x = x = _element_id(group, x, "spread generator")
        if x == 0 or G.id_sum(group, x, G.id_sum(group, x, x)) != 0:
            raise ValueError("spread generator must have order 3")
        # the zero's id is 0, and -x = 0 -^ x
        self.order3 = (0, x, int(G.id_sum(group, 0, x, negate=True)))
        # the members {0, j} and {0, x, -x} meet only in 0 when their
        # union has six elements
        union = sorted({*self.order3, *group.involutions})
        if len(union) != 6:
            raise ValueError("spread members must intersect trivially")
        self.ids = G.frozen_ids(group, union, "spread")


class FamilyWitness:
    """A difference family (lambda 1) plus the elements that state its kind,
    all element ids, checked here.  blocks: a read-only int64 (k, 3) array,
    rows sorted here
    kind: "DF" | "RDF" | "PRDF" | "DDDF"
    relative: SubgroupView (possibly trivial) or Spread
    j: resolving involution (J = {0, j}); a, b: the coset representatives
    of the Definition of resolvable, which a spread family must state;
    translates: per-block twin translates, a read-only int64 array, for
    doubly disjoint families; prdf_pair: the pair (j_alpha, j_beta) that a
    pseudo-resolvable family must state.
    """

    def __init__(self, group, blocks, kind, relative, j=None, a=None, b=None,
                 translates=None, multipliers=None, prdf_pair=None,
                 trace=None):
        self.group = group
        self.blocks = G.frozen_ids(group, blocks, "blocks", (None, 3),
                                    sort=True)
        self.kind = kind
        self.relative = relative
        self.j, self.a, self.b = (
            None if x is None else _element_id(group, x, name)
            for name, x in (("j", j), ("a", a), ("b", b)))
        self.translates = (None if translates is None else
                           G.frozen_ids(group, translates, "translates"))
        self.multipliers = multipliers
        if prdf_pair is not None and (type(prdf_pair) not in (tuple, list)
                                      or len(prdf_pair) != 2):
            raise ValueError(f"prdf_pair must be two element ids, not "
                             f"{prdf_pair!r}")
        self.prdf_pair = prdf_pair and tuple(
            _element_id(group, x, "prdf_pair") for x in prdf_pair)
        self.trace = trace

    def spread(self):
        if not isinstance(self.relative, Spread):
            raise ValueError("witness is not relative to a spread")
        return self.relative

    def excluded(self):
        """The sorted ids of the spread members' union or the carrier."""
        return self.relative.ids

    def __repr__(self):
        rel = "spread" if isinstance(self.relative, Spread) else f"H{len(self.relative)}"
        return f"<{self.kind} over {self.group!r} rel {rel}, {len(self.blocks)} blocks>"


# ---------------------------------------------------------------------------
# predicates

def is_df(witness):
    """The difference-family verdict."""
    g = witness.group
    ids = witness.blocks  # rows are sorted, so repeats are adjacent
    repeated = (ids[:, 0] == ids[:, 1]) | (ids[:, 1] == ids[:, 2])
    if repeated.any():
        block = tuple(g.element_list[x] for x in ids[np.argmax(repeated)])
        return _fail(f"block {block} has repeated elements")
    return _compare_counts(g, difference_counts(g, ids), _outside(witness),
                           "delta")


def _coset_rep_check(group, reps, j, expected):
    """Do the ids `reps` and their translates reps + j together hit each id
    as often as the histogram `expected` says?"""
    covered = np.bincount(np.concatenate((reps, G.id_sum(group, reps, j))),
                          minlength=group.order)
    return _compare_counts(group, covered, expected, "coset cover")


def is_j_resolvable(witness):
    """The {0, j}-resolvable verdict on the stated j, a, b; none is searched
    for.  Relative to H ∋ j, the entries and their j-translates hit each
    element outside H once; relative to a spread, {0, j} conjugated by 0, a
    and b gives the three order-2 subgroups, and the entries with 0, a and
    b, and their j-translates, hit each element once."""
    g = witness.group
    base = is_df(witness)
    if not base:
        return base
    j = witness.j
    if j is None:
        return _fail("the family states no resolving involution j")
    if j == 0 or G.id_sum(g, j, j) != 0:
        return _fail(f"resolving element {_label(g, j)} is not an involution")
    phi = witness.blocks.ravel()

    if isinstance(witness.relative, G.SubgroupView):
        if j not in witness.relative.ids:
            return _fail("j must lie in the relative subgroup")
        return _coset_rep_check(g, phi, j, _outside(witness))

    # spread variant; spread() raises unless the relative is a spread
    witness.spread()
    if j not in g.involutions:
        return _fail("j is not one of the three involutions")
    a, b = witness.a, witness.b
    if a is None or b is None:
        return _fail("a spread family must state its (a, b)")
    # t + j − t for t = a, b
    conj = G.id_sum(g, G.id_sum(g, [a, b], j), [a, b], negate=True)
    if len({j, *conj.tolist()}) != 3:
        return _fail(f"a={_label(g, a)}, b={_label(g, b)}: conjugates of J "
                     f"do not give all three order-2 subgroups")
    return _coset_rep_check(g, np.append(phi, [0, a, b]), j,
                            np.ones(g.order, dtype=np.int64))


def is_pseudo_resolvable(witness):
    """The pseudo-resolvable verdict on the stated pair (j_alpha, j_beta) of
    distinct involutions: the entries with 0, x and j_alpha, and their
    j_beta-translates, hit each element once."""
    g = witness.group
    if g.order % 4 != 0:
        return _fail("pseudo-resolvability needs a group of doubly even order")
    base = is_df(witness)
    if not base:
        return base
    if witness.prdf_pair is None:
        return _fail("the family states no pair (j_alpha, j_beta)")
    ja, jb = witness.prdf_pair
    if ja == jb or not {ja, jb} <= set(g.involutions):
        return _fail(f"the pair ({_label(g, ja)}, {_label(g, jb)}) is not "
                     f"two distinct involutions")
    reps = np.append(witness.blocks, [0, witness.spread().x, ja])
    return _coset_rep_check(g, reps, jb, np.ones(g.order, dtype=np.int64))


def is_doubly_disjoint(witness):
    g = witness.group
    if witness.translates is None:
        return _fail("doubly disjoint check needs per-block translates")
    if len(witness.translates) != len(witness.blocks):
        return _fail("one translate per block required")
    base = is_df(witness)
    if not base:
        return base
    ids = witness.blocks
    outside = _outside(witness)
    phi = ids.ravel()
    if np.any(np.bincount(phi, minlength=g.order) > 1):
        return _fail("blocks are not pairwise disjoint")
    if not outside[phi].all():
        return _fail("blocks meet the relative subgroup")
    twins = G.id_sum(g, ids, witness.translates[:, None])
    twin_df = _compare_counts(g, difference_counts(g, twins), outside, "delta")
    if not twin_df:
        return _fail("translated twin is not a DF: " + str(twin_df))
    tiles = np.bincount(np.concatenate((phi, twins.ravel())),
                        minlength=g.order)
    return _compare_counts(g, tiles, outside, "tiling")


# ---------------------------------------------------------------------------
# difference matrices

class DifferenceMatrix:
    """A (G, 3, 1) difference matrix candidate, its element ids checked
    here: `rows`, a read-only int64 (3, |G|) array, and `j`, the id of the
    declared splitting involution, if any."""

    def __init__(self, group, rows, j=None):
        self.group = group
        self.rows = G.frozen_ids(group, rows, "rows", (3, group.order))
        self.j = None if j is None else _element_id(group, j, "j")

    def __repr__(self):
        j = "" if self.j is None else f" split by {_label(self.group, self.j)}"
        return f"<DM over {self.group!r}{j}>"


def dm_check(dm):
    g = dm.group
    rows = dm.rows
    once = np.ones(g.order, dtype=np.int64)

    def permutes(x):
        return np.array_equal(np.bincount(x, minlength=g.order), once)

    problems = [f"rows {i},{k}: difference is not a permutation"
                for i, k in itertools.combinations(range(3), 2)
                if not permutes(G.id_sum(g, rows[i], rows[k], negate=True))]
    valid = not problems
    homogeneous = valid and all(permutes(r) for r in rows)

    def splits_with(j):
        # each half of each row meets every coset {x, x + j} at most once;
        # a coset is named by its lower id
        halves = np.minimum(rows, G.id_sum(g, rows, j)).reshape(3, 2, -1)
        halves = np.sort(halves, axis=2)
        return not np.any(halves[:, :, 1:] == halves[:, :, :-1])

    # the ids of the involutions (or of the declared one) that split it
    splittable = []
    if valid and g.order % 2 == 0:
        candidates = g.involutions if dm.j is None else [dm.j]
        splittable = [j for j in candidates if splits_with(j)]
    return {"valid": valid, "homogeneous": homogeneous,
            "splittable": splittable, "problems": problems}


# ---------------------------------------------------------------------------
# JSON round-trip

def witness_to_json(witness):
    g = witness.group
    labels = np.array(G.element_labels(g), dtype=object)
    rel = ({"spread_x": labels[witness.relative.x]}
           if isinstance(witness.relative, Spread)
           else {"subgroup": sorted(labels[witness.relative.ids].tolist())})
    out = {
        "group": G.group_labels(g),
        "kind": witness.kind,
        "relative": rel,
        "blocks": labels[witness.blocks].tolist(),
        "lam": 1,
    }
    for name in ("j", "a", "b"):
        x = getattr(witness, name)
        if x is not None:
            out[name] = labels[x]
    if witness.translates is not None:
        out["translates"] = labels[witness.translates].tolist()
    if witness.prdf_pair is not None:
        out["prdf_pair"] = labels[list(witness.prdf_pair)].tolist()
    return out


def witness_from_json(data):
    if data.get("lam", 1) != 1:
        raise ValueError(
            f"only lambda = 1 families are supported, got {data['lam']!r}")
    g = G.group_from_labels(data["group"])
    rel = data["relative"]
    relative = (Spread(g, G.label_ids(g, [rel["spread_x"]])[0])
                if "spread_x" in rel
                else G.SubgroupView(g, G.label_ids(g, rel["subgroup"])))
    kw = {name: G.label_ids(g, [data[name]])[0]
          for name in ("j", "a", "b") if name in data}
    for name in ("translates", "prdf_pair"):
        if name in data:
            kw[name] = G.label_ids(g, data[name])
    blocks = [G.label_ids(g, b) for b in data["blocks"]]
    for labels, ids in zip(data["blocks"], blocks):
        if len(ids) != 3:
            raise ValueError(f"block {labels} is not a triple")
    return FamilyWitness(g, blocks, data["kind"], relative, **kw)


def dm_to_json(dm):
    labels = np.array(G.element_labels(dm.group), dtype=object)
    out = {"group": G.group_labels(dm.group), "rows": labels[dm.rows].tolist()}
    if dm.j is not None:
        out["j"] = labels[dm.j]
    return out


def dm_from_json(data):
    g = G.group_from_labels(data["group"])
    return DifferenceMatrix(g, [G.label_ids(g, r) for r in data["rows"]],
                            j=G.label_ids(g, [data["j"]])[0]
                            if "j" in data else None)
