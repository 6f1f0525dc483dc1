"""Difference-family and difference-matrix kernel.

These predicates double as independent oracles for the construction code:
they recompute every multiset from the definitions and never trust flags
carried by a witness.  They count over element ids (indices into
`element_list`), which a witness holds for its blocks and translates: sums
and differences come from the per-atom tables of `groups.atom_table`, built
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
            names = [G.encode_element(group, group.element_list[i])
                     for i in first]
            problems.append(f"{what}: {word} {names}"
                            + (f" (+{total - 10} more)" if total > 10 else ""))
    return Diagnosis(not problems, problems)


def _outside(witness):
    """The id histogram of the elements outside witness.excluded(): 1 for
    each of them, 0 elsewhere."""
    outside = np.ones(witness.group.order, dtype=np.int64)
    outside[witness.excluded()] = 0
    return outside


def _frozen_ids(group, ids, what, rows=False):
    """A read-only int64 copy of the element ids `ids`: k ids, or with
    `rows` k rows of 3, each sorted.  Another shape (rows are never
    reshaped), a non-integer entry or an id outside range(|G|) raises
    ValueError."""
    tail = (3,) if rows else ()
    arr = np.asarray(ids)  # ragged rows raise ValueError here
    if arr.shape == (0,):
        arr = arr.reshape(0, *tail)
    if (arr.ndim == 0 or arr.shape[1:] != tail
            or arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"{what} must be a (k{', 3' if rows else ','}) "
                         f"array of integer element ids, not {arr.dtype} "
                         f"{arr.shape}")
    arr = arr.astype(np.int64)
    if arr.size and not 0 <= arr.min() <= arr.max() < group.order:
        raise ValueError(f"{what} hold ids outside 0 to {group.order - 1}, "
                         f"the element ids of {group!r}")
    if rows:
        arr.sort(axis=1)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# spreads and witnesses

class Spread:
    """The {2^3, 3} partial spread of a pertinent group: its three order-2
    subgroups together with {0, x, -x}."""

    def __init__(self, group, x):
        self.group = group
        self.x = x
        # `add` reduces its arguments, so check membership first
        if x not in group.element_index:
            raise ValueError(f"spread generator {x} is not an element of "
                             f"{group!r}")
        if group.add(x, group.add(x, x)) != group.zero or x == group.zero:
            raise ValueError("spread generator must have order 3")
        self.order3 = (group.zero, x, group.neg(x))
        # the members {0, j} and {0, x, -x} meet only in 0 when their
        # union has six elements
        index = group.element_index
        union = {index[y] for y in (*self.order3, *group.involutions)}
        if len(union) != 6:
            raise ValueError("spread members must intersect trivially")
        self.ids = _frozen_ids(group, sorted(union), "spread")


class FamilyWitness:
    """A difference family (lambda 1) plus what is needed to check its kind.

    blocks: element ids, a read-only int64 (k, 3) array, rows sorted here
    kind: "DF" | "RDF" | "PRDF" | "DDDF"
    relative: SubgroupView (possibly trivial) or Spread
    j: resolving involution (J = {0, j}); a, b: the Definition-of-resolvable
    elements in the spread case; translates: per-block twin translates (ids)
    for doubly disjoint families; prdf_pair: the (j_alpha, j_beta) witness.
    """

    def __init__(self, group, blocks, kind, relative, j=None, a=None, b=None,
                 translates=None, multipliers=None, prdf_pair=None,
                 trace=None):
        self.group = group
        self.blocks = _frozen_ids(group, blocks, "blocks", rows=True)
        self.kind = kind
        self.relative = relative
        self.j = j
        self.a = a
        self.b = b
        self.translates = (None if translates is None else
                           _frozen_ids(group, translates, "translates"))
        self.multipliers = multipliers
        self.prdf_pair = prdf_pair
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
    reps = np.asarray(reps, dtype=np.int64)
    covered = np.bincount(np.concatenate((reps, G.id_sum(group, reps, j))),
                          minlength=group.order)
    return _compare_counts(group, covered, expected, "coset cover")


def is_j_resolvable(witness):
    g = witness.group
    base = is_df(witness)
    if not base:
        return base
    index = g.element_index
    j = witness.j
    if j not in index or g.add(j, j) != g.zero or j == g.zero:
        return _fail(f"resolving element {j} is not an involution")
    phi = witness.blocks.ravel()

    if isinstance(witness.relative, G.SubgroupView):
        if j not in witness.relative.carrier:
            return _fail("j must lie in the relative subgroup")
        return _coset_rep_check(g, phi, index[j], _outside(witness))

    # spread variant; spread() raises unless the relative is a spread
    witness.spread()
    if j not in g.involutions:
        return _fail("j is not one of the three involutions")
    everything = np.ones(g.order, dtype=np.int64)

    def conj_sub(t):
        return frozenset((g.zero, g.conj(t, j)))

    def full_check(a, b):
        subs = {frozenset((g.zero, j)), conj_sub(a), conj_sub(b)}
        if len(subs) != 3:
            return _fail(f"a={a}, b={b}: conjugates of J do not give all three order-2 subgroups")
        reps = np.append(phi, [index[g.zero], index[a], index[b]])
        return _coset_rep_check(g, reps, index[j], everything)

    if witness.a is not None and witness.b is not None:
        bad = [x for x in (witness.a, witness.b) if x not in index]
        if bad:
            return _fail(f"(a, b) holds {bad[0]}, which is not an element "
                         f"of {g!r}")
        return full_check(witness.a, witness.b)

    # the flatten plus 0 hits all J-cosets but two; a and b live there
    plus_j = G.id_sum(g, np.arange(g.order), index[j])
    reps = np.append(phi, index[g.zero])
    hit = np.zeros(g.order, dtype=bool)
    hit[reps] = hit[plus_j[reps]] = True
    # the open cosets in the order a set of all J-cosets lists them; it
    # decides solutions[0], which becomes the witness's (a, b)
    el = g.element_list
    open_elements = {el[x] for x in np.flatnonzero(~hit)}
    open_cosets = [c for c in {frozenset((el[x], el[y]))
                               for x, y in enumerate(plus_j.tolist())}
                   if not c.isdisjoint(open_elements)]
    if len(open_cosets) != 2:
        return _fail(f"flatten misses {len(open_cosets)} cosets of J, expected 2")
    solutions = []
    for ca, cb in itertools.permutations(open_cosets):
        for a in sorted(ca):
            for b in sorted(cb):
                if full_check(a, b):
                    solutions.append((a, b))
    if not solutions:
        return _fail("no valid (a, b) pair exists")
    witness.a, witness.b = solutions[0]
    d = Diagnosis(True)
    d.solutions = solutions
    return d


def is_pseudo_resolvable(witness):
    g = witness.group
    if g.order % 4 != 0:
        return _fail("pseudo-resolvability needs a group of doubly even order")
    base = is_df(witness)
    if not base:
        return base
    index = g.element_index
    head = [index[g.zero], index[witness.spread().x]]
    everything = np.ones(g.order, dtype=np.int64)
    pairs = list(itertools.permutations(g.involutions, 2))
    for ja, jb in pairs:
        reps = np.append(witness.blocks, head + [index[ja]])
        if _coset_rep_check(g, reps, index[jb], everything):
            witness.prdf_pair = (ja, jb)
            return Diagnosis(True)
    return _fail(f"no ordered involution pair works (tried {len(pairs)})")


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
    def __init__(self, group, rows, j=None):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or len({len(r) for r in rows}) != 1:
            raise ValueError("a difference matrix here is 3 x |H|")
        if len(rows[0]) != group.order:
            raise ValueError("row length must equal the group order")
        self.group = group
        self.rows = rows
        self.j = j  # declared splitting involution, if any


def dm_check(dm):
    g = dm.group
    index = g.element_index
    bad = [f"row {i} holds {x}, which is not an element of {g!r}"
           for i, r in enumerate(dm.rows) for x in r if x not in index]
    if bad:
        return {"valid": False, "homogeneous": False, "splittable": [],
                "problems": bad[:1]}
    rows = np.array([[index[x] for x in r] for r in dm.rows], dtype=np.int64)
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

    splittable = []
    if valid and g.order % 2 == 0:
        candidates = [dm.j] if dm.j is not None else list(g.involutions)
        splittable = [j for j in candidates
                      if j in index and splits_with(index[j])]
    return {"valid": valid, "homogeneous": homogeneous,
            "splittable": splittable, "problems": problems}


# ---------------------------------------------------------------------------
# JSON round-trip

def witness_to_json(witness):
    g = witness.group
    enc = lambda x: G.encode_element(g, x)
    labels = np.array(G.element_labels(g), dtype=object)
    rel = ({"spread_x": enc(witness.relative.x)}
           if isinstance(witness.relative, Spread)
           else {"subgroup": sorted(map(enc, witness.relative.carrier))})
    out = {
        "group": G.group_labels(g),
        "kind": witness.kind,
        "relative": rel,
        "blocks": labels[witness.blocks].tolist(),
        "lam": 1,
    }
    for name in ("j", "a", "b"):
        v = getattr(witness, name)
        if v is not None:
            out[name] = enc(v)
    if witness.translates is not None:
        out["translates"] = labels[witness.translates].tolist()
    return out


def witness_from_json(data):
    if data.get("lam", 1) != 1:
        raise ValueError(
            f"only lambda = 1 families are supported, got {data['lam']!r}")
    g = G.group_from_labels(data["group"])
    dec = lambda s: G.parse_element(g, s)
    rel = data["relative"]
    relative = (Spread(g, dec(rel["spread_x"])) if "spread_x" in rel
                else G.SubgroupView(g, [g.element_list[i] for i in
                                        G.label_ids(g, rel["subgroup"])]))
    kw = {name: dec(data[name]) for name in ("j", "a", "b") if name in data}
    if "translates" in data:
        kw["translates"] = G.label_ids(g, data["translates"])
    blocks = G.triple_ids(g, [[g.element_list[i] for i in G.label_ids(g, b)]
                              for b in data["blocks"]])
    return FamilyWitness(g, blocks, data["kind"], relative, **kw)


def dm_to_json(dm):
    enc = lambda x: G.encode_element(dm.group, x)
    out = {"group": G.group_labels(dm.group),
           "rows": [[enc(x) for x in r] for r in dm.rows]}
    if dm.j is not None:
        out["j"] = enc(dm.j)
    return out


def dm_from_json(data):
    g = G.group_from_labels(data["group"])
    rows = [[g.element_list[i] for i in G.label_ids(g, r)]
            for r in data["rows"]]
    return DifferenceMatrix(g, rows, j=G.parse_element(g, data["j"])
                            if "j" in data else None)
