"""Difference-family and difference-matrix kernel.

Everything here is deliberately brute force: these predicates double as
independent oracles for the construction code, so they recompute every
multiset from the definitions and never trust flags carried by a witness.

Difference convention: the entry of a block's difference table at row r,
column c is r -^ c.  In a non-abelian group the order matters and this is
the orientation all the literal tables in the catalog follow.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from . import groups as G


def delta(group, block):
    """The 6 ordered pairwise differences of a triple (positions, so blocks
    with repeated entries - as in strong difference families - contribute 0s)."""
    out = []
    for i, r in enumerate(block):
        for j, c in enumerate(block):
            if i != j:
                out.append(group.sub(r, c))
    return out


def delta_family(group, blocks):
    acc = Counter()
    for b in blocks:
        acc.update(delta(group, b))
    return acc


def flatten(blocks):
    out = []
    for b in blocks:
        out.extend(b)
    return out


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


def _compare_multisets(group, actual: Counter, expected: Counter, what):
    if actual == expected:
        return Diagnosis(True)
    missing = sorted((expected - actual).elements())
    excess = sorted((actual - expected).elements())
    probs = []
    if missing:
        probs.append(f"{what}: missing {[G.encode_element(group, m) for m in missing[:10]]}"
                     + (f" (+{len(missing)-10} more)" if len(missing) > 10 else ""))
    if excess:
        probs.append(f"{what}: excess {[G.encode_element(group, m) for m in excess[:10]]}"
                     + (f" (+{len(excess)-10} more)" if len(excess) > 10 else ""))
    return Diagnosis(False, probs)


# ---------------------------------------------------------------------------
# spreads and witnesses

class Spread:
    """The {2^3, 3} partial spread of a pertinent group: its three order-2
    subgroups together with {0, x, -x}."""

    def __init__(self, group, x):
        self.group = group
        self.x = x
        if group.add(x, group.add(x, x)) != group.zero or x == group.zero:
            raise ValueError("spread generator must have order 3")
        self.order3 = (group.zero, x, group.neg(x))
        self.members = [frozenset((group.zero, j)) for j in group.involutions]
        self.members.append(frozenset(self.order3))
        union = set().union(*self.members)
        if len(union) != 6:
            raise ValueError("spread members must intersect trivially")
        self.union = frozenset(union)

    def __eq__(self, other):
        return isinstance(other, Spread) and self.group == other.group and set(self.order3) == set(other.order3)


class FamilyWitness:
    """A difference family plus everything needed to check its kind.

    kind: "DF" | "RDF" | "PRDF" | "DDDF"
    relative: SubgroupView (possibly trivial) or Spread
    j: resolving involution (J = {0, j}); a, b: the Definition-of-resolvable
    elements in the spread case; translates: per-block twin translates for
    doubly disjoint families; prdf_pair: the (j_alpha, j_beta) witness.
    """

    def __init__(self, group, blocks, kind, relative, j=None, a=None, b=None,
                 translates=None, lam=1, multipliers=None, prdf_pair=None,
                 trace=None):
        self.group = group
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        self.kind = kind
        self.relative = relative
        self.j = j
        self.a = a
        self.b = b
        self.translates = tuple(translates) if translates is not None else None
        self.lam = lam
        self.multipliers = multipliers
        self.prdf_pair = prdf_pair
        self.trace = trace

    def spread(self):
        if not isinstance(self.relative, Spread):
            raise ValueError("witness is not relative to a spread")
        return self.relative

    def subgroup(self):
        if not isinstance(self.relative, G.SubgroupView):
            raise ValueError("witness is not relative to a subgroup")
        return self.relative

    def excluded(self):
        """The union of the spread members, or the subgroup carrier."""
        if isinstance(self.relative, Spread):
            return self.relative.union
        return self.relative.carrier

    def __repr__(self):
        rel = "spread" if isinstance(self.relative, Spread) else f"H{len(self.relative)}"
        return f"<{self.kind} over {self.group!r} rel {rel}, {len(self.blocks)} blocks>"


# ---------------------------------------------------------------------------
# predicates

def is_df(witness):
    g = witness.group
    for b in witness.blocks:
        if len(set(b)) != 3:
            return _fail(f"block {b} has repeated elements")
    expected = Counter(x for x in g.element_list if x not in witness.excluded())
    return _compare_multisets(g, delta_family(g, witness.blocks), expected, "delta")


def _coset_rep_check(group, reps, j, universe):
    """Do reps + {0,j} cover `universe` exactly once each?"""
    covered = Counter()
    for r in reps:
        covered[r] += 1
        covered[group.add(r, j)] += 1
    expected = Counter(universe)
    return _compare_multisets(group, covered, expected, "coset cover")


def is_j_resolvable(witness):
    g = witness.group
    base = is_df(witness)
    if not base:
        return base
    j = witness.j
    if j is None or g.add(j, j) != g.zero or j == g.zero:
        return _fail(f"resolving element {j} is not an involution")

    if isinstance(witness.relative, G.SubgroupView):
        H = witness.relative.carrier
        if j not in H:
            return _fail("j must lie in the relative subgroup")
        universe = [x for x in g.element_list if x not in H]
        return _coset_rep_check(g, flatten(witness.blocks), j, universe)

    # spread variant
    spread = witness.spread()
    invs = set(g.involutions)
    if j not in invs:
        return _fail("j is not one of the three involutions")

    def conj_sub(t):
        return frozenset((g.zero, g.conj(t, j)))

    def full_check(a, b):
        subs = {frozenset((g.zero, j)), conj_sub(a), conj_sub(b)}
        if len(subs) != 3:
            return _fail(f"a={a}, b={b}: conjugates of J do not give all three order-2 subgroups")
        return _coset_rep_check(g, flatten(witness.blocks) + [g.zero, a, b], j, g.element_list)

    if witness.a is not None and witness.b is not None:
        return full_check(witness.a, witness.b)

    # the flatten plus 0 hits all J-cosets but two; a and b live there
    hit = set()
    for r in flatten(witness.blocks) + [g.zero]:
        hit.add(frozenset((r, g.add(r, j))))
    open_cosets = [c for c in {frozenset((x, g.add(x, j))) for x in g.element_list}
                   if c not in hit]
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
    spread = witness.spread()
    x = spread.x
    phi = flatten(witness.blocks)
    tried = []
    for ja, jb in itertools.permutations(g.involutions, 2):
        if _coset_rep_check(g, phi + [g.zero, ja, x], jb, g.element_list):
            witness.prdf_pair = (ja, jb)
            return Diagnosis(True)
        tried.append((ja, jb))
    return _fail(f"no ordered involution pair works (tried {len(tried)})")


def is_doubly_disjoint(witness):
    g = witness.group
    if witness.translates is None:
        return _fail("doubly disjoint check needs per-block translates")
    if len(witness.translates) != len(witness.blocks):
        return _fail("one translate per block required")
    base = is_df(witness)
    if not base:
        return base
    H = witness.excluded()
    phi = flatten(witness.blocks)
    if len(set(phi)) != len(phi):
        return _fail("blocks are not pairwise disjoint")
    if set(phi) & set(H):
        return _fail("blocks meet the relative subgroup")
    twins = [tuple(g.add(x, t) for x in b)
             for b, t in zip(witness.blocks, witness.translates)]
    twin_wit = FamilyWitness(g, twins, "DF", witness.relative)
    twin_df = is_df(twin_wit)
    if not twin_df:
        return _fail("translated twin is not a DF: " + str(twin_df))
    tiles = Counter(phi)
    tiles.update(flatten(twins))
    expected = Counter(x for x in g.element_list if x not in H)
    return _compare_multisets(g, tiles, expected, "tiling")


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

    @property
    def columns(self):
        return list(zip(*self.rows))


def dm_check(dm):
    g = dm.group
    full = Counter(g.element_list)
    valid = True
    problems = []
    for i, k in itertools.combinations(range(3), 2):
        diff = Counter(g.sub(x, y) for x, y in zip(dm.rows[i], dm.rows[k]))
        if diff != full:
            valid = False
            problems.append(f"rows {i},{k}: difference is not a permutation")
    homogeneous = valid and all(Counter(r) == full for r in dm.rows)

    def splits_with(j):
        h = g.order // 2
        for r in dm.rows:
            for half in (r[:h], r[h:]):
                cosets = {frozenset((x, g.add(x, j))) for x in half}
                if len(cosets) != h:
                    return False
        return True

    splittable = []
    if valid and g.order % 2 == 0:
        candidates = [dm.j] if dm.j is not None else list(g.involutions)
        splittable = [j for j in candidates if splits_with(j)]
    return {"valid": valid, "homogeneous": homogeneous,
            "splittable": splittable, "problems": problems}


# ---------------------------------------------------------------------------
# JSON round-trip

def group_labels(group):
    return [a.label for a in group.atoms]


def group_from_labels(labels):
    atoms = []
    for lab in labels:
        if lab == "D":
            atoms.append(G.DAtom())
        elif lab.startswith("G"):
            atoms.append(G.GAtom(int(lab[1:])))
        elif lab.startswith("Z"):
            atoms.append(G.ZAtom(int(lab[1:])))
        elif lab.startswith("V"):
            atoms.append(G.VAtom(int(lab[1:])))
        else:
            raise ValueError(f"unknown atom label {lab!r}")
    return G.GroupDescriptor(atoms)


def witness_to_json(witness):
    g = witness.group
    enc = lambda x: G.encode_element(g, x)
    rel = ({"spread_x": enc(witness.relative.x)}
           if isinstance(witness.relative, Spread)
           else {"subgroup": sorted(map(enc, witness.relative.carrier))})
    out = {
        "group": group_labels(g),
        "kind": witness.kind,
        "relative": rel,
        "blocks": [[enc(x) for x in b] for b in witness.blocks],
        "lam": witness.lam,
    }
    for name in ("j", "a", "b"):
        v = getattr(witness, name)
        if v is not None:
            out[name] = enc(v)
    if witness.translates is not None:
        out["translates"] = [enc(t) for t in witness.translates]
    return out


def witness_from_json(data):
    g = group_from_labels(data["group"])
    dec = lambda s: G.parse_element(g, s)
    rel = data["relative"]
    relative = (Spread(g, dec(rel["spread_x"])) if "spread_x" in rel
                else G.SubgroupView(g, [dec(s) for s in rel["subgroup"]]))
    kw = {}
    for name in ("j", "a", "b"):
        if name in data:
            kw[name] = dec(data[name])
    if "translates" in data:
        kw["translates"] = [dec(t) for t in data["translates"]]
    return FamilyWitness(g, [[dec(s) for s in b] for b in data["blocks"]],
                         data["kind"], relative, lam=data.get("lam", 1), **kw)


def dm_to_json(dm):
    enc = lambda x: G.encode_element(dm.group, x)
    out = {"group": group_labels(dm.group),
           "rows": [[enc(x) for x in r] for r in dm.rows]}
    if dm.j is not None:
        out["j"] = enc(dm.j)
    return out


def dm_from_json(data):
    g = group_from_labels(data["group"])
    dec = lambda s: G.parse_element(g, s)
    return DifferenceMatrix(g, [[dec(s) for s in r] for r in data["rows"]],
                            j=dec(data["j"]) if "j" in data else None)
