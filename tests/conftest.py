import random

import numpy as np
import pytest


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def tuple_view(group, ids):
    """The element tuples of an array of element ids: a tuple of elements
    for 1-D ids, a tuple of such tuples for (k, 3) blocks.  The tuple
    oracles below read witnesses through it."""
    ids = np.asarray(ids)
    if ids.ndim > 1:
        return tuple(tuple_view(group, row) for row in ids)
    return tuple(group.element_list[x] for x in ids.tolist())


def point_view(system):
    """Each point of a system as the element tuple of its id, and "inf1" to
    "inf3" for the extra points (−3 to −1 in `points`): the point set the
    tuple oracles and the paper's tables read."""
    el = system.group.element_list
    return [f"inf{p + 4}" if p < 0 else el[p] for p in system.points.tolist()]


def file_labels(system):
    """The file label of each point, read off `groups.point_labels` at
    `points + 3`, as problem messages name points."""
    from kts3p import groups as G
    table = G.point_labels(system.group)
    return [table[p + 3] for p in system.points.tolist()]


def base_blocks(system):
    """The orbit representatives that `verify._orbits` re-derives from the
    blocks avoiding the extra points, as element tuples: the full orbits'
    representatives and the short orbit's.  Raises ValueError when the
    blocks are no union of such orbits."""
    from kts3p import verify as V
    reps, shorts, problems = V._orbits(V.SystemView(system))
    if problems:
        raise ValueError("; ".join(problems))
    points = point_view(system)
    return ([tuple(points[i] for i in row) for row in reps.tolist()],
            tuple(points[i] for i in shorts[0].tolist()))


def naive_delta(group, blocks):
    """Reference difference multiset: ordered pairs r - c over each block."""
    from collections import Counter
    acc = Counter()
    for b in blocks:
        for r in b:
            for c in b:
                if r != c:
                    acc[group.sub(r, c)] += 1
    return acc


def delta_counts(group, blocks):
    """designkit.difference_counts of element triples, as a Counter of
    elements, to compare with naive_delta."""
    from collections import Counter
    from kts3p.designkit import difference_counts
    index = group.element_index
    counts = difference_counts(group, [[index[x] for x in b] for b in blocks])
    return Counter({group.element_list[i]: int(n)
                    for i, n in enumerate(counts) if n})


def naive_pair_cover(points, blocks):
    """Reference pair-coverage map for an STS check."""
    from collections import Counter
    acc = Counter()
    for b in blocks:
        bs = sorted(b, key=points.index)
        for i in range(3):
            for j in range(i + 1, 3):
                acc[(bs[i], bs[j])] += 1
    return acc


# ---------------------------------------------------------------------------
# Counter oracle for the designkit predicates: the definitions applied to
# group tuples with the group's own add and sub, as the predicates were first
# written, on the witness read through `tuple_view`.  A witness states its
# elements (j, a, b, the PRDF pair) as ids; the oracles read them as tuples
# at their entry, check what is stated and search for nothing.  The id-level
# predicates must give the same verdicts and problem strings.

def _oracle_delta(group, blocks):
    """Ordered differences by position, so a repeated entry gives 0s."""
    from collections import Counter
    acc = Counter()
    for b in blocks:
        for i, r in enumerate(b):
            for j, c in enumerate(b):
                if i != j:
                    acc[group.sub(r, c)] += 1
    return acc


def _oracle_compare(group, actual, expected, what):
    from kts3p import groups as G
    from kts3p.designkit import Diagnosis
    if actual == expected:
        return Diagnosis(True)
    probs = []
    for word, short in (("missing", expected - actual),
                        ("excess", actual - expected)):
        short = sorted(short.elements())
        if short:
            probs.append(f"{what}: {word} "
                         f"{[G.encode_element(group, m) for m in short[:10]]}"
                         + (f" (+{len(short)-10} more)" if len(short) > 10
                            else ""))
    return Diagnosis(False, probs)


def _oracle_df(g, blocks, excluded):
    from collections import Counter
    from kts3p.designkit import Diagnosis
    for b in blocks:
        if len(set(b)) != 3:
            return Diagnosis(False, [f"block {b} has repeated elements"])
    expected = Counter(x for x in g.element_list if x not in excluded)
    return _oracle_compare(g, _oracle_delta(g, blocks), expected, "delta")


def oracle_excluded(w):
    """The elements a witness's relative excludes, from its subgroup's ids
    or its spread's members: {0, x, -x} and the involutions."""
    from kts3p.designkit import Spread
    if isinstance(w.relative, Spread):
        return set(tuple_view(w.group, [*w.relative.order3,
                                        *w.group.involutions]))
    return set(tuple_view(w.group, w.relative.ids))


def oracle_is_df(w):
    return _oracle_df(w.group, tuple_view(w.group, w.blocks),
                      oracle_excluded(w))


def oracle_coset_rep_check(group, reps, j, universe):
    from collections import Counter
    covered = Counter()
    for r in reps:
        covered[r] += 1
        covered[group.add(r, j)] += 1
    return _oracle_compare(group, covered, Counter(universe), "coset cover")


def oracle_is_j_resolvable(w):
    from kts3p import groups as G
    from kts3p.designkit import Diagnosis
    g = w.group
    base = oracle_is_df(w)
    if not base:
        return base
    if w.j is None:
        return Diagnosis(False, ["the family states no resolving involution "
                                 "j"])
    j = g.element_list[w.j]
    phi = list(tuple_view(g, w.blocks.ravel()))
    if g.add(j, j) != g.zero or j == g.zero:
        return Diagnosis(False, [f"resolving element "
                                 f"{G.encode_element(g, j)} is not an "
                                 "involution"])
    if isinstance(w.relative, G.SubgroupView):
        H = oracle_excluded(w)
        if j not in H:
            return Diagnosis(False, ["j must lie in the relative subgroup"])
        return oracle_coset_rep_check(
            g, phi, j, [x for x in g.element_list if x not in H])
    w.spread()
    if j not in tuple_view(g, g.involutions):
        return Diagnosis(False, ["j is not one of the three involutions"])
    if w.a is None or w.b is None:
        return Diagnosis(False, ["a spread family must state its (a, b)"])
    a, b = tuple_view(g, [w.a, w.b])
    subs = {frozenset((g.zero, j)), frozenset((g.zero, g.conj(a, j))),
            frozenset((g.zero, g.conj(b, j)))}
    if len(subs) != 3:
        return Diagnosis(False, [f"a={G.encode_element(g, a)}, "
                                 f"b={G.encode_element(g, b)}: conjugates "
                                 "of J do not give all three order-2 "
                                 "subgroups"])
    return oracle_coset_rep_check(g, phi + [g.zero, a, b], j, g.element_list)


def oracle_is_pseudo_resolvable(w):
    from kts3p import groups as G
    from kts3p.designkit import Diagnosis
    g = w.group
    if g.order % 4 != 0:
        return Diagnosis(False, ["pseudo-resolvability needs a group of "
                                 "doubly even order"])
    base = oracle_is_df(w)
    if not base:
        return base
    if w.prdf_pair is None:
        return Diagnosis(False, ["the family states no pair (j_alpha, "
                                 "j_beta)"])
    ja, jb = tuple_view(g, w.prdf_pair)
    if ja == jb or not {ja, jb} <= set(tuple_view(g, g.involutions)):
        return Diagnosis(False, [f"the pair ({G.encode_element(g, ja)}, "
                                 f"{G.encode_element(g, jb)}) is not two "
                                 "distinct involutions"])
    phi = list(tuple_view(g, w.blocks.ravel()))
    x = g.element_list[w.spread().x]
    return oracle_coset_rep_check(g, phi + [g.zero, ja, x], jb,
                                  g.element_list)


def oracle_is_doubly_disjoint(w):
    from collections import Counter
    from kts3p.designkit import Diagnosis
    g = w.group
    if w.translates is None:
        return Diagnosis(False, ["doubly disjoint check needs per-block "
                                 "translates"])
    if len(w.translates) != len(w.blocks):
        return Diagnosis(False, ["one translate per block required"])
    base = oracle_is_df(w)
    if not base:
        return base
    H = oracle_excluded(w)
    blocks = tuple_view(g, w.blocks)
    phi = [x for b in blocks for x in b]
    if len(set(phi)) != len(phi):
        return Diagnosis(False, ["blocks are not pairwise disjoint"])
    if set(phi) & H:
        return Diagnosis(False, ["blocks meet the relative subgroup"])
    twins = [tuple(sorted(g.add(x, t) for x in b))
             for b, t in zip(blocks, tuple_view(g, w.translates))]
    twin_df = _oracle_df(g, twins, H)
    if not twin_df:
        return Diagnosis(False, ["translated twin is not a DF: "
                                 + str(twin_df)])
    tiles = Counter(phi) + Counter(x for b in twins for x in b)
    expected = Counter(x for x in g.element_list if x not in H)
    return _oracle_compare(g, tiles, expected, "tiling")


def oracle_dm_check(dm):
    """`dm_check` on the matrix's rows and j read as element tuples."""
    import itertools
    from collections import Counter
    g = dm.group
    rows = tuple_view(g, dm.rows)
    full = Counter(g.element_list)
    problems = [f"rows {i},{k}: difference is not a permutation"
                for i, k in itertools.combinations(range(3), 2)
                if Counter(g.sub(x, y) for x, y in
                           zip(rows[i], rows[k])) != full]
    valid = not problems
    homogeneous = valid and all(Counter(r) == full for r in rows)

    def splits_with(j):
        h = g.order // 2
        return all(len({frozenset((x, g.add(x, j))) for x in half}) == h
                   for r in rows for half in (r[:h], r[h:]))

    # the splitting involutions, named by their ids
    splittable = []
    if valid and g.order % 2 == 0:
        candidates = tuple_view(g, g.involutions if dm.j is None
                                else [dm.j])
        splittable = [g.element_index[j] for j in candidates
                      if splits_with(j)]
    return {"valid": valid, "homogeneous": homogeneous,
            "splittable": splittable, "problems": problems}


# ---------------------------------------------------------------------------
# Per-generator oracle for verify_3pyramidal: each generator's images of the
# blocks and classes compared with them in full, as the check was first
# written.  The development-based check must give the same reports.

def _oracle_preservation(system):
    import numpy as np
    from kts3p import groups as G
    from kts3p import verify as V
    v = len(system.points)
    classes = [np.empty((0, 3), np.int32), *system.resolution]
    sizes = np.array([len(rows) for rows in system.resolution], dtype=np.int64)
    base_blocks = np.sort(G.block_codes(system.blocks, v))
    base_classes = V._class_set(G.block_codes(np.concatenate(classes), v),
                                sizes)

    def preserves(perm):
        return (np.array_equal(np.sort(G.block_codes(perm[system.blocks], v)),
                               base_blocks),
                np.array_equal(V._class_set(G.block_codes(
                    perm[np.concatenate(classes)], v), sizes), base_classes))
    return preserves


def oracle_verify_3pyramidal(system):
    import numpy as np
    from kts3p import groups as G
    from kts3p import verify as V
    g = system.group
    v = len(system.points)
    problems = V._point_problems(system)
    if problems:
        return V._report(problems, group=repr(g))
    points = point_view(system)
    inf_ids = sorted(points.index(p) for p in ("inf1", "inf2", "inf3"))
    preserves = _oracle_preservation(system)

    gen_ids = g.generators()
    gens = tuple_view(g, gen_ids)
    codes = V._point_codes(system)
    right = V._translations(system, codes, gen_ids)
    for gen, perm in zip(gens, right):
        name = G.encode_element(g, gen)
        blocks_kept, classes_kept = preserves(perm)
        if not blocks_kept:
            problems.append(f"translation by {name} does not preserve blocks")
        if not classes_kept:
            problems.append(f"translation by {name} does not preserve classes")
        fixed = np.flatnonzero(perm == np.arange(v))
        if gen != g.zero and fixed.tolist() != inf_ids:
            problems.append(f"translation by {name} fixes {len(fixed)} points")
    problems += V._regularity_problems(
        right, V._translations(system, codes, gen_ids, left=True),
        points.index(g.zero), g.order)
    return V._report(problems, group=repr(g), generators=len(gens))


# ---------------------------------------------------------------------------
# Tuple oracles for the route's group checks, as they were first written: the
# subgroup closure grown one `add` at a time, and the multiplier action
# compared for every member of the multiplier group.  The id-level
# `SubgroupView` and the generator-only `verify_multiplier_action` must give
# the same verdicts.

def oracle_subgroup_generators(ambient, ids):
    """The generators `SubgroupView` finds for the element ids `ids`, as
    ids, or the ValueError it raises; the closure runs on the elements
    they name."""
    strays = [i for i in ids if not 0 <= i < ambient.order]
    if strays:
        raise ValueError(f"subgroup ids hold ids outside 0 to "
                         f"{ambient.order - 1}: {sorted(strays)[:3]}")
    carrier = frozenset(tuple_view(ambient, list(ids)))
    if ambient.zero not in carrier:
        raise ValueError("subgroup must contain 0")
    gens = []
    span = {ambient.zero}
    for s in sorted(carrier):
        if s in span:
            continue
        gens.append(s)
        todo = [(x, gens[-1:]) for x in span]
        while todo:
            x, by = todo.pop()
            for t in by:
                y = ambient.add(x, t)
                if y not in carrier:
                    raise ValueError("subgroup not closed under + at ids "
                                     f"{ambient.element_index[x]},"
                                     f"{ambient.element_index[t]}")
                if y not in span:
                    span.add(y)
                    todo.append((y, gens))
    if len(span) != len(carrier):
        raise ValueError("the carrier is not the span of its elements")
    return [ambient.element_index[s] for s in gens]


def oracle_mu(ring, s):
    """μ_s on element tuples: the trailing ring slots multiplied by s."""
    w = ring.omega
    return lambda x: x[:len(x) - w] + ring.mul(x[len(x) - w:], s)


def oracle_multiplier_action(witness, mult):
    """Every member μ_s of `mult` maps the set of blocks onto itself and
    fixes the excluded elements, applied to element tuples."""
    if mult.ring.n == 1:
        return True
    g = witness.group
    tuples = tuple_view(g, witness.blocks)
    blocks = {frozenset(b) for b in tuples}
    for s in mult.members:
        f = oracle_mu(mult.ring, s)
        if {frozenset(map(f, b)) for b in tuples} != blocks:
            return False
        if any(f(h) != h for h in oracle_excluded(witness)):
            return False
    return True


# ---------------------------------------------------------------------------
# Tuple oracles for the automorphism witnesses, as they were first written:
# each witness built point by point with the group's own `add` and the tuple
# μ_s (`oracle_mu`) through a v-entry point index, and the group they
# generate enumerated as tuples.  `automorphism_lower_bound` and the
# Schreier–Sims order of `verify_automorphisms` must agree with them.

def oracle_automorphism_lower_bound(system):
    from kts3p import groups as G
    g = system.group
    w = system.witness
    mult = w.multipliers if w is not None else None
    m = mult.order if mult else 1
    index = {p: i for i, p in enumerate(point_view(system))}

    def perm_of(fn):
        out = list(range(len(system.points)))
        for x in g.element_list:
            out[index[x]] = index[fn(x)]
        return out

    gens = []
    for ggen in tuple_view(g, g.generators()):
        gens.append((f"translate {G.encode_element(g, ggen)}",
                     perm_of(lambda x: g.add(x, ggen))))
    if mult:
        for s in mult.generators:
            gens.append((f"multiplier {s}", perm_of(oracle_mu(mult.ring, s))))
    return m * g.order, gens


def oracle_closure_order(perms, v):
    """The order of the group the permutations of range(v) generate: the
    group enumerated as tuples, from the identity."""
    perms = [tuple(int(i) for i in p) for p in perms]
    members = {tuple(range(v))}
    frontier = list(members)
    while frontier:
        p = frontier.pop()
        for q in perms:
            r = tuple(q[i] for i in p)
            if r not in members:
                members.add(r)
                frontier.append(r)
    return len(members)
