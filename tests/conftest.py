import random

import pytest


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


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
# written.  The id-level predicates must give the same verdicts, problem
# strings, spread-search solutions and resolving pairs on group elements.

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


def oracle_is_df(w):
    from collections import Counter
    from kts3p.designkit import Diagnosis
    g = w.group
    for b in w.blocks:
        if len(set(b)) != 3:
            return Diagnosis(False, [f"block {b} has repeated elements"])
    expected = Counter(x for x in g.element_list if x not in w.excluded())
    return _oracle_compare(g, _oracle_delta(g, w.blocks), expected, "delta")


def oracle_coset_rep_check(group, reps, j, universe):
    from collections import Counter
    covered = Counter()
    for r in reps:
        covered[r] += 1
        covered[group.add(r, j)] += 1
    return _oracle_compare(group, covered, Counter(universe), "coset cover")


def oracle_is_j_resolvable(w):
    import itertools
    from kts3p import groups as G
    from kts3p.designkit import Diagnosis
    g = w.group
    base = oracle_is_df(w)
    if not base:
        return base
    j = w.j
    phi = [x for b in w.blocks for x in b]
    if j is None or g.add(j, j) != g.zero or j == g.zero:
        return Diagnosis(False, [f"resolving element {j} is not an involution"])
    if isinstance(w.relative, G.SubgroupView):
        H = w.relative.carrier
        if j not in H:
            return Diagnosis(False, ["j must lie in the relative subgroup"])
        return oracle_coset_rep_check(
            g, phi, j, [x for x in g.element_list if x not in H])
    w.spread()
    if j not in g.involutions:
        return Diagnosis(False, ["j is not one of the three involutions"])

    def full_check(a, b):
        subs = {frozenset((g.zero, j)), frozenset((g.zero, g.conj(a, j))),
                frozenset((g.zero, g.conj(b, j)))}
        if len(subs) != 3:
            return Diagnosis(False, [f"a={a}, b={b}: conjugates of J do not "
                                     "give all three order-2 subgroups"])
        return oracle_coset_rep_check(g, phi + [g.zero, a, b], j,
                                      g.element_list)

    if w.a is not None and w.b is not None:
        return full_check(w.a, w.b)
    hit = {frozenset((r, g.add(r, j))) for r in phi + [g.zero]}
    open_cosets = [c for c in {frozenset((x, g.add(x, j)))
                               for x in g.element_list} if c not in hit]
    if len(open_cosets) != 2:
        return Diagnosis(False, [f"flatten misses {len(open_cosets)} cosets "
                                 "of J, expected 2"])
    solutions = [(a, b) for ca, cb in itertools.permutations(open_cosets)
                 for a in sorted(ca) for b in sorted(cb) if full_check(a, b)]
    if not solutions:
        return Diagnosis(False, ["no valid (a, b) pair exists"])
    w.a, w.b = solutions[0]
    d = Diagnosis(True)
    d.solutions = solutions
    return d


def oracle_is_pseudo_resolvable(w):
    import itertools
    from kts3p.designkit import Diagnosis
    g = w.group
    if g.order % 4 != 0:
        return Diagnosis(False, ["pseudo-resolvability needs a group of "
                                 "doubly even order"])
    base = oracle_is_df(w)
    if not base:
        return base
    phi = [x for b in w.blocks for x in b]
    pairs = list(itertools.permutations(g.involutions, 2))
    for ja, jb in pairs:
        if oracle_coset_rep_check(g, phi + [g.zero, ja, w.spread().x], jb,
                                  g.element_list):
            w.prdf_pair = (ja, jb)
            return Diagnosis(True)
    return Diagnosis(False, [f"no ordered involution pair works "
                             f"(tried {len(pairs)})"])


def oracle_is_doubly_disjoint(w):
    from collections import Counter
    from kts3p.designkit import Diagnosis, FamilyWitness
    g = w.group
    if w.translates is None:
        return Diagnosis(False, ["doubly disjoint check needs per-block "
                                 "translates"])
    if len(w.translates) != len(w.blocks):
        return Diagnosis(False, ["one translate per block required"])
    base = oracle_is_df(w)
    if not base:
        return base
    H = w.excluded()
    phi = [x for b in w.blocks for x in b]
    if len(set(phi)) != len(phi):
        return Diagnosis(False, ["blocks are not pairwise disjoint"])
    if set(phi) & set(H):
        return Diagnosis(False, ["blocks meet the relative subgroup"])
    twins = [tuple(g.add(x, t) for x in b)
             for b, t in zip(w.blocks, w.translates)]
    twin_df = oracle_is_df(FamilyWitness(g, twins, "DF", w.relative))
    if not twin_df:
        return Diagnosis(False, ["translated twin is not a DF: "
                                 + str(twin_df)])
    tiles = Counter(phi) + Counter(x for b in twins for x in b)
    expected = Counter(x for x in g.element_list if x not in H)
    return _oracle_compare(g, tiles, expected, "tiling")


def oracle_dm_check(dm):
    import itertools
    from collections import Counter
    g = dm.group
    full = Counter(g.element_list)
    problems = [f"rows {i},{k}: difference is not a permutation"
                for i, k in itertools.combinations(range(3), 2)
                if Counter(g.sub(x, y) for x, y in
                           zip(dm.rows[i], dm.rows[k])) != full]
    valid = not problems
    homogeneous = valid and all(Counter(r) == full for r in dm.rows)

    def splits_with(j):
        h = g.order // 2
        return all(len({frozenset((x, g.add(x, j))) for x in half}) == h
                   for r in dm.rows for half in (r[:h], r[h:]))

    splittable = []
    if valid and g.order % 2 == 0:
        candidates = [dm.j] if dm.j is not None else list(g.involutions)
        splittable = [j for j in candidates if splits_with(j)]
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
    base_blocks = V._sorted_codes(system.blocks, v)
    base_classes = V._class_set(G.block_codes(np.concatenate(classes), v),
                                sizes)

    def preserves(perm):
        return (np.array_equal(V._sorted_codes(perm[system.blocks], v),
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
    inf_ids = sorted(system.points.index(p) for p in V.INF)
    preserves = _oracle_preservation(system)

    gens = list(g.generators())
    points = V._point_codes(system)
    right = V._translations(system, points, gens)
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
        right, V._translations(system, points, gens, left=True),
        system.points.index(g.zero), g.order)
    return V._report(problems, group=repr(g), generators=len(gens))
