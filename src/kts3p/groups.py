"""Additive finite groups built from atoms: D, G_alpha, Z_m and V_n.

Elements of a product group are flat tuples of small ints; each atom owns a
contiguous slice of slots.  D and G_alpha carry twisted (non-abelian) laws:

  D (order 6, underlying Z_2 x Z_3):
      (a,b) + (c,d) = (a+c, (-1)^c b + d)
  G_alpha (order 3*4^alpha, underlying Z_3 x Z_{2^a} x Z_{2^a}):
      (a,b,c) + (d,e,f) = (a,b,c)*Theta^d + (d,e,f),
      Theta acting by (b,c) -> (-c, b-c).

Z_m and V_n add coordinate-wise (V_n slot-wise in its component fields).

An atom defines only `add`.  Negation and x −^ y = x + (−y) are read off
its Cayley table (`atom_table`, `atom_negation`), and so are the
translations of element ids (`translation_ids`): the law is written once
per atom.
"""

from __future__ import annotations

import collections
import itertools
import math
import re
from functools import cache, cached_property

import numpy as np

from .finring import build_ring

# blocks per chunk wherever the b blocks of a system are coded, decoded or
# compared one piece at a time: every order up to 443 fits in one chunk,
# and at large orders a chunk's temporaries stay small beside the system
BLOCK_CHUNK = 1 << 15


class DAtom:
    """The order-6 pertinent group in additive presentation."""

    width = 2
    order = 6
    label = "D"

    def coord_lists(self):
        return [range(2), range(3)]

    zero = (0, 0)

    def add(self, x, y):
        a, b = x
        c, d = y
        return ((a + c) % 2, ((b if c == 0 else -b) + d) % 3)

    def generators(self):
        return [(1, 0), (0, 1)]

    canonical_involution = (1, 0)

    def __eq__(self, other):
        return isinstance(other, DAtom)

    def __hash__(self):
        return hash("D")

    def __repr__(self):
        return "D"


class GAtom:
    """G_alpha: Z_{2^alpha}^2 x| Z_3 with the Theta twist."""

    def __init__(self, alpha):
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.alpha = alpha
        self.m = 2 ** alpha
        self.order = 3 * 4 ** alpha

    width = 3
    zero = (0, 0, 0)

    @property
    def label(self):
        return f"G{self.alpha}"

    def coord_lists(self):
        return [range(3), range(self.m), range(self.m)]

    def add(self, x, y):
        a, b, c = x
        d, e, f = y
        m = self.m
        d3 = d % 3
        if d3 == 0:
            tb, tc = b, c
        elif d3 == 1:
            tb, tc = -c, b - c
        else:
            tb, tc = c - b, -b
        return ((a + d) % 3, (tb + e) % m, (tc + f) % m)

    def generators(self):
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @property
    def canonical_involution(self):
        h = self.m // 2
        return (0, h, h)

    def __eq__(self, other):
        return isinstance(other, GAtom) and self.alpha == other.alpha

    def __hash__(self):
        return hash(("G", self.alpha))

    def __repr__(self):
        return self.label


class ZAtom:
    """Cyclic Z_m."""

    width = 1

    def __init__(self, m):
        self.m = m
        self.order = m
        self.label = f"Z{m}"
        self.zero = (0,)

    def coord_lists(self):
        return [range(self.m)]

    def add(self, x, y):
        return ((x[0] + y[0]) % self.m,)

    def generators(self):
        return [(1,)]

    def __eq__(self, other):
        return isinstance(other, ZAtom) and self.m == other.m

    def __hash__(self):
        return hash(("Z", self.m))

    def __repr__(self):
        return self.label


class VAtom:
    """The additive group of the ring F_n; one slot per component field."""

    def __init__(self, ring):
        if isinstance(ring, int):
            ring = build_ring(ring)
        self.ring = ring
        self.order = ring.n
        self.width = ring.omega
        self.label = f"V{ring.n}"
        self.zero = ring.zero

    def coord_lists(self):
        return [range(f.q) for f in self.ring.fields]

    def add(self, x, y):
        return self.ring.add(x, y)

    def generators(self):
        gens = []
        for i, f in enumerate(self.ring.fields):
            for d in range(f.k):
                g = [0] * self.width
                g[i] = f.p ** d  # encoded basis element x^d
                gens.append(tuple(g))
        return gens

    def __eq__(self, other):
        return isinstance(other, VAtom) and self.ring.n == other.ring.n

    def __hash__(self):
        return hash(("V", self.ring.n))

    def __repr__(self):
        return self.label


class GroupDescriptor:
    """A direct product of atoms, with elements as flat int tuples."""

    def __init__(self, atoms):
        self.atoms = tuple(a for a in atoms if a.width > 0 or a.order > 1)
        self.offsets = []
        off = 0
        for a in self.atoms:
            self.offsets.append(off)
            off += a.width
        self.width = off
        self.order = 1
        for a in self.atoms:
            self.order *= a.order
        self.zero = tuple(c for a in self.atoms for c in a.zero)

    def __repr__(self):
        return " x ".join(a.label for a in self.atoms) or "V1"

    def __eq__(self, other):
        return isinstance(other, GroupDescriptor) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def add(self, x, y):
        out = []
        for a, off in zip(self.atoms, self.offsets):
            out.extend(a.add(x[off:off + a.width], y[off:off + a.width]))
        return tuple(out)

    def sub(self, x, y):
        """x −^ y = x + (−y)."""
        return self.add(x, self.neg(y))

    def neg(self, x):
        """−x, read for each atom off its table (`atom_negation`)."""
        out = []
        for a, off in zip(self.atoms, self.offsets):
            out.extend(atom_elements(a)[
                atom_negation(a)[local_id(a, x[off:off + a.width])]])
        return tuple(out)

    def conj(self, g, x):
        """g + x - g."""
        return self.add(self.add(g, x), self.neg(g))

    @cached_property
    def element_list(self):
        """All elements in canonical (lexicographic) order."""
        ranges = [r for a in self.atoms for r in a.coord_lists()]
        if not ranges:
            return [()]
        return list(itertools.product(*ranges))

    @cached_property
    def element_index(self):
        return {e: i for i, e in enumerate(self.element_list)}

    @cached_property
    def label_index(self):
        """Canonical element label (`element_labels`) -> element id: the
        one table every reader of element text looks labels up in."""
        return {s: i for i, s in enumerate(element_labels(self))}

    @cached_property
    def involutions(self):
        """The ids of the elements x ≠ 0 with x + x = 0, increasing: one
        `id_sum` doubles every element id at once."""
        if not self.atoms:
            return ()
        ids = np.arange(self.order)
        # every atom's zero has all coordinates 0, so the zero's id is 0
        return tuple(np.flatnonzero(id_sum(self, ids, ids) == 0)[1:].tolist())

    @cached_property
    def canonical_involution(self):
        """The id of the head atom's canonical involution, 0 elsewhere: the
        head is the leading digit of every id."""
        lead = self.atoms[0] if self.atoms else None
        if not isinstance(lead, (DAtom, GAtom)):
            raise ValueError(f"canonical involution undefined for {self!r}")
        return (local_id(lead, lead.canonical_involution)
                * (self.order // lead.order))

    @cached_property
    def is_pertinent(self):
        """Three involutions, each pair conjugate: y = g + x − g for some g."""
        inv = self.involutions
        ids = np.arange(self.order)
        return len(inv) == 3 and all(
            np.any(id_sum(self, id_sum(self, ids, x), ids, negate=True) == y)
            for x, y in itertools.combinations(inv, 2))

    def generators(self):
        """The ids of each atom's generators, in that atom's digit with
        every other digit 0."""
        gens, stride = [], self.order
        for a in self.atoms:
            stride //= a.order
            gens += [local_id(a, x) * stride for x in a.generators()]
        return gens


# ---------------------------------------------------------------------------
# pertinent orders

def pertinent_order(n):
    """True iff some group of order n has exactly 3 involutions, pairwise conjugate."""
    if n <= 0:
        return False
    if n % 12 == 6:
        return True
    alpha = 0
    m = n
    while m % 4 == 0:
        m //= 4
        alpha += 1
    return alpha > 0 and m % 6 == 3


def pertinent_witness(n):
    if not pertinent_order(n):
        raise ValueError(f"{n} is not a pertinent order")
    if n % 12 == 6:
        m = n // 6
        atoms = [DAtom()] + ([ZAtom(m)] if m > 1 else [])
        return GroupDescriptor(atoms)
    alpha, m = 0, n
    while m % 4 == 0:
        m //= 4
        alpha += 1
    while m % 6 != 3:  # push spare factors of 4 back until the odd part shows
        m *= 4
        alpha -= 1
    k = m // 3
    atoms = [GAtom(alpha)] + ([ZAtom(k)] if k > 1 else [])
    return GroupDescriptor(atoms)


# ---------------------------------------------------------------------------
# subgroups

class SubgroupView:
    """A set of element ids of an ambient group, checked on construction to
    be a subgroup.  `ids` holds the sorted ids, `generators` the ids of the
    generating set the check found."""

    def __init__(self, ambient, ids):
        self.ambient = ambient
        ids = frozen_ids(ambient, ids, "subgroup ids", sort=True)
        self.ids = ids[run_starts(ids)]  # each id once
        self.ids.flags.writeable = False
        self._verify()

    def _verify(self):
        # Take as generators, in increasing order, the ids not yet in the
        # span of the earlier ones.  Each generator s must map the subgroup
        # into itself by x -> x + s: one `id_sum` over the sorted ids, read
        # back as local ids (positions in that list).  The span is the
        # orbit of 0 under these maps.  Every element is spanned or becomes
        # a generator, so the span ends up equal to the set, which is then
        # a subgroup: it is closed under + by its generators.  Each new
        # generator at least doubles the span, so there are at most log2|H|
        # of them.
        G, ids = self.ambient, self.ids
        if not len(ids) or ids[0] != 0:  # the zero's id is 0
            raise ValueError("subgroup must contain 0")
        gens, moves = [], []
        spanned = np.zeros(len(ids), dtype=bool)
        spanned[0] = True
        for i in range(len(ids)):
            if spanned[i]:
                continue
            images = id_sum(G, ids, ids[i])
            local = np.searchsorted(ids, images)
            outside = ids[np.minimum(local, len(ids) - 1)] != images
            if outside.any():
                raise ValueError("subgroup not closed under + at ids "
                                 f"{ids[np.argmax(outside)]},{ids[i]}")
            gens.append(int(ids[i]))
            moves.append(map_powers(local[None]))
            spanned = orbit(spanned, np.concatenate(moves))
        self.generators = gens

    def __len__(self):
        return len(self.ids)

    def is_normal(self):
        # conjugation by g is an automorphism, so g<S>g⁻¹ = <gSg⁻¹> ⊆ H when
        # gSg⁻¹ ⊆ H; it is then equal to H by size, and the g for which this
        # holds form a subgroup, so checking G's generators covers G
        G = self.ambient
        g = np.array(G.generators(), dtype=np.int64)[:, None]
        h = np.array(self.generators, dtype=np.int64)
        conj = id_sum(G, id_sum(G, g, h), g, negate=True)
        return bool(np.isin(conj, self.ids, kind="table").all())


# ---------------------------------------------------------------------------
# element maps between groups

def g_chain_embedding(alpha_src, alpha_dst):
    """The injection G_{alpha_src} -> G_{alpha_dst}: (a,b,c) -> (a, 2^i b, 2^i c)."""
    i = alpha_dst - alpha_src
    if i < 0:
        raise ValueError("source alpha exceeds destination alpha")
    f = 2 ** i

    def fn(coords):
        a, b, c = coords
        return (a, f * b, f * c)

    return fn


def triple_ids(group, rows):
    """The element ids of `rows`, triples of elements, as an int64 (k, 3)
    array; a row that is not a triple or holds a non-element raises."""
    index = group.element_index
    rows = [tuple(r) for r in rows]
    for row in rows:
        stray = [x for x in row if x not in index]
        if len(row) != 3 or stray:
            raise ValueError(f"block {row} " + (
                f"holds {stray[0]}, which is not an element of {group!r}"
                if stray else "is not a triple"))
    return np.array([[index[x] for x in row] for row in rows],
                    dtype=np.int64).reshape(-1, 3)


def coord_sizes(group):
    """The sizes of the group's coordinate ranges, atom by atom."""
    return [len(r) for a in group.atoms for r in a.coord_lists()]


def coord_columns(group):
    """The coordinates of every element id, one int array per coordinate:
    `element_list` read as columns."""
    return np.unravel_index(np.arange(group.order), coord_sizes(group))


def map_ids(fn, src, dst):
    """The element-id map of fn: src -> dst, a map of coordinate tuples
    written with indexing and integer arithmetic alone, applied once to
    src's coordinate columns; an image outside dst raises ValueError."""
    return np.ravel_multi_index(fn(coord_columns(src)),
                                coord_sizes(dst)).astype(np.int64)


def _holds_bool(x):
    """Whether `x`, a scalar, an array or nested lists of them, holds a bool
    in any place."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind == "b"
    if isinstance(x, (list, tuple)):
        return any(map(_holds_bool, x))
    return isinstance(x, (bool, np.bool_))


def frozen_ids(group, ids, what, shape=(None,), sort=False):
    """A read-only int64 copy of the element ids `ids`, an array of
    `shape` (None for any length), sorted along its last axis with `sort`.
    Another shape (ids are never reshaped), a non-integer entry (a bool in
    any place included) or an id outside range(|G|) raises ValueError."""
    arr = np.asarray(ids)  # ragged rows raise ValueError here
    if _holds_bool(ids):  # np.asarray([False, 4]) is an int array
        arr = arr.astype(bool)
    if arr.shape == (0,):
        arr = arr.reshape(0, *shape[1:])
    if (arr.ndim != len(shape)
            or any(k is not None and k != n for k, n in zip(shape, arr.shape))
            or arr.size and arr.dtype.kind not in "iu"):
        want = ", ".join("k" if k is None else str(k) for k in shape)
        raise ValueError(f"{what} must be a ({want}{',' * (len(shape) == 1)})"
                         f" array of integer element ids, not {arr.dtype} "
                         f"{arr.shape}")
    arr = arr.astype(np.int64)
    if arr.size and not 0 <= arr.min() <= arr.max() < group.order:
        raise ValueError(f"{what} hold ids outside 0 to {group.order - 1}, "
                         f"the element ids of {group!r}")
    if sort:
        arr.sort(axis=-1)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# group and element labels, e.g. ["G1", "V5"] and "G1:(2,1,1)|V5:3": this
# section is the only code that writes or reads label text

def group_labels(group):
    return [a.label for a in group.atoms]


_ATOM_LABEL = re.compile(r"D|([GZV])([1-9][0-9]*)")
_ATOM_KINDS = {"G": GAtom, "Z": ZAtom, "V": VAtom}


def group_from_labels(labels, max_order=None):
    """The group whose `group_labels` are `labels`: each "D", or "G", "Z"
    or "V" followed by a canonical positive decimal, the built atom's own
    label.  With `max_order`, the order the labels name is checked before
    any atom is built: G_a is never raised to 4^a beyond the cap, and no
    oversized V_n is factorized.  Raises ValueError on any other input,
    a bare string or a dict in place of the list included."""
    if not isinstance(labels, list):
        raise ValueError(f"the group labels {labels!r} are not a list")
    specs, order = [], 1
    for lab in labels:
        m = _ATOM_LABEL.fullmatch(lab) if isinstance(lab, str) else None
        if m is None:
            raise ValueError(f"unknown atom label {lab!r}")
        kind, n = m[1], int(m[2] or 0)
        specs.append((kind, n))
        if max_order is not None:  # G_n's 4^n is taken below the cap
            cap = min(n, max_order.bit_length())
            order *= 6 if kind is None else 3 * 4 ** cap if kind == "G" else n
            if order > max_order:
                raise ValueError(f"the group labels {labels} name a group "
                                 f"of order above {max_order}")
    group = GroupDescriptor([_ATOM_KINDS[k](n) if k else DAtom()
                             for k, n in specs])
    if group_labels(group) != labels:  # V1, of order 1, is dropped
        raise ValueError(f"the group labels {labels} name a trivial atom")
    return group


def _atom_text(atom, coords):
    if len(coords) == 1:
        return f"{atom.label}:{coords[0]}"
    return f"{atom.label}:({','.join(map(str, coords))})"


def encode_element(group, x):
    return "|".join(_atom_text(a, x[off:off + a.width])
                    for a, off in zip(group.atoms, group.offsets))


def element_labels(group):
    """`encode_element` of every element, in `element_list` order: the
    product of each atom's list of labels."""
    return ["|".join(parts) for parts in itertools.product(
        *([_atom_text(a, x) for x in atom_elements(a)] for a in group.atoms))]


def point_labels(group):
    """The file label of each point of a system over `group`, at its value
    in `KirkmanSystem.points` plus 3: "inf1" to "inf3" for the extra points
    −3 to −1, then `element_labels` for the element ids."""
    return ["inf1", "inf2", "inf3", *element_labels(group)]


def label_ids(group, labels):
    """The element ids of the list `labels`, looked up in `label_index`;
    raises ValueError naming the first item that is no canonical element
    label, such as "V5:03" or "V5:(3)" for "V5:3", or when `labels` is no
    list."""
    if not isinstance(labels, list):
        raise ValueError(f"{labels!r} is not a list of element labels")
    index = group.label_index
    ids = [index.get(s) if isinstance(s, str) else None for s in labels]
    if None in ids:
        raise ValueError(f"{labels[ids.index(None)]!r} is not an element of "
                         f"{group!r}")
    return ids


# ---------------------------------------------------------------------------
# fast id-level machinery (used by verify/build hot paths)

@cache
def atom_elements(atom):
    """The atom's elements in local-id order, as tuples of Python ints."""
    return list(itertools.product(*atom.coord_lists()))


@cache
def atom_table(atom):
    """The Cayley table of `atom` over its local ids (an element's index in
    the product of the atom's coordinate ranges): entry [i, j] is the id of
    x_i + x_j, computed with the atom's own `add`.  The laws are integer
    arithmetic that branches on y alone, so one call per column j takes
    every x_i at once as coordinate arrays; a sum outside the coordinate
    ranges raises.  Atoms that compare equal share one table, built once
    per process and read-only."""
    sizes = [len(r) for r in atom.coord_lists()]
    n = math.prod(sizes)
    xs = np.unravel_index(np.arange(n), sizes)
    table = np.empty((n, n), dtype=np.int32)
    for j, y in enumerate(atom_elements(atom)):
        # copies, since a law may update its arguments in place
        table[:, j] = np.ravel_multi_index(
            atom.add(tuple(x.copy() for x in xs), y), sizes)
    table.flags.writeable = False
    return table


def local_id(atom, x):
    """The local id of the atom element `x`: its coordinates read as a
    mixed-radix number over the atom's coordinate ranges."""
    i = 0
    for c, r in zip(x, atom.coord_lists()):
        i = i * len(r) + c
    return i


@cache
def atom_negation(atom):
    """The local id of −x for each local id x: the entry whose sum with x
    is the atom's zero in its table.  Read-only, like the table."""
    table = atom_table(atom)
    neg = np.argmax(table == local_id(atom, atom.zero), axis=1)
    neg.flags.writeable = False
    return neg


def atom_digits(group, ids):
    """The local ids, atom by atom, of the element ids `ids`: one array of
    the shape of `ids` per atom.  Unravelled flat, since numpy 2.4's
    `unravel_index` returns wrong digits for some arrays whose last axis
    has length 1 (a (9000, 1) array, for one)."""
    ids = np.asarray(ids)
    return [d.reshape(ids.shape) for d in np.unravel_index(
        ids.ravel(), [a.order for a in group.atoms])]


def id_sum(group, x, y, negate=False):
    """The ids of x + y, or of x −^ y = x + (−y) with `negate`, for id
    arrays x and y (broadcast together): each atom's digits are combined
    through its table."""
    out = np.int64(0)
    for a, dx, dy in zip(group.atoms, atom_digits(group, x),
                         atom_digits(group, y)):
        out = out * a.order + atom_table(a)[dx, atom_negation(a)[dy]
                                            if negate else dy]
    return out


def sorted_ids(rows, v, axis=-1):
    """The three ids of each block of an id array with entries below v, in
    increasing order, as three int16 runs when v allows (int32 otherwise);
    `axis` is the one that holds each block's three ids: the last for
    (n, 3) rows, or the first or second for runs of ids laid out as (3, k)
    or (n, 3, k).  The ids are copied into three contiguous runs, where
    min/max run several times faster than on rows of three, and sorted
    there with one spare run."""
    dtype = np.int16 if v <= 1 << 15 else np.int32
    a, b, c = rows.swapaxes(axis, 0).astype(dtype, order="C")
    spare = np.empty_like(a)
    a, spare = _order(a, b, spare)
    b, spare = _order(b, c, spare)
    a, spare = _order(a, b, spare)
    return a, b, c


def _order(x, y, spare):
    """min(x, y) into the run `spare` and max(x, y) into y; returns the
    run holding the min and the run now free."""
    np.minimum(x, y, out=spare)
    np.maximum(x, y, out=y)
    return spare, x


def int_dtype(n):
    """int32 when every value below n fits in it, else int64: block codes
    below v³ are int32 up to v = 1290."""
    return np.int32 if n <= np.iinfo(np.int32).max + 1 else np.int64


def block_codes(rows, v, axis=-1, out=None):
    """One code per block of an id array with entries below v, of
    `int_dtype(v ** 3)`: its sorted ids (a, b, c) give (a·v + b)·v + c, so
    equal codes mean equal blocks (for v below 2^21).  `axis` is as in
    `sorted_ids`; the codes go into `out` when it is given."""
    return ordered_codes(*sorted_ids(rows, v, axis), v, out=out)


def ordered_codes(a, b, c, v, out=None):
    """`block_codes` of blocks given as the columns of `sorted_ids`."""
    code = np.multiply(a, v, out=out,
                       dtype=int_dtype(v ** 3) if out is None else out.dtype)
    code += b
    code *= v
    code += c
    return code


def chunks(n):
    """Slices of BLOCK_CHUNK entries that cover range(n) in order."""
    size = BLOCK_CHUNK
    return [slice(lo, lo + size) for lo in range(0, n, size)]


def code_rows(codes, v, out=None):
    """The sorted id triples of block codes: an int32 array with one more
    axis, of length 3, than `codes`, or `out`, C-contiguous, filled with
    them.  They are decoded a chunk at a time into the columns, so only a
    chunk of remainders is made."""
    rows = np.empty(codes.shape + (3,), dtype=np.int32) if out is None else out
    flat, ids = codes.reshape(-1), rows.reshape(-1, 3)
    rest = np.empty(min(len(flat), BLOCK_CHUNK), dtype=codes.dtype)
    for part in chunks(len(flat)):
        r = rest[:len(flat[part])]
        np.divmod(flat[part], v * v, out=(ids[part, 0], r))
        np.divmod(r, v, out=(ids[part, 1], ids[part, 2]))
    return rows


def increasing(codes):
    """Whether the 1-D array `codes` strictly increases; compared a chunk at
    a time, so no mask as long as `codes` is made."""
    size = BLOCK_CHUNK
    return all(np.all(part[1:] > part[:-1]) for part in (
        codes[lo:lo + size + 1] for lo in range(0, len(codes) - 1, size)))


def run_starts(codes):
    """Mask of the first entry of each run of equal values in a sorted
    array: sort plus this mask dedupes codes several times faster than
    numpy 2.4's hashing 1-D `np.unique`, whose first call in a process also
    imports `numpy.ma`."""
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return first


def distinct_codes(codes):
    """The distinct values of the 1-D array `codes`, in increasing order;
    `codes` itself is sorted in place."""
    codes.sort()
    return codes[run_starts(codes)]


def map_powers(moves):
    """The rows of the (k, n) array `moves`, maps of range(n) into itself,
    followed by their powers m², m⁴, … up to exponent 2^bits(n): closing a
    set under all of them reaches a cycle of length L in about log2(L)
    rounds instead of L."""
    powers = [moves]
    for _ in range(moves.shape[1].bit_length()):
        moves = moves[np.arange(len(moves))[:, None], moves]
        powers.append(moves)
    return np.concatenate(powers)


def orbit(found, moves):
    """The boolean mask `found` closed under the maps `moves` (rows of
    indices into it): each round marks the images of every entry found."""
    found = found.copy()
    while True:
        size = np.count_nonzero(found)
        found[moves[:, found]] = True
        if np.count_nonzero(found) == size:
            return found


def frontiers(seed, moves, key, chunk):
    """The rows of `seed`, then every row the moves reach from them (move m
    takes row r to m[r]), each kept once per entry in column `key`: yielded
    a frontier at a time, in pieces of at most `chunk` rows, so only two
    frontiers are ever held.  Seeded with one point this is the point's
    orbit; seeded with the identity it is the group the moves generate,
    when that group is semiregular (its elements then differ at every
    point).  Only the rows kept are ever gathered."""
    found = np.zeros(moves.shape[1], dtype=bool)
    found[seed[:, key]] = True
    level = [seed]
    while level:
        reached = []
        for rows in level:
            for lo in range(0, len(rows), chunk):
                part = rows[lo:lo + chunk]
                yield part
                hits = moves[:, part[:, key]]
                m, r = np.nonzero(~found[hits])
                hit = hits[m, r]
                by_hit = np.argsort(hit)
                first = by_hit[run_starts(hit[by_hit])]
                found[hit[first]] = True
                if len(first):
                    # one flat take: row r[i] through move m[i]
                    reached.append(moves.ravel().take(
                        part[r[first]] + (m[first] * moves.shape[1])[:, None]))
        level = reached


def coset_rows(seed, moves, key, size):
    """The row h[seed] of every element h of the group H that the
    permutations `moves` generate, each once, yielded in pieces of at most
    `size` rows (one row, if `size` is below 1).  Sound when H acts
    semiregularly, so that h is known by the point h(seed[key]); the
    caller checks that.

    H is walked down the chain 1 = H_0 < H_1 < ... < H_k = H, where H_i is
    generated by the first i moves.  H_i is the disjoint union of the
    cosets t∘H_(i-1) over a transversal T_i, which a breadth-first search
    on the cosets finds: t∘H_(i-1) moves seed[key] onto t(O), O being the
    orbit of H_(i-1), so a coset is new when t(seed[key]) is not yet
    marked.  Each h is one product t_k∘...∘t_1.  The rows of the first
    H_j that fit in a piece are held, and T_(j+1) to T_(k-1); T_k is
    searched as the pieces are yielded, so only its frontier is held."""
    point = seed[key]
    identity = np.arange(moves.shape[1], dtype=moves.dtype)
    found = np.zeros(moves.shape[1], dtype=bool)
    found[point] = True
    orbit = np.array([point])

    def transversal(gens):
        # the cosets of the group whose orbit is `orbit`, in the group it
        # and `gens` generate, each marked as it is found
        queue = collections.deque([identity])
        while queue:
            t = queue.popleft()
            yield t
            for m in gens:
                u = m[t]
                if not found[u[point]]:
                    found[u[orbit]] = True
                    queue.append(u)

    levels = []
    for i in range(1, len(moves)):
        levels.append(np.stack(list(transversal(moves[:i]))))
        orbit = np.flatnonzero(found)
    base = seed[None].astype(np.intp)
    while levels and len(base) * len(levels[0]) <= size:
        base = np.take(levels.pop(0), base, axis=1).reshape(-1, len(seed))
    # t_k∘...∘t_(j+2) for each choice above T_(j+1), then T_(j+1) (or,
    # when every stored level fits in the base, T_k) a piece at a time
    step = max(1, size // len(base))
    inner = levels.pop(0) if levels else None
    tops = []
    for top in transversal(moves):
        if inner is None:
            tops.append(top)
            if len(tops) == step:
                yield np.take(np.stack(tops), base, axis=1).reshape(
                    -1, len(seed))
                tops = []
            continue
        for ts in itertools.product(*levels[::-1]):
            p = top
            for t in ts:
                p = p[t]
            for lo in range(0, len(inner), step):
                yield np.take(p[inner[lo:lo + step]], base, axis=1).reshape(
                    -1, len(seed))
    if tops:
        yield np.take(np.stack(tops), base, axis=1).reshape(-1, len(seed))


def translation_ids(group, ts, left=False):
    """One row per element id t of `ts`: the map of element ids (indices
    into `element_list`) that the right translation x -> x + t, or the left
    one x -> t + x, induces.  Each atom gives one column (or row) of its
    table per digit of t, combined as mixed-radix digits."""
    ts = np.asarray(ts, dtype=np.int64)
    image = np.zeros((len(ts), 1), dtype=np.int64)
    for a, digit in zip(group.atoms, atom_digits(group, ts)):
        table = atom_table(a)
        digits = (table if left else table.T)[digit]
        image = (image[:, :, None] * len(table) + digits[:, None, :]
                 ).reshape(len(ts), image.shape[1] * len(table))
    return image


class GroupIndex:
    """Integer-id view of a group; translations come out as numpy
    permutation arrays in O(|G|) each, from the shared per-atom Cayley
    tables (built at their first use, not here)."""

    def __init__(self, group):
        self.group = group

    def translation(self, ts):
        """`translation_ids` of the right translations by the element ids
        `ts`."""
        return translation_ids(self.group, ts)
