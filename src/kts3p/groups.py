"""Additive finite groups built from atoms: D, G_alpha, Z_m and V_n.

Elements of a product group are flat tuples of small ints; each atom owns a
contiguous slice of slots.  D and G_alpha carry twisted (non-abelian) laws:

  D (order 6, underlying Z_2 x Z_3):
      (a,b) + (c,d) = (a+c, (-1)^c b + d)
  G_alpha (order 3*4^alpha, underlying Z_3 x Z_{2^a} x Z_{2^a}):
      (a,b,c) + (d,e,f) = (a,b,c)*Theta^d + (d,e,f),
      Theta acting by (b,c) -> (-c, b-c).

Z_m and V_n add coordinate-wise (V_n slot-wise in its component fields).
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property

import numpy as np

from .finring import build_ring


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

    def sub(self, x, y):
        a, b = x
        c, d = y
        return ((a - c) % 2, ((b - d) if c == 0 else (d - b)) % 3)

    def neg(self, x):
        return self.sub(self.zero, x)

    def generators(self):
        return [(1, 0), (0, 1)]

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

    def sub(self, x, y):
        a, b, c = x
        d, e, f = y
        m = self.m
        d3 = d % 3
        if d3 == 0:
            return ((a - d) % 3, (b - e) % m, (c - f) % m)
        if d3 == 1:
            return ((a - d) % 3, (e - b + c - f) % m, (e - b) % m)
        return ((a - d) % 3, (f - c) % m, (b - e + f - c) % m)

    def neg(self, x):
        return self.sub(self.zero, x)

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

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.m,)

    def neg(self, x):
        return ((-x[0]) % self.m,)

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

    def sub(self, x, y):
        return self.ring.sub(x, y)

    def neg(self, x):
        return self.ring.neg(x)

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
        out = []
        for a, off in zip(self.atoms, self.offsets):
            out.extend(a.sub(x[off:off + a.width], y[off:off + a.width]))
        return tuple(out)

    def neg(self, x):
        return self.sub(self.zero, x)

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
    def involutions(self):
        return tuple(x for x in self.element_list
                     if x != self.zero and self.add(x, x) == self.zero)

    @cached_property
    def canonical_involution(self):
        lead = self.atoms[0] if self.atoms else None
        if not isinstance(lead, GAtom):
            raise ValueError(f"canonical involution undefined for {self!r}")
        j = lead.canonical_involution
        return j + self.zero[lead.width:]

    @cached_property
    def is_pertinent(self):
        inv = self.involutions
        if len(inv) != 3:
            return False
        for x, y in itertools.combinations(inv, 2):
            if not any(self.conj(g, x) == y for g in self.element_list):
                return False
        return True

    def generators(self):
        gens = []
        for a, off in zip(self.atoms, self.offsets):
            pre = self.zero[:off]
            post = self.zero[off + a.width:]
            for g in a.generators():
                gens.append(pre + g + post)
        return gens

    def mu(self, x, units):
        """Apply the slot-wise multiplication x_slot * units[slot]; entries of
        `units` that are None leave the slot unchanged.  `units` is a full-width
        tuple whose V-atom slots hold field elements."""
        out = list(x)
        for a, off in zip(self.atoms, self.offsets):
            if isinstance(a, VAtom):
                for i, f in enumerate(a.ring.fields):
                    u = units[off + i]
                    if u is not None:
                        out[off + i] = f.mul(out[off + i], u)
        return tuple(out)

    def unit_vector(self, atom_index, ring_element):
        """Full-width multiplier tuple: ring_element on the given V atom, None elsewhere."""
        units = [None] * self.width
        a = self.atoms[atom_index]
        off = self.offsets[atom_index]
        if not isinstance(a, VAtom):
            raise ValueError("multipliers act on V atoms only")
        for i, u in enumerate(ring_element):
            units[off + i] = u
        return tuple(units)


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
    """A subset of an ambient group, checked on construction to be a subgroup.
    `generators` holds the generating set the check found."""

    def __init__(self, ambient, carrier):
        self.ambient = ambient
        self.carrier = frozenset(carrier)
        self._verify()

    def _verify(self):
        # Grow the span from 0, taking as generators the carrier's elements
        # that are not yet spanned.  The span is closed once each of its
        # elements has been added to each generator, and in a finite group the
        # closure under + of a set is the subgroup it generates.  Each new
        # generator at least doubles the span, so this costs at most
        # |H|·log2|H| add calls.  A carrier of group elements is a subgroup
        # exactly when no sum leaves it; the span then ends up equal to it.
        # `add` reduces its arguments, so a non-element could pass for one.
        G = self.ambient
        carrier = self.carrier
        strays = carrier - G.element_index.keys()
        if strays:
            raise ValueError(f"carrier holds non-elements of {G!r}: "
                             f"{sorted(map(repr, strays))[:3]}")
        if G.zero not in carrier:
            raise ValueError("subgroup must contain 0")
        gens = []
        span = {G.zero}
        for s in sorted(carrier):
            if s in span:
                continue
            gens.append(s)
            # old elements are closed under the old generators: add s only;
            # new elements take every generator
            todo = [(x, gens[-1:]) for x in span]
            while todo:
                x, by = todo.pop()
                for t in by:
                    y = G.add(x, t)
                    if y not in carrier:
                        raise ValueError(
                            f"subgroup not closed under + at {x},{t}")
                    if y not in span:
                        span.add(y)
                        todo.append((y, gens))
        if len(span) != len(carrier):
            raise ValueError("the carrier is not the span of its elements")
        self.generators = gens

    def __len__(self):
        return len(self.carrier)

    def __contains__(self, x):
        return x in self.carrier

    def __eq__(self, other):
        return (isinstance(other, SubgroupView) and self.ambient == other.ambient
                and self.carrier == other.carrier)

    def __hash__(self):
        return hash((self.ambient, self.carrier))

    def is_normal(self):
        # conjugation by g is an automorphism, so g<S>g⁻¹ = <gSg⁻¹> ⊆ H when
        # gSg⁻¹ ⊆ H; it is then equal to H by size, and the g for which this
        # holds form a subgroup, so checking G's generators covers G
        G = self.ambient
        return all(G.conj(g, h) in self.carrier
                   for g in G.generators() for h in self.generators)


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


# ---------------------------------------------------------------------------
# canonical textual element encoding, e.g. "G1:(2,1,1)|V5:3"

def encode_element(group, x):
    parts = []
    for a, off in zip(group.atoms, group.offsets):
        coords = x[off:off + a.width]
        if len(coords) == 1:
            parts.append(f"{a.label}:{coords[0]}")
        else:
            parts.append(f"{a.label}:({','.join(map(str, coords))})")
    return "|".join(parts)


def parse_element(group, text):
    coords = []
    chunks = text.split("|") if text else []
    if len(chunks) != len(group.atoms):
        raise ValueError(f"expected {len(group.atoms)} atoms in {text!r}")
    for a, chunk in zip(group.atoms, chunks):
        label, _, body = chunk.partition(":")
        if label != a.label:
            raise ValueError(f"atom mismatch: {label} vs {a.label}")
        body = body.strip("()")
        vals = tuple(int(t) for t in body.split(",")) if body else ()
        if len(vals) != a.width:
            raise ValueError(f"wrong arity for {a.label} in {text!r}")
        coords.extend(vals)
    x = tuple(coords)
    if x not in group.element_index:
        raise ValueError(f"{text!r} is not an element of {group!r}")
    return x


# ---------------------------------------------------------------------------
# fast id-level machinery (used by verify/build hot paths)

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
    for j, y in enumerate(itertools.product(*atom.coord_lists())):
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


def id_sum(group, x, y, negate=False):
    """The ids of x + y, or of x −^ y = x + (−y) with `negate`, for id
    arrays x and y (broadcast together): each atom's digits are combined
    through its table."""
    orders = [a.order for a in group.atoms]
    out = np.int64(0)
    for a, dx, dy in zip(group.atoms, np.unravel_index(x, orders),
                         np.unravel_index(y, orders)):
        out = out * a.order + atom_table(a)[dx, atom_negation(a)[dy]
                                            if negate else dy]
    return out


def sorted_ids(rows, axis=-1):
    """The three ids of each block in increasing order, as columns of the
    input's dtype (int32 min/max run several times faster than int64);
    `axis` is the one that holds each block's three ids: the last for
    (n, 3) rows, or the first or second for runs of ids laid out as (3, k)
    or (n, 3, k)."""
    a, b, c = rows.swapaxes(axis, 0)
    a, b = np.minimum(a, b), np.maximum(a, b)
    b, c = np.minimum(b, c), np.maximum(b, c)
    a, b = np.minimum(a, b), np.maximum(a, b)
    return a, b, c


def block_codes(rows, v, axis=-1):
    """One int64 code per block of an id array with entries below v: its
    sorted ids (a, b, c) give (a·v + b)·v + c, so equal codes mean equal
    blocks (for v below 2^21).  `axis` is as in `sorted_ids`."""
    a, b, c = sorted_ids(rows, axis)
    code = a.astype(np.int64)
    code *= v
    code += b
    code *= v
    code += c
    return code


def code_rows(codes, v):
    """The sorted id triples of block codes: an int32 array with one more
    axis, of length 3, than `codes`."""
    rows = np.empty(codes.shape + (3,), dtype=np.int32)
    rows[..., 0], rest = np.divmod(codes, v * v)
    rows[..., 1], rows[..., 2] = np.divmod(rest, v)
    return rows


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


def translation_ids(group, t, left=False):
    """The map of element ids (indices into `element_list`) that the right
    translation x -> x + t, or the left one x -> t + x, induces: one column
    (or row) of each atom's table, combined as mixed-radix digits."""
    image = np.zeros((), dtype=np.int64)
    for a, off in zip(group.atoms, group.offsets):
        table = atom_table(a)
        d = local_id(a, t[off:off + a.width])
        image = image[..., None] * len(table) + (table[d] if left
                                                 else table[:, d])
    return image.ravel()


class GroupIndex:
    """Integer-id view of a group on the shared per-atom Cayley tables;
    translations come out as numpy permutation arrays in O(|G|) each."""

    def __init__(self, group):
        self.group = group
        self.tables = [atom_table(a) for a in group.atoms]

    def translation(self, ts):
        """One row per element t of `ts`: the permutation perm with
        perm[i] = id(element_i + t), built from the atoms' table columns."""
        image = np.zeros((len(ts), 1), dtype=np.int64)
        for a, off, table in zip(self.group.atoms, self.group.offsets,
                                 self.tables):
            cols = table.T[[local_id(a, t[off:off + a.width]) for t in ts]]
            image = (image[:, :, None] * len(table) + cols[:, None, :]
                     ).reshape(len(ts), image.shape[1] * len(table))
        return image
