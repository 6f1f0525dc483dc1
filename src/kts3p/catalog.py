"""Seed difference families and difference matrices, embedded as literal data
and machine-verified on first load.

Every entry is checked against its declared kind predicate before it is ever
served.  A failing entry is quarantined with the predicate's diagnosis:
pipelines that need it fail loudly with a CatalogError rather than build on
bad data.
"""

from __future__ import annotations

from functools import lru_cache

from . import groups as G
from .designkit import (DifferenceMatrix, FamilyWitness, Spread, dm_check,
                        is_df, is_j_resolvable, is_pseudo_resolvable)


def _g(*atoms):
    return G.GroupDescriptor(atoms)


def _v9(d, e):
    # GF(9) elements are stored as base-3 digit strings d + 3e
    return d + 3 * e


# --- groups used below ------------------------------------------------------

D = _g(G.DAtom())
G1 = _g(G.GAtom(1))
G2 = _g(G.GAtom(2))
G3 = _g(G.GAtom(3))
DxV5 = _g(G.DAtom(), G.VAtom(5))
G1xV3 = _g(G.GAtom(1), G.VAtom(3))
G1xV9 = _g(G.GAtom(1), G.VAtom(9))
G2xV3 = _g(G.GAtom(2), G.VAtom(3))
Z2xZ6 = _g(G.ZAtom(2), G.ZAtom(6))
Z4xZ4 = _g(G.ZAtom(4), G.ZAtom(4))


def _entry_rdf_d_empty():
    w = FamilyWitness(D, [], "RDF", Spread(D, (0, 1)),
                      j=(1, 0), a=(1, 2), b=(1, 1))
    return w


def _entry_rdf_g1():
    w = FamilyWitness(G1, [[(0, 0, 1), (1, 1, 0), (2, 1, 1)]], "RDF",
                      Spread(G1, (1, 0, 0)),
                      j=(0, 1, 1), a=(1, 1, 1), b=(2, 0, 1))
    return w


def _entry_rdf_dxv5():
    blocks = [
        [(0, 0, 3), (0, 0, 2), (0, 2, 4)],
        [(0, 0, 1), (0, 1, 3), (1, 2, 2)],
        [(0, 0, 4), (0, 2, 3), (1, 1, 1)],
        [(0, 1, 1), (0, 1, 4), (1, 1, 2)],
    ]
    return FamilyWitness(DxV5, blocks, "RDF", Spread(DxV5, (0, 1, 0)),
                         j=(1, 0, 0), a=(1, 1, 0), b=(1, 2, 0))


def _entry_rdf_g1xv3():
    blocks = [
        [(0, 0, 0, 2), (0, 1, 1, 1), (1, 0, 0, 1)],
        [(0, 0, 1, 2), (2, 0, 1, 2), (2, 1, 0, 1)],
        [(0, 1, 0, 0), (1, 0, 1, 2), (2, 0, 1, 0)],
        [(0, 1, 0, 1), (1, 1, 1, 0), (2, 0, 0, 0)],
        [(1, 0, 1, 1), (1, 1, 0, 0), (2, 1, 1, 2)],
    ]
    return FamilyWitness(G1xV3, blocks, "RDF", Spread(G1xV3, (0, 0, 0, 1)),
                         j=(0, 1, 1, 0), a=(1, 0, 0, 2), b=(2, 0, 0, 1))


_G2_B16 = [
    [(0, 0, 1), (2, 3, 0), (2, 3, 1)],
    [(0, 1, 1), (0, 1, 2), (0, 2, 1)],
    [(1, 1, 0), (1, 0, 1), (2, 1, 1)],
    [(1, 1, 2), (2, 0, 3), (1, 3, 1)],
    [(2, 1, 0), (1, 0, 3), (0, 3, 1)],
    [(0, 1, 0), (2, 2, 3), (1, 3, 3)],
]
_G2_B7 = [(0, 0, 2), (1, 2, 0), (2, 2, 2)]


def _g_sub(group, i):
    """The copy of G_{alpha-i} inside G_alpha: Z_3 x 2^i Z x 2^i Z."""
    atom = group.atoms[0]
    step = 2 ** i
    carrier = [(a, b, c)
               for a in range(3)
               for b in range(0, atom.m, step)
               for c in range(0, atom.m, step)]
    return G.SubgroupView(group, carrier)


def _entry_rdf_g2_rel_g1():
    return FamilyWitness(G2, _G2_B16, "RDF", _g_sub(G2, 1), j=(0, 2, 2))


def _entry_rdf_g2():
    return FamilyWitness(G2, _G2_B16 + [_G2_B7], "RDF", Spread(G2, (1, 0, 0)),
                         j=(0, 2, 2))


def _entry_prdf_g1xv3():
    blocks = [
        [(0, 0, 1, 2), (0, 1, 1, 1), (1, 0, 0, 2)],
        [(0, 1, 0, 1), (1, 0, 0, 1), (2, 1, 0, 0)],
        [(0, 1, 1, 2), (2, 0, 0, 0), (2, 0, 0, 1)],
        [(1, 0, 1, 1), (1, 1, 0, 0), (2, 1, 0, 2)],
        [(1, 1, 0, 2), (2, 0, 0, 2), (2, 0, 1, 1)],
    ]
    return FamilyWitness(G1xV3, blocks, "PRDF", Spread(G1xV3, (1, 0, 0, 0)))


_A_RAW = [
    [(0, 0, 0, 0, 1), (0, 1, 1, 2, 0), (1, 0, 1, 1, 1)],
    [(0, 0, 0, 0, 2), (2, 0, 0, 2, 0), (2, 1, 0, 0, 0)],
    [(0, 0, 0, 1, 0), (0, 1, 0, 2, 0), (1, 0, 0, 1, 2)],
    [(0, 0, 0, 1, 1), (2, 0, 0, 2, 1), (2, 0, 1, 2, 0)],
    [(0, 0, 0, 1, 2), (0, 1, 0, 1, 0), (2, 0, 1, 1, 0)],
    [(0, 0, 0, 2, 1), (0, 1, 0, 0, 2), (1, 0, 1, 1, 2)],
    [(0, 0, 0, 2, 2), (0, 0, 1, 0, 1), (2, 0, 0, 1, 2)],
    [(0, 0, 1, 1, 2), (1, 1, 1, 2, 0), (2, 1, 0, 2, 2)],
    [(0, 0, 1, 2, 2), (1, 0, 1, 1, 0), (2, 0, 0, 2, 2)],
    [(0, 1, 0, 1, 1), (2, 0, 1, 0, 1), (2, 1, 1, 0, 0)],
    [(0, 1, 0, 2, 1), (1, 1, 1, 2, 2), (2, 0, 0, 0, 1)],
    [(1, 0, 1, 0, 0), (1, 1, 1, 1, 0), (2, 1, 0, 1, 1)],
    [(1, 0, 1, 0, 1), (1, 0, 1, 2, 1), (1, 0, 1, 2, 2)],
    [(1, 1, 0, 0, 2), (2, 0, 0, 1, 1), (2, 0, 1, 0, 2)],
    [(1, 1, 0, 2, 0), (1, 1, 1, 1, 1), (2, 0, 1, 1, 2)],
    [(1, 1, 1, 0, 1), (2, 0, 1, 2, 1), (2, 1, 1, 0, 2)],
    [(1, 1, 1, 0, 2), (1, 1, 1, 2, 1), (2, 1, 1, 1, 0)],
]


def _entry_prdf_g1xv9():
    blocks = [[(a, b, c, _v9(d, e)) for (a, b, c, d, e) in blk]
              for blk in _A_RAW]
    return FamilyWitness(G1xV9, blocks, "PRDF", Spread(G1xV9, (1, 0, 0, 0)))


def _entry_prdf_g2():
    blocks = [
        [(0, 0, 1), (0, 3, 1), (2, 1, 2)],
        [(0, 1, 0), (1, 0, 3), (2, 3, 2)],
        [(0, 1, 1), (1, 3, 3), (2, 0, 2)],
        [(0, 1, 2), (1, 0, 2), (2, 1, 3)],
        [(0, 2, 1), (2, 0, 0), (2, 0, 1)],
        [(1, 1, 0), (1, 2, 3), (1, 3, 1)],
        [(1, 1, 2), (2, 0, 3), (2, 3, 3)],
    ]
    return FamilyWitness(G2, blocks, "PRDF", Spread(G2, (1, 0, 0)))


def _entry_rdf_g2xv3_rel_g1xv3():
    blocks = [
        [(0, 0, 1, 0), (1, 3, 1, 2), (2, 1, 0, 1)],
        [(0, 0, 1, 1), (0, 1, 0, 2), (1, 3, 3, 2)],
        [(0, 0, 1, 2), (0, 3, 3, 1), (1, 1, 2, 0)],
        [(0, 0, 3, 0), (2, 3, 1, 2), (2, 3, 2, 0)],
        [(0, 0, 3, 1), (0, 1, 3, 0), (1, 1, 0, 0)],
        [(0, 1, 0, 0), (1, 3, 1, 1), (2, 0, 1, 0)],
        [(0, 1, 0, 1), (1, 0, 3, 1), (2, 3, 1, 1)],
        [(0, 1, 1, 0), (2, 2, 1, 2), (2, 3, 0, 1)],
        [(0, 1, 2, 0), (0, 2, 1, 2), (1, 3, 3, 0)],
        [(0, 1, 2, 2), (0, 3, 1, 1), (2, 0, 1, 1)],
        [(0, 1, 3, 2), (1, 0, 1, 2), (2, 3, 0, 0)],
        [(0, 3, 0, 1), (1, 0, 3, 2), (2, 1, 3, 0)],
        [(0, 3, 3, 2), (1, 0, 3, 0), (2, 3, 0, 2)],
        [(1, 0, 1, 0), (1, 1, 2, 2), (1, 1, 3, 0)],
        [(1, 0, 1, 1), (1, 1, 1, 1), (1, 1, 2, 1)],
        [(1, 1, 0, 1), (2, 0, 3, 0), (2, 1, 1, 0)],
        [(1, 1, 0, 2), (2, 1, 1, 2), (2, 2, 1, 1)],
        [(2, 1, 0, 2), (2, 1, 1, 1), (2, 2, 3, 2)],
    ]
    H = G.SubgroupView(G2xV3, [(a, b, c, v) for a in range(3)
                               for b in (0, 2) for c in (0, 2)
                               for v in range(3)])
    return FamilyWitness(G2xV3, blocks, "RDF", H, j=(0, 2, 2, 0))


def _entry_rdf_g3_rel_g2():
    blocks = [
        [(0, 0, 1), (0, 5, 2), (0, 7, 5)],
        [(0, 0, 3), (2, 1, 1), (2, 5, 2)],
        [(0, 0, 5), (2, 1, 7), (2, 3, 6)],
        [(0, 0, 7), (0, 1, 1), (2, 7, 0)],
        [(0, 1, 0), (0, 7, 3), (2, 6, 1)],
        [(0, 1, 4), (1, 4, 7), (2, 7, 5)],
        [(0, 1, 5), (0, 5, 6), (2, 6, 7)],
        [(0, 1, 7), (1, 3, 2), (2, 4, 5)],
        [(0, 2, 1), (2, 3, 5), (2, 5, 0)],
        [(0, 2, 5), (1, 1, 4), (1, 1, 5)],
        [(0, 3, 0), (1, 1, 1), (1, 6, 1)],
        [(0, 3, 3), (2, 0, 3), (2, 1, 0)],
        [(0, 3, 5), (1, 3, 6), (2, 2, 1)],
        [(0, 3, 6), (1, 2, 3), (1, 3, 5)],
        [(0, 5, 7), (0, 7, 0), (1, 4, 5)],
        [(0, 6, 3), (1, 1, 2), (2, 3, 7)],
        [(0, 6, 7), (1, 3, 3), (1, 5, 2)],
        [(0, 7, 6), (2, 6, 3), (2, 7, 7)],
        [(1, 1, 0), (1, 4, 3), (2, 1, 5)],
        [(1, 1, 3), (1, 4, 1), (2, 7, 4)],
        [(1, 1, 7), (2, 1, 2), (2, 4, 3)],
        [(1, 3, 7), (2, 4, 1), (2, 7, 6)],
        [(1, 6, 3), (1, 7, 4), (2, 5, 7)],
        [(1, 6, 5), (1, 7, 0), (1, 7, 5)],
    ]
    return FamilyWitness(G3, blocks, "RDF", _g_sub(G3, 1), j=(0, 4, 4))


def _entry_dm_g1():
    t = lambda s: tuple(int(ch) for ch in s)
    rows = [
        "000 010 100 110 200 210 011 001 111 101 211 201",
        "000 100 210 010 110 200 000 101 010 210 200 100",
        "010 200 210 100 000 110 101 001 200 011 201 111",
    ]
    return DifferenceMatrix(G1, [[t(w) for w in r.split()] for r in rows],
                            j=(0, 1, 1))


def _entry_dm_z2xz6():
    t = lambda s: (int(s[0]), int(s[1]))
    rows = [
        "00 01 02 03 04 05 10 11 12 13 14 15",
        "00 12 15 04 01 03 00 13 11 05 02 04",
        "03 01 15 12 00 04 11 05 04 03 12 00",
    ]
    return DifferenceMatrix(Z2xZ6, [[t(w) for w in r.split()] for r in rows],
                            j=(1, 0))


def _entry_dm_z4xz4():
    t = lambda s: (int(s[0]), int(s[1]))
    rows = [
        "00 30 11 20 01 10 31 21 22 12 33 02 23 32 13 03",
        "22 11 30 10 21 23 02 31 13 20 32 00 12 33 01 03",
        "22 31 03 01 10 30 20 33 32 12 00 21 13 23 11 02",
    ]
    return DifferenceMatrix(Z4xZ4, [[t(w) for w in r.split()] for r in rows],
                            j=(2, 2))


_BUILDERS = {
    "rdf:D:empty": _entry_rdf_d_empty,
    "rdf:G1": _entry_rdf_g1,
    "rdf:DxV5": _entry_rdf_dxv5,
    "rdf:G1xV3": _entry_rdf_g1xv3,
    "rdf:G2:rel-G1": _entry_rdf_g2_rel_g1,
    "rdf:G2": _entry_rdf_g2,
    "prdf:G1xV3": _entry_prdf_g1xv3,
    "prdf:G1xV9": _entry_prdf_g1xv9,
    "prdf:G2": _entry_prdf_g2,
    "rdf:G2xV3:rel-G1xV3": _entry_rdf_g2xv3_rel_g1xv3,
    "rdf:G3:rel-G2": _entry_rdf_g3_rel_g2,
    "dm:G1": _entry_dm_g1,
    "dm:Z2xZ6": _entry_dm_z2xz6,
    "dm:Z4xZ4": _entry_dm_z4xz4,
}

ENTRY_IDS = tuple(_BUILDERS)


class CatalogError(RuntimeError):
    pass


def _verify_entry(obj):
    if isinstance(obj, DifferenceMatrix):
        rep = dm_check(obj)
        if not rep["valid"]:
            return f"difference matrix invalid: {rep['problems']}"
        if obj.j is not None and obj.j not in rep["splittable"]:
            return f"declared splitting involution {obj.j} fails"
        return None
    if obj.kind == "RDF":
        d = is_j_resolvable(obj)
    elif obj.kind == "PRDF":
        d = is_pseudo_resolvable(obj)
    else:
        d = is_df(obj)
    return None if d else str(d)


@lru_cache(maxsize=None)
def _load(eid):
    obj = _BUILDERS[eid]()
    problem = _verify_entry(obj)
    if problem is not None:
        raise CatalogError(f"catalog entry {eid!r} quarantined: {problem}")
    if isinstance(obj, FamilyWitness) and obj.kind == "PRDF":
        # prefer the ordered pair whose coset subgroup is the canonical
        # involution, since that is what the lifting step resolves by
        canon = obj.group.canonical_involution
        for ja in obj.group.involutions:
            if ja == canon:
                continue
            probe = FamilyWitness(obj.group, obj.blocks, "PRDF", obj.relative)
            phi = [x for b in probe.blocks for x in b]
            from .designkit import _coset_rep_check
            if _coset_rep_check(obj.group, phi + [obj.group.zero, ja, probe.spread().x], canon,
                                obj.group.element_list):
                obj.prdf_pair = (ja, canon)
                break
        else:
            raise CatalogError(
                f"{eid!r}: no pseudo-resolving pair with the canonical involution")
    return obj


def get(eid):
    if eid not in _BUILDERS:
        raise KeyError(f"unknown catalog id {eid!r}")
    return _load(eid)


def verify_all():
    """Load and verify every entry; returns {id: 'ok' | error message}."""
    report = {}
    for eid in ENTRY_IDS:
        try:
            get(eid)
            report[eid] = "ok"
        except CatalogError as exc:
            report[eid] = str(exc)
    return report
