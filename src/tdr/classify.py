"""Finite / tame / wild trichotomy for tensor diagrams.

A connected component is wild exactly when some vertex carries three or
more wire slots (a loop occupies two).  Otherwise the component is a path
or a cycle: with dangling ends it is finite (A0 with two open ends, A1
with one), closed it is tame (P when acyclic, J when a cycle).
"""

from typing import NamedTuple, Optional

from .errors import NotNormalized
from .semigraph import connected_components, slots


class WildWitness(NamedTuple):
    kind: str        # "open-claw" | "needle" | "figure-eight"
    vertex: str
    wires: tuple     # claw: three wires; needle: (loop, extra); eight: two loops


class ComponentClass(NamedTuple):
    kind: str                  # "finite" | "tame" | "wild"
    family: Optional[str]      # "A0" | "A1" | "P" | "J" | None when wild
    n: Optional[int]
    witness: Optional[WildWitness]


def _witness_at(v, nb):
    """The forbidden configuration at a vertex of three or more slots; a
    loop is the one wire on both sides."""
    ins = set(nb.incoming)
    if ins.isdisjoint(nb.outgoing):
        return WildWitness("open-claw", v,
                           tuple(sorted(nb.incoming + nb.outgoing)[:3]))
    loops = sorted(ins.intersection(nb.outgoing))
    if len(loops) >= 2:
        return WildWitness("figure-eight", v, (loops[0], loops[1]))
    return WildWitness("needle", v,
                       (loops[0], min(ins.symmetric_difference(nb.outgoing))))


def find_forbidden_witness(d):
    """First open claw, needle, or figure eight, scanning vertices in order."""
    for v, nb in slots(d).items():
        if len(nb.incoming) + len(nb.outgoing) >= 3:
            return _witness_at(v, nb)
    return None


def classify_diagram(d):
    """Classify each connected component; diagram must be normalized."""
    table = slots(d)
    out = []
    for comp in connected_components(d):
        if not comp.vertices:
            raise NotNormalized("endpointless wires present; normalize first")
        cls, count = None, 0
        for v in comp.vertices:
            nb = table[v]
            k = len(nb.incoming) + len(nb.outgoing)
            if k >= 3:
                cls = ComponentClass("wild", None, None, _witness_at(v, nb))
                break
            count += k
        if cls is None:
            # a wire takes two slots, one of them if it dangles
            n, dangling = len(comp.vertices), 2 * len(comp.wires) - count
            if dangling == 2:
                cls = ComponentClass("finite", "A0", n, None)
            elif dangling == 1:
                cls = ComponentClass("finite", "A1", n, None)
            elif len(comp.wires) == n:
                cls = ComponentClass("tame", "J", n, None)
            else:
                cls = ComponentClass("tame", "P", n, None)
        out.append((comp, cls))
    return out
