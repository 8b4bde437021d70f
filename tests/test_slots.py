"""The slot table against plain derivations from the wire list.

A vertex's slots are its outgoing wires (rows) and its incoming wires
(columns), a loop taking one slot on each side.  Each check below derives
what it needs from d.wires directly, wire by wire, and compares it with
what the library reads from semigraph.slots.
"""

import itertools
import random

import pytest

from tdr.classify import classify_diagram, find_forbidden_witness
from tdr.decompose import canonical_diagram, traverse
from tdr.errors import NotAPartition, NotNormalized
from tdr.semigraph import (
    TensorDiagram,
    Wire,
    degree,
    neighborhood,
    normalize,
    slots,
    split_vertex,
)


def random_diagram(rng):
    """Loops, parallel wires, dangling and endpointless wires, isolated
    vertices, and a wire tuple in no particular order."""
    vs = [f"v{i}" for i in rng.sample(range(20), rng.randint(1, 6))]
    pool = [None] + vs
    wires = []
    for k in rng.sample(range(40), rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.15:
            tail = head = rng.choice(vs)            # loop
        elif kind < 0.3 and wires:
            tail, head = wires[-1][1:]              # parallel (or a copy)
        else:
            tail, head = rng.choice(pool), rng.choice(pool)
        wires.append(Wire(f"w{k}", tail, head))
    rng.shuffle(wires)
    rng.shuffle(vs)
    return TensorDiagram(tuple(vs), tuple(wires))


def diagrams(count, seed):
    rng = random.Random(seed)
    return [random_diagram(rng) for _ in range(count)]


def plain_slots(d, v):
    """(outgoing slots, incoming slots) of v, in wire order."""
    return ([w.id for w in d.wires if w.tail == v],
            [w.id for w in d.wires if w.head == v])


def test_slots_neighborhood_and_degree_match_the_wire_list():
    for d in diagrams(400, 1):
        table = slots(d)
        assert list(table) == list(d.vertices)
        for v in d.vertices:
            out, inc = plain_slots(d, v)
            assert table[v] == (tuple(inc), tuple(out))
            assert neighborhood(d, v) == table[v]
            assert degree(d, v) == sum(1 for w in d.wires
                                       for end in (w.tail, w.head) if end == v)


def test_split_vertex_accepts_exactly_the_slot_partitions():
    for d in diagrams(150, 2):
        for v in d.vertices:
            out, inc = plain_slots(d, v)
            at = [(w, "tail") for w in out] + [(w, "head") for w in inc]
            if len(at) > 4:
                continue
            for k in range(len(at) + 1):
                for part in itertools.combinations(at, k):
                    rest = [s for s in at if s not in part]
                    d2, fresh = split_vertex(d, v, list(part), rest)
                    v1, v2 = d2.wire(fresh).tail, d2.wire(fresh).head
                    out1, inc1 = plain_slots(d2, v1)
                    assert sorted([(w, "tail") for w in out1 if w != fresh]
                                  + [(w, "head") for w in inc1]) == sorted(part)
                    out2, inc2 = plain_slots(d2, v2)
                    assert sorted([(w, "tail") for w in out2]
                                  + [(w, "head") for w in inc2
                                     if w != fresh]) == sorted(rest)
            strangers = [(w.id, side) for w in d.wires
                         for side in ("tail", "head") if (w.id, side) not in at]
            for slot in strangers[:3]:
                with pytest.raises(NotAPartition):
                    split_vertex(d, v, at + [slot], [])


def plain_components(d):
    """Vertex sets of the components, grown wire by wire."""
    comp = {v: {v} for v in d.vertices}
    changed = True
    while changed:
        changed = False
        for w in d.wires:
            if w.tail is not None and w.head is not None:
                merged = comp[w.tail] | comp[w.head]
                if merged != comp[w.tail] or merged != comp[w.head]:
                    for x in merged:
                        comp[x] = merged
                    changed = True
    return {frozenset(c) for c in comp.values()}


def plain_witness(d, v):
    loops = sorted(w.id for w in d.wires if w.tail == v and w.head == v)
    plain = sorted(w.id for w in d.wires if (w.tail == v) != (w.head == v))
    if len(loops) >= 2:
        return "figure-eight", v, tuple(loops[:2])
    if loops:
        return "needle", v, (loops[0], plain[0])
    return "open-claw", v, tuple(plain[:3])


def test_classify_and_witness_match_the_wire_list():
    for d in diagrams(400, 3):
        def wild_at(vs):
            return [v for v in vs if sum(end == v for w in d.wires
                                         for end in (w.tail, w.head)) >= 3]

        first = wild_at(d.vertices)
        w = find_forbidden_witness(d)
        assert w == (plain_witness(d, first[0]) if first else None)
        if any(w.tail is None and w.head is None for w in d.wires):
            with pytest.raises(NotNormalized):
                classify_diagram(d)
            d = normalize(d)[0]
        comps = classify_diagram(d)
        assert {frozenset(c.vertices) for c, _ in comps} == plain_components(d)
        for comp, cls in comps:
            members = set(comp.vertices)
            cwires = [w for w in d.wires if {w.tail, w.head} & members]
            assert sorted(comp.wires) == sorted(w.id for w in cwires)
            wild = wild_at(comp.vertices)
            if wild:
                assert (cls.kind, cls.witness) == ("wild", plain_witness(d, wild[0]))
                continue
            dangling = sum((w.tail is None) != (w.head is None) for w in cwires)
            family = ({2: "A0", 1: "A1"}.get(dangling)
                      or ("J" if len(cwires) == len(members) else "P"))
            assert (cls.family, cls.n) == (family, len(members))


def plain_traverse(d, family):
    """The walk traverse documents, finding each next wire by a scan."""
    def at(v):
        return [w for w in d.wires for end in (w.tail, w.head) if end == v]

    if family in ("A0", "A1"):
        start = None
        w = min((w for w in d.wires if w.is_dangling()), key=lambda x: x.id)
    else:
        ends = [v for v in d.vertices if len(at(v)) == 1]
        start = min(ends or d.vertices)
        w = min(at(start), key=lambda x: x.id, default=None)
    wires, verts, v = [], [], start
    while w is not None:
        wires.append(w)
        v = w.head if w.tail == v else w.tail
        if v is None or v == start:
            break
        verts.append(v)
        w = next((x for x in at(v) if x.id != w.id), None)
    if start is not None:
        verts.append(start)
    return wires, verts


@pytest.mark.parametrize("family", ["A0", "A1", "P", "J"])
def test_traverse_matches_a_walk_by_scans(family):
    rng = random.Random(4)
    for n in range(1, 8):
        base = canonical_diagram(family, n)
        for _ in range(12):
            # fresh names, so lexicographic order is not chain order
            vname = dict(zip(base.vertices,
                             (f"u{k}" for k in rng.sample(range(50), n))))
            wname = {w.id: f"x{k}" for w, k in zip(
                base.wires, rng.sample(range(50), len(base.wires)))}
            wires = [Wire(wname[w.id], vname.get(w.tail), vname.get(w.head))
                     for w in base.wires]
            wires = [Wire(w.id, w.head, w.tail) if rng.random() < 0.5 else w
                     for w in wires]
            rng.shuffle(wires)
            d = TensorDiagram(tuple(sorted(vname.values())), tuple(wires))
            shape = traverse(d, family)
            assert (shape.family, shape.n) == (family, n)
            wires, verts = plain_traverse(d, family)
            assert [w.id for w in shape.wires] == [w.id for w in wires]
            assert shape.verts == tuple(verts)   # a Shape holds tuples
            assert [{w.tail, w.head} for w in shape.wires] == [
                {w.tail, w.head} for w in wires]
            # the shape's wires point along the walk: it is co-oriented
            heads = [w.head for w in shape.wires]
            tails = [w.tail for w in shape.wires]
            assert heads[:-1] == tails[1:]
