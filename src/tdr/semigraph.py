"""Tensor diagrams as directed semi-graphs.

A diagram is a sorted tuple of vertex ids plus a sorted tuple of wires; a
wire may dangle (one endpoint None) or be endpointless (both None).  All
surgery returns new diagrams; nothing mutates.  Canonical order is
lexicographic on ids and every downstream multi-index convention relies on
it, so validate_diagram is the only sanctioned constructor for outside data.

A vertex's slots are its outgoing wires (the rows of its tensor) and its
incoming wires (the columns); a loop takes one slot on each side, and a
vertex of three or more slots makes its component wild.  slots(d) is the
one incidence convention: one pass over the wires gives every vertex's
slots, and every layer (neighborhood and degree, splitting, classify, the
shape walk, the tensor layout, flows) reads them from that table;
slot_keys names them (wire id, "tail"/"head") in tensor index order, and
reversal_slots gives them in that order before and after a reversal, at
the vertices it touches only.

known_ids looks up every vertex, wire or slot id a caller passes by hash
among the diagram's own, so an unhashable id is unknown too.
"""

from typing import NamedTuple, Optional

from .errors import (
    DuplicateId,
    NotAPartition,
    NotASubdiagram,
    ParseError,
    UnknownVertexRef,
    UnknownWire,
)


class Wire(NamedTuple):
    id: str
    tail: Optional[str]
    head: Optional[str]

    def is_loop(self):
        return self.tail is not None and self.tail == self.head

    def is_dangling(self):
        return (self.tail is None) != (self.head is None)

    def is_endpointless(self):
        return self.tail is None and self.head is None


class TensorDiagram(NamedTuple):
    vertices: tuple
    wires: tuple

    def wire(self, wire_id):
        known_ids((w.id for w in self.wires), [wire_id], UnknownWire, "wire ids")
        return next(w for w in self.wires if w.id == wire_id)

    def is_closed(self):
        return all(w.tail is not None and w.head is not None for w in self.wires)


class VertexNeighborhood(NamedTuple):
    incoming: tuple   # wire ids with head = v, canonical order
    outgoing: tuple   # wire ids with tail = v, canonical order


class SubdiagramRef(NamedTuple):
    vertices: tuple
    wires: tuple


def known_ids(pool, ids, error, what):
    """ids as a set, once each one is in pool, a collection of what (a
    plural such as "vertex ids"), looked up by hash; otherwise error, also
    when ids is not iterable, or pool (a hand-built diagram's) not hashable.
    An unhashable id is unknown, since hashing it fails."""
    try:
        ids = list(ids)
    except TypeError:
        raise error(f"{ids!r} is not a collection of {what}") from None
    try:
        pool = set(pool)
    except TypeError:
        raise error(f"the {what} of this diagram cannot be hashed") from None
    for i in ids:
        try:
            known = i in pool
        except TypeError:
            known = False
        if not known:
            raise error(f"{i!r} is not among the {what}")
    return set(ids)


def check_diagram(raw):
    """validate_diagram's checks, building nothing: the vertices and wires."""
    if isinstance(raw, TensorDiagram):
        vs, ws, kind = raw.vertices, raw.wires, Wire
    elif isinstance(raw, dict):
        vs, ws, kind = raw.get("vertices", []), raw.get("wires", []), dict
    else:
        raise ParseError("a diagram must be an object")
    if not isinstance(vs, (list, tuple)) or not isinstance(ws, (list, tuple)):
        raise ParseError("diagram vertices and wires must be lists")
    if not all(isinstance(w, kind) for w in ws):
        raise ParseError("every wire must be an object")
    if kind is dict:
        ws = [(w.get("id"), w.get("tail"), w.get("head")) for w in ws]
    seen = set()
    for v in vs:
        if not isinstance(v, str) or not v:
            raise UnknownVertexRef(f"bad vertex id {v!r}")
        if v in seen:
            raise DuplicateId(f"vertex {v}")
        seen.add(v)
    wseen = set()
    for wid, tail, head in ws:
        if not isinstance(wid, str) or not wid:
            raise UnknownWire(f"bad wire id {wid!r}")
        if wid in wseen:
            raise DuplicateId(f"wire {wid}")
        wseen.add(wid)
        for end in (tail, head):
            if end is not None and (not isinstance(end, str) or end not in seen):
                raise UnknownVertexRef(f"wire {wid} endpoint {end}")
    return vs, ws


def validate_diagram(raw):
    """Build a canonical TensorDiagram from a record or another diagram."""
    vs, ws = check_diagram(raw)
    return TensorDiagram(tuple(sorted(vs)), tuple(sorted(Wire(*w) for w in ws)))


def diagram_to_record(d):
    return {
        "vertices": list(d.vertices),
        "wires": [{"id": w.id, "tail": w.tail, "head": w.head} for w in d.wires],
    }


def slots(d):
    """Every vertex's VertexNeighborhood, from one pass over d.wires: wire
    ids in d.wires order, a loop listed on both sides."""
    table = {v: ([], []) for v in d.vertices}
    for w in d.wires:
        if w.head is not None:
            table[w.head][0].append(w.id)
        if w.tail is not None:
            table[w.tail][1].append(w.id)
    # tuple.__new__ skips a Python-level constructor call per vertex, and
    # classifying many small diagrams spends most of its time in this table
    return {v: tuple.__new__(VertexNeighborhood, (tuple(i), tuple(o)))
            for v, (i, o) in table.items()}


def neighborhood(d, v):
    known_ids(d.vertices, [v], UnknownVertexRef, "vertex ids")
    return slots(d)[v]


def degree(d, v):
    return sum(map(len, neighborhood(d, v)))


def normalize(d):
    """Drop endpointless wires; returns (diagram, removed wire ids)."""
    removed = [w.id for w in d.wires if w.is_endpointless()]
    if not removed:
        return d, []
    kept = tuple(w for w in d.wires if not w.is_endpointless())
    return TensorDiagram(d.vertices, kept), removed


def reverse_wire(d, *wire_ids):
    """d with every listed wire reversed, in d's wire order, once known_ids
    finds each among d's wires (UnknownWire); the ids are a set, so a wire
    listed twice is reversed once."""
    ids = known_ids((w.id for w in d.wires), wire_ids, UnknownWire, "wire ids")
    # from a list: tuple() of a generator resizes as it fills (+1 MB peak RSS)
    return TensorDiagram(d.vertices, tuple([
        Wire(w.id, w.head, w.tail) if w.id in ids else w for w in d.wires]))


def slot_keys(nb):
    """A vertex's slots in tensor index order: (wire id, "tail") per
    outgoing wire (the rows), then (wire id, "head") per incoming one."""
    return [(w, "tail") for w in nb.outgoing] + [(w, "head") for w in nb.incoming]


def reversal_slots(d, ids):
    """For each vertex that reversing the wires ids (a set) touches: its
    slot keys in tensor index order before and after, and how many slots
    are outgoing after; one pass over d.wires, the order of slots(d) and of
    slots(reverse_wire(d, *ids)).  A slot after is named by the slot before
    whose index it carries, so a reversed wire's (id, "tail") is incoming."""
    sides = {v: ([], [], [], []) for w in d.wires if w.id in ids
             for v in (w.tail, w.head) if v is not None}
    for w in d.wires:
        flipped = w.id in ids
        for v, s in ((w.tail, "tail"), (w.head, "head")):
            if v in sides:
                old_out, old_in, new_out, new_in = sides[v]
                (old_out if s == "tail" else old_in).append((w.id, s))
                (new_out if (s == "tail") != flipped else new_in).append((w.id, s))
    return {v: (oo + oi, no + ni, len(no)) for v, (oo, oi, no, ni) in sides.items()}


def _normalize_part(v, part, all_slots):
    """The slot set of a collection of v's slots and wire ids (a wire id
    meaning each of its slots at v), read through known_ids."""
    part = known_ids(all_slots + [w for w, _ in all_slots], part,
                     NotAPartition, f"slots and wire ids at {v}")
    return {s for s in all_slots if s in part or s[0] in part}


def fresh_vertex(base, taken):
    """base, or else the first base·j (j = 1, 2, ...) not in taken."""
    if base not in taken:
        return base
    j = 1
    while f"{base}·{j}" in taken:
        j += 1
    return f"{base}·{j}"


def _fresh_wire(taken):
    k = 1
    while f"_split{k}" in taken:
        k += 1
    return f"_split{k}"


def _split(d, v, part1, part2):
    """Core splitting; parts are slot sets.  Returns (d', wire id, v1, v2)."""
    all_slots = slot_keys(neighborhood(d, v))
    s1 = _normalize_part(v, part1, all_slots)
    s2 = _normalize_part(v, part2, all_slots)
    if s1 & s2 or s1 | s2 != set(all_slots):
        raise NotAPartition(f"parts do not partition the slots at {v}")
    taken = set(d.vertices)
    taken.discard(v)
    v1 = fresh_vertex(f"{v}·1", taken)
    taken.add(v1)
    v2 = fresh_vertex(f"{v}·2", taken)
    taken.add(v2)

    def carrier(slot):
        return v1 if slot in s1 else v2

    wires = []
    for w in d.wires:
        tail, head = w.tail, w.head
        if tail == v:
            tail = carrier((w.id, "tail"))
        if head == v:
            head = carrier((w.id, "head"))
        wires.append(Wire(w.id, tail, head))
    fresh = _fresh_wire({w.id for w in d.wires})
    wires.append(Wire(fresh, v1, v2))
    vertices = tuple(sorted(taken))
    return TensorDiagram(vertices, tuple(sorted(wires))), fresh, v1, v2


def split_vertex(d, v, part1, part2):
    """Split v into v·1 (part1 slots) and v·2 (part2); adds a v·1→v·2 wire.

    Parts may list wire ids (meaning every slot of that wire at v) or
    explicit (wire id, "tail"/"head") slots, so the two ends of a loop can
    land on different sides.
    """
    d2, fresh, _, _ = _split(d, v, part1, part2)
    return d2, fresh


def subdiagram_ref(d, vertices):
    """Reference to the subdiagram of d on these vertices (known_ids, else
    NotASubdiagram), with each wire whose named ends all lie among them."""
    vset = known_ids(d.vertices, vertices, NotASubdiagram, "vertex ids")
    return SubdiagramRef(tuple(sorted(vset)), tuple(sorted(
        w.id for w in d.wires if (w.tail, w.head) != (None, None)
        and {w.tail, w.head} - {None} <= vset)))


def _check_subdiagram(d, s):
    """(vertex set, wire set) of s, once known_ids finds its ids in d and no
    wire of s leaves its vertices (NotASubdiagram)."""
    vset = known_ids(d.vertices, s.vertices, NotASubdiagram, "vertex ids")
    wset = known_ids((w.id for w in d.wires), s.wires, NotASubdiagram, "wire ids")
    for w in d.wires:
        for end in (w.tail, w.head):
            if w.id in wset and end is not None and end not in vset:
                raise NotASubdiagram(
                    f"wire {w.id} leaves the vertex set at {end}")
    return vset, wset


def restrict(d, ref):
    """The diagram of a subdiagram reference: its vertices and its wires."""
    vset, wset = _check_subdiagram(d, ref)
    return TensorDiagram(tuple(sorted(vset)),
                         tuple(w for w in d.wires if w.id in wset))


def isolate_subdiagram(d, s):
    """Split d so a pinned copy of s sits inside; see the flows module.

    Returns (new diagram, wires to pin to dimension 1, the copy of s).  Two
    passes per vertex of s: first separate the wires staying among s's
    vertices from the rest, then separate s's own wires (plus the first
    fresh wire) from the remainder.  Degenerate splits that would only add
    a pendant vertex are skipped, so isolating the whole diagram is a no-op.
    """
    u_set, f_set = _check_subdiagram(d, s)
    cur = d
    restricted = []
    carrier1 = {}    # original vertex -> (pass-1 carrier, its fresh wire or None)
    inside = set(u_set)
    for v in sorted(u_set):
        at = set(slot_keys(slots(cur)[v]))
        wires = {w.id: w for w in cur.wires}
        w1 = set()
        for wid, side in at:
            w = wires[wid]
            other = w.head if side == "tail" else w.tail
            if other in inside or (other is None and wid in f_set):
                w1.add((wid, side))
        w2 = at - w1
        c1, fresh = v, None
        if w2:
            cur, fresh, c1, _ = _split(cur, v, w1, w2)
            restricted.append(fresh)
            inside.discard(v)
            inside.add(c1)
        carrier1[v] = (c1, fresh)
    copy_vertices = []
    for v in sorted(u_set):
        c1, fresh1 = carrier1[v]
        at = set(slot_keys(slots(cur)[c1]))
        w1 = {(wid, side) for wid, side in at if wid in f_set or wid == fresh1}
        w2 = at - w1
        if w2:
            cur, fresh, c1, _ = _split(cur, c1, w1, w2)
            restricted.append(fresh)
        copy_vertices.append(c1)
    copy = subdiagram_ref(cur, copy_vertices)
    return cur, restricted, copy


def connected_components(d):
    """Maximal connected pieces as refs; endpointless wires are singletons."""
    comp = {v: [v] for v in d.vertices}   # vertex -> its component's vertices
    for w in d.wires:
        if w.tail is not None and w.head is not None:
            a, b = comp[w.tail], comp[w.head]
            if a is not b:
                if len(a) < len(b):
                    a, b = b, a   # the smaller component moves
                a += b
                for x in b:
                    comp[x] = a
    groups = {c[0]: (c, []) for c in comp.values()}
    comps = []
    for w in d.wires:
        end = w.tail if w.tail is not None else w.head
        if end is None:
            comps.append(SubdiagramRef((), (w.id,)))
        else:
            groups[comp[end][0]][1].append(w.id)
    comps += [SubdiagramRef(tuple(sorted(vs)), tuple(sorted(ws)))
              for vs, ws in groups.values()]
    comps.sort(key=lambda c: (c.vertices + c.wires))
    return comps
