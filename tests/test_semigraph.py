import pytest

from tdr.errors import (
    DuplicateId,
    NotAPartition,
    NotASubdiagram,
    ParseError,
    UnknownVertexRef,
    UnknownWire,
)
from tdr.semigraph import (
    SubdiagramRef,
    TensorDiagram,
    Wire,
    connected_components,
    degree,
    diagram_to_record,
    isolate_subdiagram,
    neighborhood,
    normalize,
    reverse_wire,
    split_vertex,
    subdiagram_ref,
    validate_diagram,
)

PATH = {
    "vertices": ["v1", "v2"],
    "wires": [
        {"id": "e1", "tail": None, "head": "v1"},
        {"id": "e2", "tail": "v1", "head": "v2"},
        {"id": "e3", "tail": "v2", "head": None},
    ],
}


def test_validate_round_trip():
    d = validate_diagram(PATH)
    assert d.vertices == ("v1", "v2")
    assert d.wire("e2") == Wire("e2", "v1", "v2")
    rec = diagram_to_record(d)
    assert validate_diagram(rec) == d
    assert diagram_to_record(validate_diagram(rec)) == rec


def test_validate_rejects_bad_input():
    with pytest.raises(DuplicateId):
        validate_diagram({"vertices": ["v1", "v1"], "wires": []})
    with pytest.raises(DuplicateId):
        validate_diagram({"vertices": ["v1"], "wires": [
            {"id": "e1", "tail": "v1", "head": "v1"},
            {"id": "e1", "tail": "v1", "head": None}]})
    with pytest.raises(UnknownVertexRef):
        validate_diagram({"vertices": ["v1"], "wires": [
            {"id": "e1", "tail": "v9", "head": "v1"}]})
    with pytest.raises(UnknownWire):
        validate_diagram({"vertices": ["v1"], "wires": [
            {"id": 7, "tail": "v1", "head": "v1"}]})
    # omitted endpoints read as open ends
    d = validate_diagram({"vertices": ["v1"], "wires": [{"id": "e1"}]})
    assert d.wire("e1").is_endpointless()


def test_wire_predicates():
    assert Wire("e", "v", "v").is_loop()
    assert Wire("e", None, "v").is_dangling()
    assert Wire("e", None, None).is_endpointless()
    assert not Wire("e", "a", "b").is_loop()


def test_degree_counts_loop_twice():
    d = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"}]})
    assert degree(d, "v1") == 2
    p = validate_diagram(PATH)
    assert degree(p, "v1") == 2
    with pytest.raises(UnknownVertexRef):
        degree(p, "v9")


def test_neighborhood():
    d = validate_diagram(PATH)
    nb = neighborhood(d, "v1")
    assert list(nb.incoming) == ["e1"]
    assert list(nb.outgoing) == ["e2"]


def test_normalize_drops_endpointless():
    d = TensorDiagram(("v1",), (Wire("e1", "v1", None), Wire("e2", None, None)))
    nd, removed = normalize(d)
    assert removed == ["e2"]
    assert [w.id for w in nd.wires] == ["e1"]
    nd2, removed2 = normalize(nd)
    assert nd2 == nd and removed2 == []


def test_reverse_wire():
    d = validate_diagram(PATH)
    r = reverse_wire(d, "e2")
    assert r.wire("e2") == Wire("e2", "v2", "v1")
    assert reverse_wire(r, "e2") == d
    with pytest.raises(UnknownWire):
        reverse_wire(d, "e9")


def test_split_vertex_partitions_slots():
    d = validate_diagram(PATH)
    d2, fresh = split_vertex(d, "v1", ["e1"], ["e2"])
    assert fresh in {w.id for w in d2.wires}
    assert len(d2.vertices) == 3
    # all original slots must be covered, each exactly once
    with pytest.raises(NotAPartition):
        split_vertex(d, "v1", ["e1"], [])
    with pytest.raises(NotAPartition):
        split_vertex(d, "v1", ["e1", "e2"], ["e2"])


def test_split_vertex_names_past_taken_vertices():
    """v·1 taken, and v·1·1 too: the first half is v·1·2, the next free
    v·1·j, and the second half the untaken v·2."""
    from tdr.semigraph import fresh_vertex

    assert fresh_vertex("v", {"v", "v·1"}) == "v·2"
    assert fresh_vertex("v", {"v·1"}) == "v"
    d = validate_diagram({"vertices": ["v1", "v1·1", "v1·1·1"], "wires": [
        {"id": "e1", "tail": None, "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None}]})
    d2, fresh = split_vertex(d, "v1", ["e1"], ["e2"])
    assert d2.vertices == ("v1·1", "v1·1·1", "v1·1·2", "v1·2")
    assert d2.wire(fresh) == Wire(fresh, "v1·1·2", "v1·2")


def test_split_vertex_loop_slots():
    d = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"}]})
    d2, fresh = split_vertex(d, "v1", [("e1", "tail")], [("e1", "head")])
    w = d2.wire("e1")
    assert w.tail != w.head  # the loop got pulled apart
    assert len(d2.vertices) == 2


def test_subdiagram_ref_induced():
    d = validate_diagram(PATH)
    s = subdiagram_ref(d, ["v1", "v2"])
    # induced = every wire whose named endpoints all lie inside,
    # dangling ends included
    assert set(s.wires) == {"e1", "e2", "e3"}
    assert set(subdiagram_ref(d, ["v1"]).wires) == {"e1"}
    with pytest.raises(NotASubdiagram):
        subdiagram_ref(d, ["v9"])
    # a ref may name any existing wires, but using one that leaves the
    # vertex set is rejected
    leaky = SubdiagramRef(("v1",), ("e2",))
    with pytest.raises(NotASubdiagram):
        isolate_subdiagram(d, leaky)


def test_isolate_subdiagram_splits_off_copy():
    d = validate_diagram({"vertices": ["v1", "v2", "v3"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v2"},
        {"id": "e2", "tail": "v2", "head": "v3"}]})
    s = subdiagram_ref(d, ["v2"])
    cur, restricted, copy = isolate_subdiagram(d, s)
    # the copy carries s's wires only; fresh wires are the pinned channel
    assert len(copy.vertices) == 1
    assert set(copy.wires) == set()
    assert restricted and all(cur.wire(wid) is not None for wid in restricted)
    assert set(d.vertices) <= set()|{v.split("·")[0] for v in cur.vertices}


def test_isolate_whole_diagram_is_noop():
    d = validate_diagram(PATH)
    s = subdiagram_ref(d, ["v1", "v2"])
    cur, restricted, copy = isolate_subdiagram(d, s)
    assert cur == d and restricted == []
    assert set(copy.vertices) == {"v1", "v2"}


def test_connected_components():
    d = validate_diagram({"vertices": ["v1", "v2", "v3"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v2"},
        {"id": "e2", "tail": "v3", "head": "v3"}]})
    comps = connected_components(d)
    assert len(comps) == 2
    assert {tuple(c.vertices) for c in comps} == {("v1", "v2"), ("v3",)}
