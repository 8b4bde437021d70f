"""A Representation is valid by construction: its constructor is the one
check, nothing gets round it, and operations on a valid rep check nothing
again."""

import random

import pytest

from tdr.decompose import (
    Band,
    Interval,
    StringBlock,
    canonical_diagram,
    decompose,
    isomorphic,
    monodromy,
    realize,
)
from tdr.errors import ShapeMismatch, UnknownVertexRef
from tdr.exactalg import Matrix, Poly
from tdr.generate import gen_random
from tdr.representation import (
    Representation,
    _compile,
    apply_group_element,
    cokernel,
    contract,
    direct_sum,
    dual_rep,
    hom_dim,
    is_morphism,
    kernel,
    reverse_wire_rep,
    split_functor,
    tensor_product,
    validate_representation,
    vertex_shapes,
)
from tdr.semigraph import (
    TensorDiagram,
    Wire,
    check_diagram,
    diagram_to_record,
    slots,
    validate_diagram,
)
from tdr.wildness import eight_tuple

_J2 = realize("J", 2, StringBlock(1, 3))   # dims e1: 2, e2: 1
_ID = {wid: Matrix.identity(n) for wid, n in _J2.dims.items()}
_EYE5 = {v: Matrix.identity(5) for v in _J2.tensors}

# every public function that takes a representation, with x in one of its
# representation arguments and a valid rep or map in the others
_TAKERS = {
    "decompose": decompose,
    "isomorphic": lambda x: isomorphic(_J2, x),
    "hom_dim": lambda x: hom_dim(x, _J2),
    "contract": contract,
    "direct_sum": lambda x: direct_sum(_J2, x),
    "reverse_wire_rep": lambda x: reverse_wire_rep(x, "e1"),
    "dual_rep": dual_rep,
    "tensor_product": lambda x: tensor_product(x, _J2),
    "split_functor": lambda x: split_functor(x, "e2"),
    "monodromy": lambda x: monodromy(x, "e1"),
    "apply_group_element": lambda x: apply_group_element(_ID, x),
    "is_morphism": lambda x: is_morphism(_ID, x, _J2),
    "kernel": lambda x: kernel(_ID, _J2, x),
    "cokernel": lambda x: cokernel(_ID, x, _J2),
    "eight_tuple": eight_tuple,
}


@pytest.mark.parametrize("junk", [None, 5, tuple(_J2)],
                         ids=["None", "int", "plain-tuple"])
@pytest.mark.parametrize("name", sorted(_TAKERS))
def test_a_non_representation_is_refused(name, junk):
    """Junk, and a plain tuple of a valid rep's fields, is a ShapeMismatch
    in every function that takes a rep, never a traceback or an answer."""
    with pytest.raises(ShapeMismatch, match="expected a Representation"):
        _TAKERS[name](junk)


_UNKNOWN_END = TensorDiagram(("v1", "v2"), (Wire("e1", "v1", "v2"),
                                            Wire("e2", "v2", "zz")))


@pytest.mark.parametrize("build, error", [
    (lambda: Representation(_J2.diagram, _J2.dims, _EYE5), ShapeMismatch),
    (lambda: Representation(_J2.diagram, _J2.dims, {"v2": _J2.tensors["v2"]}),
     ShapeMismatch),
    (lambda: Representation(_UNKNOWN_END, _J2.dims, _J2.tensors),
     UnknownVertexRef),
    (lambda: _J2._replace(tensors=_EYE5), ShapeMismatch),
    (lambda: _J2._replace(diagram=_UNKNOWN_END), UnknownVertexRef),
    (lambda: Representation._make((_J2.diagram, _J2.dims, _EYE5)),
     ShapeMismatch),
    (lambda: Representation._make((_J2.diagram, {"e1": 2}, _J2.tensors)),
     ShapeMismatch),
    (lambda: validate_representation(canonical_diagram("J", 1), {"e1": 1},
                                     {"v1": [[True]]}), ShapeMismatch),
], ids=["identities-5x5", "missing-tensor", "unknown-endpoint",
        "replace-tensors", "replace-diagram", "make-tensors", "make-dims",
        "bool-entry"])
def test_no_path_builds_a_bad_rep(build, error):
    """The hand-built reps that direct_sum and contract once read unchecked
    (5x5 identities on J_2's String(1, 3), a missing tensor, an unknown
    endpoint) are refused by the constructor, and so by _replace and
    _make; the record parser refuses a bool entry, as the CLI's
    parse_rational refuses a JSON true."""
    with pytest.raises(error):
        build()


def test_dims_and_tensors_are_read_only():
    r = direct_sum(_J2, _J2)
    for rep in (_J2, r):
        with pytest.raises(TypeError):
            rep.dims["e1"] = 5
        with pytest.raises(TypeError):
            rep.tensors["v1"] = Matrix.identity(5)
    assert _J2.dims == {"e1": 2, "e2": 1} and r.dims == {"e1": 4, "e2": 2}
    assert _J2._replace(tensors=dict(_J2.tensors)) == _J2


def test_the_constructor_keeps_or_canonicalizes_the_diagram():
    """A tuple-field TensorDiagram is kept as it is, a list-field one is
    stored with tuples in its own order, a record is built in canonical
    order; dims and tensors are fresh, in wire and vertex order."""
    d = TensorDiagram(("v2", "v1"), (Wire("e2", "v2", "v1"),
                                     Wire("e1", "v1", "v2")))
    dims = {"e1": 2, "e2": 1}
    tensors = {"v1": _J2.tensors["v1"], "v2": _J2.tensors["v2"]}
    assert Representation(d, dims, tensors).diagram is d
    listed = Representation(TensorDiagram(list(d.vertices), list(d.wires)),
                            dims, tensors)
    assert listed.diagram == d and hash(listed.diagram) == hash(d)
    assert list(listed.dims) == ["e2", "e1"] and list(listed.tensors) == ["v2", "v1"]
    record = {"vertices": ["v2", "v1"], "wires": [
        {"id": "e2", "tail": "v2", "head": "v1"},
        {"id": "e1", "tail": "v1", "head": "v2"}]}
    assert Representation(record, dims, tensors).diagram == validate_diagram(record)
    dims["e1"] = 3
    assert listed.dims["e1"] == 2


def test_a_tensor_diagram_is_checked_in_place(spy):
    """The constructor checks a TensorDiagram by check_diagram and builds no
    canonical copy through validate_diagram; a record still goes through
    validate_diagram.  gen_random in sum mode builds each block on its
    input's diagram, so it validates that diagram once, not once a block."""
    calls = spy(validate_diagram, check_diagram)
    Representation(_J2.diagram, _J2.dims, _J2.tensors)
    assert calls == {"validate_diagram": 0, "check_diagram": 1}
    Representation(diagram_to_record(_J2.diagram), _J2.dims, _J2.tensors)
    assert calls == {"validate_diagram": 1, "check_diagram": 2}
    _, key = gen_random(diagram_to_record(canonical_diagram("J", 2)),
                        {"e1": 6, "e2": 6}, 1, mode="sum")
    assert len(key.blocks) >= 2 and calls["validate_diagram"] == 2


def test_a_grid_is_a_matrix_only_through_the_record_parser():
    grids = {"v1": [[1], [0]], "v2": [[0, 1]]}
    with pytest.raises(ShapeMismatch, match="v1 needs a 2x1 Matrix"):
        Representation(_J2.diagram, _J2.dims, grids)
    r = validate_representation(_J2.diagram, _J2.dims, grids)
    assert r.tensors["v1"] == Matrix.from_rows([[1], [0]])


def test_the_record_parser_builds_each_grid_at_its_vertex_shape():
    """An empty grid is a vertex with no rows and its shape's columns, as
    the CLI reads a record with rows 0 and cols 3; a grid of another shape
    is refused."""
    d, dims = canonical_diagram("A0", 1), {"e1": 3, "e2": 0}
    r = validate_representation(d, dims, {"v1": []})
    assert r.tensors["v1"] == Matrix.zeros(0, 3)
    assert decompose(r).blocks == ((Interval(1, 1), 3),)
    for grids in ({"v1": [[1, 2, 3]]}, {"v1": [[]]}, {"v1": [[1], [2], [3]]},
                  {"v1": 3}, {"v1": [], "v2": []}):
        with pytest.raises(ShapeMismatch):
            validate_representation(d, dims, grids)
    with pytest.raises(ShapeMismatch, match="v1 needs a 1x3 Matrix"):
        validate_representation(d, {"e1": 3, "e2": 1}, {})


def _unitriangular(rng, n):
    return Matrix.from_rows([[int(i == j) or (rng.randint(-3, 3) if j > i else 0)
                              for j in range(n)] for i in range(n)])


def test_operations_pay_no_check(spy):
    """On valid reps, decompose, isomorphic, hom_dim, a warm contract,
    direct_sum, reverse_wire_rep and apply_group_element never call
    validate_diagram or vertex_shapes, in any tdr module."""
    band = realize("J", 2, Band(Poly((-2, 1)), 1))
    summed = direct_sum(_J2, band)   # dims e1: 3, e2: 2
    path = realize("A0", 3, Interval(1, 2))
    rng = random.Random(23)
    g = {wid: _unitriangular(rng, n) for wid, n in summed.dims.items()}
    value = contract(summed)
    calls = spy(validate_diagram, vertex_shapes)
    twin = apply_group_element(g, summed)
    assert decompose(twin) == decompose(summed)
    assert isomorphic(twin, summed) and not isomorphic(summed, band)
    assert hom_dim(twin, summed) == hom_dim(summed, summed) > 0
    assert contract(twin) == value
    assert direct_sum(twin, summed, _J2).dims == {"e1": 8, "e2": 5}
    assert decompose(reverse_wire_rep(path, "e1", "e3")) == decompose(path)
    assert calls == {"validate_diagram": 0, "vertex_shapes": 0}


def test_a_cold_compile_builds_the_slot_table_once(spy):
    """_compile reads the vertex slots once: the constructor has checked
    the dims and shapes, so the plan's held wires are the only use."""
    r = direct_sum(_J2, realize("J", 2, Band(Poly((-2, 1)), 1)))
    _compile.cache_clear()
    calls = spy(slots)
    contract(r)
    assert calls == {"slots": 1}
    contract(r)
    assert calls == {"slots": 1}
