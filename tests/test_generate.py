import hashlib
import tracemalloc

import pytest

from tdr.cli import _decomposition_record, _rep_record, canonical_json
from tdr.decompose import canonical_diagram, decompose, shape_of
from tdr.errors import (
    InvalidDims,
    NotConnected,
    NotDecomposable,
    TdrError,
    TensorTooLarge,
)
from tdr.generate import SplitMix64, gen_random
from tdr.rational import Q
from tdr.representation import TENSOR_CAP, Representation, vertex_shapes
from tdr.semigraph import check_diagram, validate_diagram


def test_splitmix64_reference_stream():
    s = SplitMix64(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    s = SplitMix64(1234567)
    assert [s.next_u64() for _ in range(3)] == [
        0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]


def test_splitmix64_below_range():
    s = SplitMix64(42)
    vals = [s.below(10) for _ in range(100)]
    assert all(0 <= v < 10 for v in vals)
    assert len(set(vals)) > 3


def test_generic_mode_deterministic():
    d = canonical_diagram("J", 2)
    dims = {"e1": 2, "e2": 3}
    r1 = gen_random(d, dims, 42)
    r2 = gen_random(d, dims, 42)
    assert r1.rep == r2.rep and r1.key is None
    assert r1.rep.dims == dims
    r3 = gen_random(d, dims, 43)
    assert r3.rep != r1.rep


def test_generic_mode_caps_a_side_before_allocating():
    # A0(1)'s vertex holds no entry at all, but TENSOR_CAP + 1 empty rows
    tracemalloc.start()
    try:
        with pytest.raises(TensorTooLarge, match=f"{TENSOR_CAP + 1} rows"):
            gen_random(canonical_diagram("A0", 1), {"e1": 0, "e2": TENSOR_CAP + 1}, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_generic_mode_checks_the_diagram_and_dims_once(spy):
    """The diagram and dims are checked once, before anything is drawn; the
    tensors are drawn at the checked shapes, so the rep is valid by
    construction and the Representation constructor would accept it."""
    d = canonical_diagram("J", 2)
    calls = spy(check_diagram, vertex_shapes)
    rep = gen_random(d, {"e2": 3, "e1": 2}, 42).rep
    assert calls == {"check_diagram": 1, "vertex_shapes": 1}
    assert rep == Representation(rep.diagram, rep.dims, rep.tensors)
    assert list(rep.dims) == ["e1", "e2"] and list(rep.tensors) == ["v1", "v2"]


@pytest.mark.parametrize("diagram, dims, seed, mode, error", [
    ({"vertices": [1]}, {"e1": -1}, True, "nope", "bad vertex id 1"),
    (canonical_diagram("J", 1), {"e1": -1}, True, "nope", "wire e1 needs a dim"),
    (canonical_diagram("J", 1), {"e1": 1, "e9": 1}, True, "nope", "unknown wire 'e9'"),
    (canonical_diagram("A0", 1), {"e1": 1, "e2": TENSOR_CAP + 1}, True, "nope",
     "over the cap"),
    (canonical_diagram("J", 1), {"e1": 1}, True, "nope", "seed must be an integer"),
    (canonical_diagram("J", 1), {"e1": 1}, 0, "nope", "unknown mode 'nope'"),
])
def test_generic_mode_refuses_in_the_order_of_its_checks(diagram, dims, seed,
                                                         mode, error):
    """Diagram, then dims (ids, then the per-vertex cap), then seed, then mode."""
    with pytest.raises(TdrError, match=error):
        gen_random(diagram, dims, seed, mode)


def test_generic_mode_builds_no_rows_for_an_empty_side():
    # 10**6 rows of nothing: one shared empty row, not a list per row
    tracemalloc.start()
    try:
        rep = gen_random(canonical_diagram("A0", 1), {"e1": 0, "e2": 10 ** 6}, 0).rep
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.tensors["v1"].rows, rep.tensors["v1"].cols) == (10 ** 6, 0)
    assert peak < 20 << 20


def test_generic_mode_entry_bounds():
    d = canonical_diagram("A0", 1)
    r = gen_random(d, {"e1": 3, "e2": 3}, 7).rep
    for row in r.tensors["v1"].entries():
        for x in row:
            num, den = x.numerator, x.denominator
            assert -9 <= num <= 9 and 1 <= den <= 9


def test_generic_mode_works_on_wild():
    d = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None}]})
    r = gen_random(d, {"e1": 2, "e2": 2}, 1).rep
    assert r.tensors["v1"].rows == 4 and r.tensors["v1"].cols == 2


def test_dims_validation():
    d = canonical_diagram("J", 1)
    with pytest.raises(InvalidDims):
        gen_random(d, {}, 0)
    with pytest.raises(InvalidDims):
        gen_random(d, {"e1": -1}, 0)
    with pytest.raises(InvalidDims):
        gen_random(d, {"e1": True}, 0)
    with pytest.raises(InvalidDims):
        gen_random(d, {"e1": 1, "e9": 1}, 0)
    with pytest.raises(InvalidDims):
        gen_random(d, {"e1": 1}, 0, mode="nope")


def test_bool_seed_is_refused_like_a_bool_dim():
    d = canonical_diagram("J", 1)
    for mode in ("generic", "sum"):
        with pytest.raises(InvalidDims):
            gen_random(d, {"e1": 1}, True, mode)


def test_sum_mode_key_matches_decompose():
    for family, n, dims in [("A0", 2, {"e1": 3, "e2": 3, "e3": 3}),
                            ("A1", 2, {"e1": 2, "e2": 4}),
                            ("P", 3, {"e1": 3, "e2": 3}),
                            ("J", 2, {"e1": 4, "e2": 4})]:
        d = canonical_diagram(family, n)
        for seed in (0, 1, 99):
            res = gen_random(d, dims, seed, mode="sum")
            assert decompose(res.rep) == res.key, (family, seed)
            for wid, cap in dims.items():
                assert res.rep.dims[wid] <= cap


def test_sum_mode_alias():
    d = canonical_diagram("J", 2)
    a = gen_random(d, {"e1": 4, "e2": 4}, 5, mode="sum")
    b = gen_random(d, {"e1": 4, "e2": 4}, 5, mode="sum-of-indecomposables")
    assert a.rep == b.rep and a.key == b.key


def test_sum_mode_p1():
    d = canonical_diagram("P", 1)
    res = gen_random(d, {}, 3, mode="sum")
    assert decompose(res.rep) == res.key


def test_sum_mode_respects_input_orientation():
    # canonical J_2 reversed wire: generator must hand back a rep on the
    # exact input diagram
    d = validate_diagram({"vertices": ["v1", "v2"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v2"},
        {"id": "e2", "tail": "v1", "head": "v2"}]})
    res = gen_random(d, {"e1": 3, "e2": 3}, 11, mode="sum")
    assert res.rep.diagram == d
    assert decompose(res.rep) == res.key


def test_sum_mode_rejects_wild_and_disconnected():
    wild = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None}]})
    with pytest.raises(NotDecomposable):
        gen_random(wild, {"e1": 2, "e2": 2}, 0, mode="sum")
    two = validate_diagram({"vertices": ["v1", "v2"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v2", "head": "v2"}]})
    with pytest.raises(NotConnected):
        gen_random(two, {"e1": 1, "e2": 1}, 0, mode="sum")


def test_zero_caps_give_zero_rep():
    d = canonical_diagram("A0", 1)
    res = gen_random(d, {"e1": 0, "e2": 0}, 0, mode="sum")
    assert res.rep.dims == {"e1": 0, "e2": 0}
    assert res.key.blocks == ()
    gen = gen_random(d, {"e1": 0, "e2": 0}, 0)
    assert gen.rep.dims == {"e1": 0, "e2": 0}


# Canonical output of a fixed list of calls, on canonical diagrams and on
# relabelled copies with some wires against the traversal; the digest pins
# the generated bytes across versions, not only within one process.
_GOLDEN_DIAGRAMS = {
    "A0": canonical_diagram("A0", 3),
    "A1": canonical_diagram("A1", 4),
    "P": canonical_diagram("P", 3),
    "J": canonical_diagram("J", 2),
    "J1": canonical_diagram("J", 1),
    "P-relabelled": validate_diagram({"vertices": ["a", "m", "z", "k"], "wires": [
        {"id": "q", "tail": "z", "head": "m"},
        {"id": "b", "tail": "a", "head": "k"},
        {"id": "x", "tail": "m", "head": "k"}]}),
    "J-relabelled": validate_diagram({"vertices": ["s", "r", "t"], "wires": [
        {"id": "w2", "tail": "t", "head": "s"},
        {"id": "w9", "tail": "r", "head": "s"},
        {"id": "w1", "tail": "t", "head": "r"}]}),
    "A1-relabelled": validate_diagram({"vertices": ["y", "c"], "wires": [
        {"id": "f", "tail": "y", "head": None},
        {"id": "g", "tail": "c", "head": "y"}]}),
}
_GOLDEN_CALLS = [
    ("A0", {"e1": 2, "e2": 3, "e3": 2, "e4": 1}, 5, "sum"),
    ("A1", {"e1": 2, "e2": 2, "e3": 3, "e4": 2}, 11, "sum"),
    ("P", {"e1": 3, "e2": 2}, 3, "sum"),
    ("J", {"e1": 4, "e2": 3}, 7, "sum"),
    ("J1", {"e1": 4}, 9, "sum"),
    ("P-relabelled", {"q": 2, "b": 3, "x": 2}, 21, "sum"),
    ("J-relabelled", {"w1": 3, "w2": 2, "w9": 3}, 4, "sum"),
    ("A1-relabelled", {"f": 3, "g": 2}, 8, "sum-of-indecomposables"),
    ("A0", {"e1": 0, "e2": 0, "e3": 0, "e4": 0}, 1, "sum"),
    ("J", {"e1": 2, "e2": 1}, 42, "generic"),
    ("P-relabelled", {"q": 1, "b": 2, "x": 2}, 6, "generic"),
]
_GOLDEN_SHA256 = "ac6b765426d4d4351c5e45a99e381e90d23afc166e60af27b3455a69fffbf928"


def test_generated_bytes_are_pinned():
    records = []
    for name, dims, seed, mode in _GOLDEN_CALLS:
        res = gen_random(_GOLDEN_DIAGRAMS[name], dims, seed, mode)
        rec = {"rep": _rep_record(res.rep)}
        if res.key is not None:
            shape = shape_of(_GOLDEN_DIAGRAMS[name])
            rec["key"] = _decomposition_record(res.key, shape)
        records.append(rec)
    digest = hashlib.sha256(canonical_json(records).encode()).hexdigest()
    assert digest == _GOLDEN_SHA256
