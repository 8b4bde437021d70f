"""The Python API boundary: any input gives a value or a TdrError."""

from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from tdr.errors import NotASubdiagram, TdrError, UnknownWire
from tdr.exactalg import Matrix, Poly
from tdr.generate import gen_random
from tdr.representation import (
    apply_group_element,
    cokernel,
    is_morphism,
    kernel,
    monodromy,
    validate_representation,
)
from tdr.semigraph import subdiagram_ref

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3),
    st.floats(-2, 2, allow_nan=False), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))
_ENTRY = st.one_of(
    st.sampled_from([0, 1, -3, "-2/3", "1/0", "x", float("nan"), float("inf"),
                     0.5, 1j, None]), _JUNK)


@st.composite
def _diagrams(draw):
    """A diagram record on up to three vertices, or (rarely) junk."""
    if draw(st.integers(0, 9)) == 9:
        return draw(_JUNK)
    vs = draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True))
    end = st.sampled_from(vs + [None])
    return {"vertices": vs, "wires": [
        {"id": f"e{i}", "tail": draw(end), "head": draw(end)}
        for i in range(draw(st.integers(0, 3)))]}


def _wires(diagram):
    return diagram.get("wires", []) if isinstance(diagram, dict) else []


def _break_dims(draw, dims):
    """The dims with one key or value broken, or junk whole, or as they are."""
    broken = draw(st.sampled_from(["none", "none", "value", "extra", "missing",
                                   "whole"]))
    if broken == "value" and dims:
        dims[draw(st.sampled_from(sorted(dims)))] = draw(_JUNK)
    elif broken == "extra":
        dims["zz"] = 1
    elif broken == "missing" and dims:
        del dims[draw(st.sampled_from(sorted(dims)))]
    elif broken == "whole":
        dims = draw(_JUNK)
    return dims


@st.composite
def _rep_args(draw):
    diagram = draw(_diagrams())
    wires = _wires(diagram)
    dims = {w["id"]: draw(st.integers(0, 2)) for w in wires}
    vs = diagram.get("vertices", []) if isinstance(diagram, dict) else []
    tensors = {}
    for v in vs if isinstance(vs, list) else []:
        # mostly the shape the dims ask for, sometimes a wrong one
        rows = prod(dims[w["id"]] for w in wires if w["tail"] == v)
        cols = prod(dims[w["id"]] for w in wires if w["head"] == v)
        if draw(st.integers(0, 4)) == 4:
            rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        grid = [[draw(st.sampled_from([0, 1, "1/2", "-4"])) for _ in range(cols)]
                for _ in range(rows)]
        tensors[v] = grid if draw(st.booleans()) else Matrix.zeros(rows, cols)
    broken = draw(st.sampled_from(["none", "none", "entry", "ragged", "cell",
                                   "extra", "whole"]))
    grids = sorted(v for v, m in tensors.items() if isinstance(m, list) and m)
    if broken == "entry" and grids:
        row = tensors[draw(st.sampled_from(grids))][0]
        if row:
            row[0] = draw(_ENTRY)
    elif broken == "ragged" and grids:
        tensors[draw(st.sampled_from(grids))][0].append(1)
    elif broken == "cell" and tensors:
        tensors[draw(st.sampled_from(sorted(tensors)))] = draw(_JUNK)
    elif broken == "extra":
        tensors["zz"] = [[1]]
    elif broken == "whole":
        tensors = draw(_JUNK)
    return diagram, _break_dims(draw, dims), tensors


def test_validate_representation_fuzzed_inputs_never_trace_back():
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_rep_args())
    def check(args):
        try:
            validate_representation(*args)
        except TdrError:
            pass

    check()


@st.composite
def _gen_args(draw):
    diagram = draw(_diagrams())
    dims = _break_dims(draw, {w["id"]: draw(st.integers(0, 3))
                              for w in _wires(diagram)})
    seed = draw(_JUNK) if draw(st.integers(0, 3)) == 3 \
        else draw(st.integers(-5, 2 ** 70))
    mode = draw(_JUNK) if draw(st.integers(0, 3)) == 3 else draw(
        st.sampled_from(["generic", "sum", "sum-of-indecomposables"]))
    return diagram, dims, seed, mode


def test_gen_random_fuzzed_inputs_never_trace_back():
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_gen_args())
    def check(args):
        try:
            gen_random(*args)
        except TdrError:
            pass

    check()


_SIDE = st.one_of(st.integers(-1, 3), _JUNK)


@st.composite
def _grids(draw):
    """Mostly a rows x cols grid of entries, sometimes junk whole."""
    if draw(st.integers(0, 9)) == 9:
        return draw(_JUNK)
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return [[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)]


def test_matrix_and_poly_fuzzed_inputs_never_trace_back():
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_SIDE, _SIDE, _grids(), st.one_of(
        st.lists(_ENTRY, max_size=4), _JUNK))
    def check(rows, cols, data, coeffs):
        for build, args in ((Matrix, (rows, cols, data)), (Poly, (coeffs,))):
            try:
                build(*args)
            except TdrError:
                pass

    check()


def test_matrix_builders_fuzzed_keep_the_constructors_rules():
    """Matrix.identity, Matrix.zeros and scale: a TdrError, or a matrix
    whose sides are ints >= 0 (and for scale, the constructor's c I)."""
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_SIDE, _SIDE, _ENTRY)
    def check(rows, cols, c):
        for build, args in (("identity", (rows,)), ("zeros", (rows, cols)),
                            ("scale", (Matrix.identity(2), c))):
            try:
                m = getattr(Matrix, build)(*args)
            except TdrError:
                continue
            assert all(type(n) is int and n >= 0 for n in (m.rows, m.cols))
            if build == "scale":
                assert m == Matrix(2, 2, [[c, 0], [0, c]])

    check()


_R = validate_representation(
    {"vertices": ["a", "b"], "wires": [
        {"id": "e1", "tail": "a", "head": "b"},
        {"id": "e2", "tail": "b", "head": "a"}]},
    {"e1": 2, "e2": 1}, {"a": [[1], [2]], "b": [[1, 0]]})


@st.composite
def _maps(draw):
    """A map on _R's wires: matrices, mostly of the right shape, or junk."""
    if draw(st.integers(0, 9)) == 9:
        return draw(_JUNK)
    phi = {}
    for wid, dim in _R.dims.items():
        rows, cols = dim, dim
        if draw(st.integers(0, 3)) == 3:
            rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        phi[wid] = Matrix(rows, cols, [[draw(st.integers(-2, 2))
                                         for _ in range(cols)]
                                        for _ in range(rows)])
    broken = draw(st.sampled_from(["none", "none", "value", "extra",
                                   "missing"]))
    if broken == "value":
        phi[draw(st.sampled_from(sorted(phi)))] = draw(_JUNK)
    elif broken == "extra":
        phi["zz"] = draw(st.one_of(_JUNK, st.just(Matrix.identity(1))))
    elif broken == "missing":
        del phi[draw(st.sampled_from(sorted(phi)))]
    return phi


def test_wire_maps_fuzzed_never_trace_back():
    """Base changes and morphisms: apply_group_element, is_morphism,
    kernel and cokernel."""
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_maps())
    def check(phi):
        for act in (apply_group_element, is_morphism, kernel, cokernel):
            try:
                act(phi, _R) if act is apply_group_element else act(phi, _R, _R)
            except TdrError:
                pass

    check()


@pytest.mark.parametrize("call, error", [
    (lambda: subdiagram_ref(_R.diagram, [["a"]]), NotASubdiagram),
    (lambda: subdiagram_ref(_R.diagram, ["a"], wires=[["e1"]]), NotASubdiagram),
    (lambda: monodromy(_R, ["e1"]), UnknownWire),
], ids=["vertex", "wire", "monodromy-base"])
def test_unhashable_ids_are_unknown(call, error):
    with pytest.raises(error):
        call()

