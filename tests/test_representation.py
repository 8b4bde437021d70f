import functools
import hashlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from tdr.errors import (
    ContractionTooLarge,
    DiagramMismatch,
    InvalidDims,
    NotAMorphism,
    NotALoop,
    NotClosed,
    NotMonic,
    NotQuiverLike,
    RestrictedDimViolation,
    ShapeMismatch,
    SingularMatrix,
    SizeMismatch,
    TdrError,
    TensorTooLarge,
    UnknownVertexRef,
    UnknownWire,
)
from tdr.decompose import StringBlock, canonical_diagram, monodromy, realize
from tdr.exactalg import (
    Matrix,
    column_space,
    det,
    inverse,
    new_columns,
    nullspace,
    rank,
    rref,
)
from tdr.generate import gen_random
from tdr.rational import ONE, ZERO, Q
from tdr.representation import (
    TENSOR_CAP,
    Representation,
    _compile,
    _kernel_basis,
    _plan,
    apply_group_element,
    cokernel,
    contract,
    direct_sum,
    dual_rep,
    hom_dim,
    intertwining_system,
    is_morphism,
    kernel,
    reverse_wire_rep,
    split_functor,
    tensor_product,
    unit,
    validate_representation,
    vertex_shape,
    vertex_shapes,
)
from tdr.semigraph import (
    TensorDiagram,
    Wire,
    connected_components,
    neighborhood,
    reverse_wire,
    slot_keys,
    slots,
    split_vertex,
    validate_diagram,
)

J1 = validate_diagram({"vertices": ["v1"], "wires": [
    {"id": "e1", "tail": "v1", "head": "v1"}]})
J2 = validate_diagram({"vertices": ["v1", "v2"], "wires": [
    {"id": "e1", "tail": "v1", "head": "v2"},
    {"id": "e2", "tail": "v2", "head": "v1"}]})
P2 = validate_diagram({"vertices": ["v1", "v2"], "wires": [
    {"id": "e1", "tail": "v1", "head": "v2"}]})
A01 = validate_diagram({"vertices": ["v1"], "wires": [
    {"id": "e1", "tail": None, "head": "v1"},
    {"id": "e2", "tail": "v1", "head": None}]})


def j1_rep(m):
    return validate_representation(J1, {"e1": m.rows}, {"v1": m})


def rand_invertible(rng, n):
    while True:
        m = Matrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


def test_validate_checks_shapes():
    with pytest.raises(ShapeMismatch):
        validate_representation(J1, {"e1": 2}, {"v1": Matrix.identity(3)})
    with pytest.raises(ShapeMismatch):
        validate_representation(J1, {"e1": 2}, {})
    with pytest.raises(ShapeMismatch):
        validate_representation(J1, {}, {"v1": Matrix.identity(2)})
    with pytest.raises(ShapeMismatch):
        validate_representation(J1, {"e1": "2"}, {"v1": Matrix.identity(2)})
    # a valid one reads back as its diagram and dims, not its tensors
    assert repr(j1_rep(Matrix.identity(2))) == (
        "Representation(TensorDiagram(vertices=('v1',), wires=(Wire(id='e1', "
        "tail='v1', head='v1'),)), dims={'e1': 2})")


def test_vertex_shape_convention():
    # rows run over outgoing wires, cols over incoming, lex wire order,
    # first wire slowest; empty side has size 1
    r = validate_representation(
        P2, {"e1": 3},
        {"v1": Matrix.from_rows([[1], [2], [3]]),
         "v2": Matrix.from_rows([[4, 5, 6]])})
    assert r.tensors["v1"].cols == 1
    assert r.tensors["v2"].rows == 1


def test_apply_group_element_is_left_action():
    rng = random.Random(5)
    m = Matrix.from_rows([[1, 2], [3, 4]])
    r = j1_rep(m)
    ident = {"e1": Matrix.identity(2)}
    assert apply_group_element(ident, r) == r
    g = {"e1": rand_invertible(rng, 2)}
    h = {"e1": rand_invertible(rng, 2)}
    lhs = apply_group_element(g, apply_group_element(h, r))
    rhs = apply_group_element({"e1": g["e1"] @ h["e1"]}, r)
    assert lhs == rhs
    # a loop slot conjugates
    assert apply_group_element(g, r).tensors["v1"] == \
        g["e1"] @ m @ inverse(g["e1"])
    with pytest.raises(SizeMismatch):
        apply_group_element({"e1": Matrix.identity(3)}, r)
    with pytest.raises(SizeMismatch):
        apply_group_element({}, r)


@pytest.mark.parametrize("dims", [
    {}, {"e1": 1, "e9": 1}, {"e1": -1}, {"e1": True}, {"e1": 1.5},
    {"e1": "2"}, [("e1", 1)]])
def test_bad_dims_are_refused_alike(dims):
    """vertex_shapes is the one dims check, for reps and generated ones."""
    assert issubclass(InvalidDims, ShapeMismatch)
    assert issubclass(SizeMismatch, ShapeMismatch)
    with pytest.raises(InvalidDims):
        validate_representation(J1, dims, {"v1": Matrix.identity(1)})
    for mode in ("generic", "sum"):
        with pytest.raises(InvalidDims):
            gen_random(J1, dims, 0, mode)


@pytest.mark.parametrize("phi", [
    {}, {"e1": Matrix.identity(3)}, {"e1": [[1, 0], [0, 1]]}, {"e1": 1},
    [Matrix.identity(2)]])
def test_bad_maps_are_refused_alike(phi):
    """_phi_checked is the one check of a map, for base changes and
    morphisms: a one-line SizeMismatch, never an AttributeError."""
    r = j1_rep(Matrix.from_rows([[1, 2], [3, 4]]))
    with pytest.raises(SizeMismatch, match="e1 needs a 2x2 Matrix|mapping"):
        apply_group_element(phi, r)
    for morphism_op in (is_morphism, kernel, cokernel):
        with pytest.raises(SizeMismatch,
                           match="e1 needs a 2x2 Matrix|mapping"):
            morphism_op(phi, r, r)


def test_float_shaped_tensor_is_refused():
    # a 1.0 x 1.0 tensor equals its int shape, so it would pass
    # validate_representation and end decompose in a TypeError
    with pytest.raises(ShapeMismatch):
        validate_representation(J1, {"e1": 1},
                                {"v1": Matrix(1.0, 1.0, [[2]])})


def test_direct_sum_blocks():
    r1 = j1_rep(Matrix.from_rows([[2]]))
    r2 = j1_rep(Matrix.from_rows([[3]]))
    s = direct_sum(r1, r2)
    assert s.dims == {"e1": 2}
    assert s.tensors["v1"] == Matrix.from_rows([[2, 0], [0, 3]])


def test_direct_sum_stacks_covectors():
    # vertices with slots on one side only stack rather than pad
    u1 = validate_representation(
        P2, {"e1": 1}, {"v1": Matrix.from_rows([[2]]),
                        "v2": Matrix.from_rows([[1]])})
    u2 = validate_representation(
        P2, {"e1": 1}, {"v1": Matrix.from_rows([[3]]),
                        "v2": Matrix.from_rows([[1]])})
    s = direct_sum(u1, u2)
    assert s.tensors["v1"] == Matrix.from_rows([[2], [3]])
    assert s.tensors["v2"] == Matrix.from_rows([[1, 1]])
    with pytest.raises(DiagramMismatch):
        direct_sum(u1, j1_rep(Matrix.identity(1)))


def test_tensor_product_and_unit():
    r1 = j1_rep(Matrix.from_rows([[2]]))
    r2 = j1_rep(Matrix.from_rows([[3]]))
    t = tensor_product(r1, r2)
    assert t.dims == {"e1": 1}
    assert contract(t) == 6
    u = unit(J2)
    assert contract(u) == 1


def test_dual_is_involution():
    r = validate_representation(
        P2, {"e1": 2},
        {"v1": Matrix.from_rows([[1], [2]]), "v2": Matrix.from_rows([[3, 4]])})
    dd = dual_rep(dual_rep(r))
    assert dd == r
    d1 = dual_rep(r)
    assert d1.diagram.wire("e1").tail == "v2"
    assert d1.tensors["v1"] == Matrix.from_rows([[1, 2]])


def test_contract_oracles():
    r = j1_rep(Matrix.from_rows([[1, 2], [3, 4]]))
    assert contract(r) == 5  # trace
    p = validate_representation(
        P2, {"e1": 2},
        {"v1": Matrix.from_rows([[1], [2]]), "v2": Matrix.from_rows([[3, 4]])})
    assert contract(p) == 11  # scalar product
    with pytest.raises(NotClosed):
        contract(validate_representation(
            A01, {"e1": 1, "e2": 1}, {"v1": Matrix.from_rows([[1]])}))


def test_monodromy_order_and_trace():
    a = Matrix.from_rows([[1, 2], [3, 4]])   # at v2: e1 -> e2
    b = Matrix.from_rows([[0, 1], [1, 0]])   # at v1: e2 -> e1
    r = validate_representation(J2, {"e1": 2, "e2": 2}, {"v1": b, "v2": a})
    assert monodromy(r, "e1") == b @ a
    assert monodromy(r, "e2") == a @ b
    assert contract(r) == 5
    with pytest.raises(NotALoop):
        monodromy(validate_representation(
            P2, {"e1": 1}, {"v1": Matrix.from_rows([[1]]),
                            "v2": Matrix.from_rows([[1]])}), "e1")


def test_reverse_wire_rep():
    r = validate_representation(
        A01, {"e1": 2, "e2": 1}, {"v1": Matrix.from_rows([[1, 2]])})
    rv = reverse_wire_rep(r, "e1")
    assert rv.diagram.wire("e1").tail == "v1"
    assert rv.tensors["v1"] == Matrix.from_rows([[1], [2]])
    assert reverse_wire_rep(rv, "e1") == r


def test_is_morphism_and_hom_dim():
    r2 = j1_rep(Matrix.from_rows([[2]]))
    r3 = j1_rep(Matrix.from_rows([[3]]))
    assert is_morphism({"e1": Matrix.identity(1)}, r2, r2)
    assert not is_morphism({"e1": Matrix.identity(1)}, r2, r3)
    assert hom_dim(r2, r2) == 1
    assert hom_dim(r2, r3) == 0
    nil = j1_rep(Matrix.from_rows([[0, 1], [0, 0]]))
    assert hom_dim(nil, nil) == 2  # I and N commute with N


def test_intertwining_system_vanishes_on_intertwiners():
    """phi_out m1 = m2 phi_in, unknowns vec'd row-major at their offsets."""
    rng = random.Random(17)
    for _ in range(30):
        r, c, r2 = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3)
        m1 = Matrix.from_rows([[Q(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(c)] for _ in range(r)]) if r \
            else Matrix.zeros(0, c)
        phi_in = rand_invertible(rng, c)
        phi_out = Matrix.from_ints(r2, r, [[rng.randint(-2, 2) for _ in range(r)]
                                           for _ in range(r2)])
        m2 = phi_out @ m1 @ inverse(phi_in)
        system = intertwining_system([(m1, m2, 0, c * c)], c * c + r2 * r)
        unknowns = Matrix.column(
            [x for row in phi_in.entries() + phi_out.entries() for x in row])
        assert (system.rows, system.cols) == (r2 * c, c * c + r2 * r)
        assert (system @ unknowns).is_zero()
        # a square whose two sides share one unknown: the commutant of m
        m = rand_invertible(rng, c)
        basis = nullspace(intertwining_system([(m, m, 0, 0)], c * c))
        assert basis.cols == hom_dim(j1_rep(m), j1_rep(m))


def test_cokernel_and_kernel():
    r1 = j1_rep(Matrix.from_rows([[2]]))
    r2 = j1_rep(Matrix.from_rows([[2, 0], [0, 3]]))
    phi = {"e1": Matrix.from_rows([[1], [0]])}
    coker, psi = cokernel(phi, r1, r2)
    assert coker.dims == {"e1": 1}
    assert coker.tensors["v1"] == Matrix.from_rows([[3]])
    assert (psi["e1"] @ phi["e1"]).is_zero()
    ker, incl = kernel(phi, r1, r2)
    assert ker.dims == {"e1": 0}
    with pytest.raises(NotMonic):
        cokernel({"e1": Matrix.zeros(2, 1)}, r1, r2)
    with pytest.raises(NotAMorphism):
        cokernel({"e1": Matrix.from_rows([[0], [1]])}, r1, r2)


def test_kernel_matches_direct_nullspace():
    # projection morphism: kernel dims equal nullspace dims per wire
    r2 = j1_rep(Matrix.from_rows([[2, 0], [0, 2]]))
    r1 = j1_rep(Matrix.from_rows([[2]]))
    psi = {"e1": Matrix.from_rows([[1, 0]])}
    assert is_morphism(psi, r2, r1)
    ker, incl = kernel(psi, r2, r1)
    assert ker.dims["e1"] == nullspace(psi["e1"]).cols == 1
    assert rank(incl["e1"]) == 1
    assert (psi["e1"] @ incl["e1"]).is_zero()


def _digest(items):
    """sha256 of matrices as (rows, cols, den, nums), other items as repr."""
    return hashlib.sha256(repr([
        (x.rows, x.cols, x.den, x.nums) if isinstance(x, Matrix) else x
        for x in items]).encode()).hexdigest()


def _rep_items(r):
    return [sorted(r.dims.items())] + [r.tensors[v] for v in sorted(r.tensors)]


def test_inverse_and_kernel_bases_are_pinned():
    """The bases inverse, kernel and cokernel return, hashed.  inverse runs
    on 400 seeded square matrices (n = 0..5, singular ones included, where
    the error type is hashed); kernel and cokernel run on 120 base-changed
    block inclusions r1 -> r1 + r2 and projections r1 + r2 -> r2 on A0 and J,
    dims 0 included, hashing the rep tensors, psi and the inclusions."""
    rng = random.Random(1818)
    inv = []
    for _ in range(400):
        n = rng.randrange(6)
        m = Matrix(n, n, [[Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                           for _ in range(n)] for _ in range(n)])
        if n > 1 and rng.random() < 0.3:   # a repeated row: singular
            i, j = rng.sample(range(n), 2)
            m = m.submatrix([j if k == i else k for k in range(n)], range(n))
        try:
            inv.append(inverse(m))
        except SingularMatrix as exc:
            inv.append(type(exc).__name__)
    ker = []
    for k in range(120):
        family = ("A0", "J")[k % 2]
        d = canonical_diagram(family, rng.randint(1, 3))
        parts = [gen_random(d, {w.id: rng.randrange(3) for w in d.wires},
                             seed=rng.randrange(10 ** 6))[0] for _ in range(2)]
        dims = {wid: parts[0].dims[wid] + parts[1].dims[wid] for wid in parts[0].dims}
        g = {wid: rand_invertible(rng, n) for wid, n in dims.items()}
        total = apply_group_element(g, direct_sum(*parts))
        inc, proj = {}, {}
        for wid, n in dims.items():
            a = parts[0].dims[wid]
            inc[wid] = g[wid] @ Matrix.identity(n).submatrix(range(n), range(a))
            proj[wid] = Matrix.identity(n).submatrix(range(a, n), range(n)) @ inverse(g[wid])
        coker, psi = cokernel(inc, parts[0], total)
        kr, incl = kernel(proj, total, parts[1])
        kpsi, kincl = kernel(psi, total, coker)
        for r, maps in ((coker, psi), (kr, incl), (kpsi, kincl)):
            ker += _rep_items(r) + [maps[wid] for wid in sorted(maps)]
    assert (_digest(inv), _digest(ker)) == (
        "9c0d890a11822999d6dc905520559aa291c6a352681316b59b7320bb8329bf03",
        "b244e24af12eea06eebf9a506272e4e58e8b4cc5114d6c49dc6741008d21c463")


def test_split_functor_merges_dim1_wire():
    d = validate_diagram({"vertices": ["v1", "v2"], "wires": [
        {"id": "e1", "tail": None, "head": "v1"},
        {"id": "e2", "tail": "v1", "head": "v2"},
        {"id": "e3", "tail": "v2", "head": None}]})
    r = validate_representation(
        d, {"e1": 2, "e2": 1, "e3": 2},
        {"v1": Matrix.from_rows([[1, 2]]),
         "v2": Matrix.from_rows([[3], [4]])})
    merged = split_functor(r, "e2")
    assert set(merged.dims) == {"e1", "e3"}
    assert merged.tensors["v1+v2"] == Matrix.from_rows([[3, 6], [4, 8]])
    with pytest.raises(RestrictedDimViolation):
        split_functor(validate_representation(
            d, {"e1": 1, "e2": 2, "e3": 1},
            {"v1": Matrix.from_rows([[1], [0]]),
             "v2": Matrix.from_rows([[1, 0]])}), "e2")
    # a fresh wire of dimension 1 must join two distinct vertices
    for ends in (("v1", None), (None, "v1"), ("v1", "v1")):
        bad = validate_diagram({"vertices": ["v1"], "wires": [
            {"id": "f", "tail": ends[0], "head": ends[1]}]})
        r = gen_random(bad, {"f": 1}, seed=1)[0]
        with pytest.raises(RestrictedDimViolation,
                           match="^wire f must join two distinct vertices$"):
            split_functor(r, "f")


def _rand_rep(rng, d, dims):
    tensors = {}
    for v, nb in slots(d).items():
        rows, cols = vertex_shape(nb, dims, v)
        tensors[v] = Matrix(rows, cols, tuple(
            tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols))
            for _ in range(rows)))
    return validate_representation(d, dims, tensors)


def _largest_tensor(d, dims):
    return max(rows * cols for rows, cols in
               (vertex_shape(nb, dims, v) for v, nb in slots(d).items()))


def test_reindexing_functors_on_wild_diagrams():
    """Seeded wild diagrams with vertices of three or more slots, loops,
    dangling wires and dimensions 0 and 1: wire reversal is an involution
    commuting with direct sums, and reversing every wire is the dual; on
    connected closed networks contraction ignores wire orientation, adds
    over direct sums,
    multiplies over tensor products and survives merging a split vertex
    back along its dimension-1 wire."""
    rng = random.Random(20261018)
    seen = set()
    for case in range(60):
        closed = case % 2 == 0
        while True:
            vs = [f"v{i}" for i in range(rng.randint(1, 3))]
            ends = vs if closed else vs + [None]
            wires = []
            for i in range(rng.randint(3, 4)):
                tail = rng.choice(ends)
                head = rng.choice(vs if tail is None else ends)
                wires.append({"id": f"e{i}", "tail": tail, "head": head})
            d = validate_diagram({"vertices": vs, "wires": wires})
            # direct sums add contractions only on a connected network
            if not closed or len(connected_components(d)) == 1:
                break
        while True:
            dims1, dims2 = ({w.id: rng.choice([0, 1, 1, 2, 3]) for w in d.wires}
                            for _ in range(2))
            if _largest_tensor(d, {w: a * b for (w, a), b in
                                   zip(dims1.items(), dims2.values())}) <= 400:
                break
        r1, r2 = _rand_rep(rng, d, dims1), _rand_rep(rng, d, dims2)
        seen |= {"loop" for w in d.wires if w.is_loop()}
        seen |= {"dangling" for w in d.wires if w.is_dangling()}
        seen |= {f"dim {x}" for x in dims1.values()}
        seen |= {"3 slots" for v in d.vertices
                 if sum((w.tail == v) + (w.head == v) for w in d.wires) >= 3}

        summed = direct_sum(r1, r2)
        every = r1
        for w in d.wires:
            rev = reverse_wire_rep(r1, w.id)
            assert reverse_wire_rep(rev, w.id) == r1, (case, w.id)
            assert reverse_wire_rep(summed, w.id) == direct_sum(
                rev, reverse_wire_rep(r2, w.id)), (case, w.id)
            every = reverse_wire_rep(every, w.id)
        assert every == dual_rep(r1), case
        if not closed:
            continue
        value = contract(r1)
        for w in d.wires:
            assert contract(reverse_wire_rep(r1, w.id)) == value, (case, w.id)
        assert contract(summed) == value + contract(r2), case
        assert contract(tensor_product(r1, r2)) == value * contract(r2), case
        for v in d.vertices:
            slots = ([(w.id, "tail") for w in d.wires if w.tail == v]
                     + [(w.id, "head") for w in d.wires if w.head == v])
            if len(slots) < 2:
                continue
            rng.shuffle(slots)
            cut = rng.randint(1, len(slots) - 1)
            ds, fresh = split_vertex(d, v, slots[:cut], slots[cut:])
            rs = _rand_rep(rng, ds, {**dims1, fresh: 1})
            assert contract(split_functor(rs, fresh)) == contract(rs), (case, v)
    assert seen >= {"loop", "dangling", "3 slots", "dim 0", "dim 1"}


def test_reversing_a_set_of_wires_is_the_single_reversals_in_one_pass():
    """On seeded reps of wild diagrams with loops and dangling wires,
    reversing any set of wires at once equals reversing its wires one at a
    time: a repeated id is reversed once, every wire at once is the dual,
    and no ids leave r as it is."""
    rng = random.Random(20261019)
    seen = set()
    for case in range(40):
        vs = [f"v{i}" for i in range(rng.randint(1, 3))]
        wires = []
        for i in range(rng.randint(3, 5)):
            tail = rng.choice(vs + [None])
            head = rng.choice(vs if tail is None else vs + [None])
            wires.append({"id": f"e{i}", "tail": tail, "head": head})
        d = validate_diagram({"vertices": vs, "wires": wires})
        while True:
            dims = {w.id: rng.choice([0, 1, 2, 3]) for w in d.wires}
            if _largest_tensor(d, dims) <= 400:
                break
        r = _rand_rep(rng, d, dims)
        seen |= {"loop" for w in d.wires if w.is_loop()}
        seen |= {"dangling" for w in d.wires if w.is_dangling()}
        seen |= {"3 slots" for v in d.vertices
                 if sum((w.tail == v) + (w.head == v) for w in d.wires) >= 3}
        ids = [w.id for w in d.wires]
        for _ in range(4):
            subset = rng.sample(ids, rng.randint(1, len(ids)))
            one_by_one = r
            for wid in subset:
                one_by_one = reverse_wire_rep(one_by_one, wid)
            assert reverse_wire_rep(r, *subset) == one_by_one, (case, subset)
            assert reverse_wire_rep(r, *subset, subset[0]) == one_by_one, case
        assert reverse_wire_rep(r, *ids) == dual_rep(r), case
        assert reverse_wire_rep(r) == r, case
    assert seen >= {"loop", "dangling", "3 slots"}


def test_dual_rep_transposes_every_tensor():
    """dual_rep, the reversal of every wire, is the dual by its definition:
    the diagram with every wire reversed and every tensor transposed; on
    seeded reps with loops, dangling and endpointless wires and dim 0."""
    rng = random.Random(8128)
    seen = set()
    for case in range(300):
        vs = [f"v{i}" for i in range(rng.randint(1, 3))]
        wires = [{"id": f"e{i}", "tail": rng.choice(vs + [None]),
                  "head": rng.choice(vs + [None])} for i in range(rng.randint(0, 4))]
        d = validate_diagram({"vertices": vs, "wires": wires})
        while True:
            dims = {w.id: rng.choice([0, 1, 2, 3]) for w in d.wires}
            if _largest_tensor(d, dims) <= 400:
                break
        r = _rand_rep(rng, d, dims)
        dual = dual_rep(r)
        assert dual.diagram == reverse_wire(d, *dims), case
        assert dual.dims == r.dims, case
        assert dual.tensors == {v: m.transpose() for v, m in r.tensors.items()}, case
        seen |= {"loop" for w in d.wires if w.is_loop()}
        seen |= {"dangling" for w in d.wires if w.is_dangling()}
        seen |= {"endpointless" for w in d.wires if w.tail is None and w.head is None}
        seen |= {"dim 0" for x in dims.values() if x == 0}
    assert seen >= {"loop", "dangling", "endpointless", "dim 0"}


def _two_table_reversal(r, *wids):
    """reverse_wire_rep through both whole slot tables, before and after,
    with each new shape from vertex_shape: the oracle of the reversal that
    reads only the touched vertices' slots."""
    rep = sys.modules["tdr.representation"]
    d = rep.rep_diagram(r)
    dd, wids = reverse_wire(d, *wids), set(wids)
    tensors = dict(r.tensors)
    flip = {"tail": "head", "head": "tail"}
    before, after = slots(d), slots(dd)
    for v in {e for w in dd.wires if w.id in wids
              for e in (w.tail, w.head)} - {None}:
        old = slot_keys(before[v])
        strides = dict(zip(old, rep._strides([r.dims[x] for x, _ in old])))
        new = slot_keys(after[v])
        offs = rep._offsets([r.dims[x] for x, _ in new],
                            [strides[(x, flip[s]) if x in wids else (x, s)]
                             for x, s in new])
        tensors[v] = rep._moved(r.tensors[v], offs,
                                *vertex_shape(after[v], r.dims, v))
    return rep._rep(dd, dict(r.dims), tensors)


def _wild_rep(rng):
    """A seeded rep of a 1-3-vertex diagram with loops, dangling and
    endpointless wires, at dims 0-3 and at most 400 entries a tensor."""
    vs = [f"v{i}" for i in range(rng.randint(1, 3))]
    wires = [{"id": f"e{i}", "tail": rng.choice(vs + [None]),
              "head": rng.choice(vs + [None])} for i in range(rng.randint(1, 5))]
    d = validate_diagram({"vertices": vs, "wires": wires})
    while True:
        dims = {w.id: rng.choice([0, 1, 2, 3]) for w in d.wires}
        if _largest_tensor(d, dims) <= 400:
            return _rand_rep(rng, d, dims)


def test_reversal_agrees_with_the_two_table_reversal():
    """On 300 seeded reps with loops, dangling and endpointless wires and
    dims 0-3, reversing a random set of wires, a set with an id listed
    twice, and every wire (dual_rep) gives the two-table reversal's rep."""
    rng = random.Random(3601)
    seen = set()
    for case in range(300):
        r = _wild_rep(rng)
        d, ids = r.diagram, list(r.dims)
        subset = rng.sample(ids, rng.randint(1, len(ids)))
        twice = subset + [rng.choice(subset)]
        for got, want in [(reverse_wire_rep(r, *subset), _two_table_reversal(r, *subset)),
                          (reverse_wire_rep(r, *twice), _two_table_reversal(r, *twice)),
                          (dual_rep(r), _two_table_reversal(r, *ids))]:
            assert got == want, (case, subset)
            assert all(got.tensors[v].nums == want.tensors[v].nums for v in d.vertices)
        seen |= {"loop" for w in d.wires if w.is_loop()}
        seen |= {"dangling" for w in d.wires if w.is_dangling()}
        seen |= {"endpointless" for w in d.wires if w.tail is None and w.head is None}
        seen |= {"dim 0" for x in r.dims.values() if x == 0}
        seen |= {"3 slots" for nb in slots(d).values()
                 if len(nb.outgoing) + len(nb.incoming) >= 3}
    assert seen == {"loop", "dangling", "endpointless", "dim 0", "3 slots"}


def test_reversal_reads_no_slot_table_and_no_vertex_shape(monkeypatch):
    """reverse_wire_rep reads the touched vertices' slots in one pass over
    the wires and takes each shape as the product of its dims: it builds
    no slot table of the whole diagram and makes no vertex_shape check."""
    rep = sys.modules["tdr.representation"]
    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for name in ("slots", "vertex_shape"):
        monkeypatch.setattr(rep, name, counting(name, getattr(rep, name)))
    rng = random.Random(3602)
    reps = [_wild_rep(rng) for _ in range(20)]
    vertex_shapes(reps[0].diagram, reps[0].dims)
    assert set(calls) == {"slots", "vertex_shape"}   # the counters count
    calls.clear()
    for r in reps:
        reverse_wire_rep(r, *list(r.dims)[:1])
        dual_rep(r)
    assert calls == []


@pytest.mark.parametrize("bad", [("e1", "zz"), ("zz", "e2"), (["e1"],),
                                 ("e2", {"e1": 1})])
def test_reversal_refuses_an_unknown_or_unhashable_id(bad):
    r = validate_representation(
        A01, {"e1": 2, "e2": 1}, {"v1": Matrix.from_rows([[1, 2]])})
    with pytest.raises(UnknownWire):
        reverse_wire(A01, *bad)
    with pytest.raises(UnknownWire):
        reverse_wire_rep(r, *bad)


def test_direct_sum_of_many_summands_is_the_binary_fold():
    """A loop, a dangling wire and a vertex with no slots, where the
    scalars add; one summand is its own sum, and a summand on another
    diagram is refused wherever it comes."""
    d = validate_diagram({"vertices": ["a", "b", "c"], "wires": [
        {"id": "l", "tail": "a", "head": "a"},
        {"id": "x", "tail": "a", "head": "b"},
        {"id": "o", "tail": "b", "head": None}]})
    rng = random.Random(15)
    for case in range(8):
        r1, r2, r3 = (_rand_rep(rng, d, {w.id: rng.randint(0, 2)
                                         for w in d.wires}) for _ in range(3))
        summed = direct_sum(r1, r2, r3)
        assert summed == direct_sum(direct_sum(r1, r2), r3), case
        assert summed.tensors["c"].entries() == ((sum(
            r.tensors["c"].entries()[0][0] for r in (r1, r2, r3)),),), case
        assert direct_sum(r1) == r1, case
    other = j1_rep(Matrix.identity(1))
    for reps in ((r1, other), (r1, r2, other), (r1, other, r3)):
        with pytest.raises(DiagramMismatch):
            direct_sum(*reps)


def test_dimension_zero_wire_contracts_to_zero_without_allocating():
    # two vertices joined by a dimension-0 wire and four wires of dimension 6:
    # both tensors are empty, and the sum over the empty wire is 0
    d = validate_diagram({"vertices": ["a", "b"], "wires": [
        {"id": f"w{i}", "tail": "a", "head": "b"} for i in range(5)]})
    dims = {"w0": 0, **{f"w{i}": 6 for i in range(1, 5)}}
    r = validate_representation(d, dims, {"a": Matrix.zeros(0, 1),
                                          "b": Matrix.zeros(1, 0)})
    tracemalloc.start()
    try:
        value = contract(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 0 and type(value) is type(ZERO)
    assert peak < 1 << 20


def _complete_rep(n, dim):
    """K_n with one wire v_i -> v_j per pair i < j, every entry 1."""
    vs = [f"v{i}" for i in range(n)]
    d = validate_diagram({"vertices": vs, "wires": [
        {"id": f"e{i}{j}", "tail": vs[i], "head": vs[j]}
        for i in range(n) for j in range(i + 1, n)]})
    dims = {w.id: dim for w in d.wires}
    tensors = {}
    for v, nb in slots(d).items():
        rows, cols = vertex_shape(nb, dims, v)
        tensors[v] = Matrix(rows, cols, ((ONE,) * cols,) * rows)
    return validate_representation(d, dims, tensors)


def test_tensor_cap_is_checked_before_allocation():
    # one vertex with 12 dangling wires: dims 2 give 4096 entries, while
    # dims 4 (a direct sum or tensor product of two) give 4^12 > TENSOR_CAP;
    # a base change at v acts slot by slot, so it is no larger than v
    d = validate_diagram({"vertices": ["v"], "wires": [
        {"id": f"e{i:02}", "tail": "v", "head": None} for i in range(12)]})
    dims = {w.id: 2 for w in d.wires}
    r = validate_representation(d, dims, {"v": Matrix(4096, 1, ((ONE,),) * 4096)})
    eye = {w: Matrix.identity(2) for w in dims}
    assert 4 ** 12 > TENSOR_CAP
    refused = (lambda: direct_sum(r, r), lambda: tensor_product(r, r),
               lambda: validate_representation(
                   d, {w: 4 for w in dims}, {"v": Matrix.zeros(1, 1)}))
    held = (lambda: apply_group_element(eye, r) == r,
            lambda: is_morphism(eye, r, r))
    for build in refused + held:
        tracemalloc.start()
        try:
            if build in held:
                assert build()
            else:
                with pytest.raises(TensorTooLarge):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _rand_invertible_q(rng, n):
    while True:
        m = Matrix(n, n, tuple(tuple(Q(rng.randint(-3, 3), rng.randint(1, 3))
                                     for _ in range(n)) for _ in range(n)))
        if det(m) != 0:
            return m


def test_a_base_change_on_three_dim_16_slots_needs_no_kronecker_product():
    """One vertex with three outgoing dangling wires of dim 16 holds 4096
    entries, while the Kronecker product of its three slot maps would hold
    4096^2, past TENSOR_CAP: acting slot by slot, g and its inverse act and
    the morphism check holds within 4 MB."""
    rng = random.Random(16)
    d = validate_diagram({"vertices": ["v"], "wires": [
        {"id": w, "tail": "v", "head": None} for w in "abc"]})
    r = _rand_rep(rng, d, {w: 16 for w in "abc"})
    g = {w: _rand_invertible_q(rng, 16) for w in "abc"}
    g_inv = {w: inverse(m) for w, m in g.items()}
    assert 4096 ** 2 > TENSOR_CAP
    tracemalloc.start()
    try:
        moved = apply_group_element(g, r)
        back = apply_group_element(g_inv, moved)
        held = is_morphism(g, r, moved)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == r and moved != r and held
    assert peak < 4 << 20, peak


def _kron(mats):
    return functools.reduce(Matrix.kron, mats, Matrix.identity(1))


def test_base_change_and_morphism_check_match_the_kronecker_formula():
    """On 300 seeded wild reps (1-3 vertices, 1-4 wires, loops, dangling
    wires, dims 0-3), apply_group_element is (kron g_out) M (kron g_in^-1)
    and is_morphism compares (kron phi_out) M1 with M2 (kron phi_in), each
    Kronecker product over a vertex's slots in slot order.  phi maps
    between reps of different dims, and is a morphism (an inclusion into
    or a projection from a direct sum with a zero rep, or a base change)
    or any map."""
    rng = random.Random(20261021)
    seen = set()
    for case in range(300):
        vs = [f"v{i}" for i in range(rng.randint(1, 3))]
        wires = []
        for i in range(rng.randint(1, 4)):
            tail = rng.choice(vs + [None])
            head = rng.choice(vs if tail is None else vs + [None])
            wires.append({"id": f"e{i}", "tail": tail, "head": head})
        d = validate_diagram({"vertices": vs, "wires": wires})
        while True:
            dims1, dims2 = ({w.id: rng.randint(0, 3) for w in d.wires}
                            for _ in range(2))
            if _largest_tensor(d, {w: dims1[w] + dims2[w] for w in dims1}) <= 400:
                break
        r, s = _rand_rep(rng, d, dims1), _rand_rep(rng, d, dims2)
        zero = Representation(d, dims2, {v: Matrix.zeros(*shape) for v, shape
                                         in vertex_shapes(d, dims2).items()})
        table = slots(d)
        seen |= {"loop" for w in d.wires if w.is_loop()}
        seen |= {"dangling" for w in d.wires if w.is_dangling()}
        seen |= {f"dim {x}" for x in dims1.values()}
        seen |= {"3 slots" for nb in table.values()
                 if len(nb.outgoing) + len(nb.incoming) >= 3}

        g = {w: _rand_invertible_q(rng, k) for w, k in dims1.items()}
        moved = apply_group_element(g, r)
        for v, nb in table.items():
            assert moved.tensors[v] == (
                _kron([g[w] for w in nb.outgoing]) @ r.tensors[v]
                @ _kron([inverse(g[w]) for w in nb.incoming])), (case, v)

        kind = ("any", "inclusion", "projection", "base change")[case % 4]
        if kind == "any":
            r1, r2 = r, s
            phi = {w: Matrix(dims2[w], dims1[w], tuple(
                tuple(Q(rng.randint(-2, 2), rng.randint(1, 2))
                      for _ in range(dims1[w]))
                for _ in range(dims2[w]))) for w in dims1}
        elif kind == "inclusion":
            r1, r2 = r, direct_sum(r, zero)
            phi = {w: Matrix.identity(dims1[w] + dims2[w]).submatrix(
                range(dims1[w] + dims2[w]), range(dims1[w])) for w in dims1}
        elif kind == "projection":
            r1, r2 = direct_sum(r, zero), r
            phi = {w: Matrix.identity(dims1[w] + dims2[w]).submatrix(
                range(dims1[w]), range(dims1[w] + dims2[w])) for w in dims1}
        else:
            r1, r2, phi = r, moved, g
        want = all(_kron([phi[w] for w in nb.outgoing]) @ r1.tensors[v]
                   == r2.tensors[v] @ _kron([phi[w] for w in nb.incoming])
                   for v, nb in table.items())
        assert is_morphism(phi, r1, r2) == want, (case, kind)
        assert want or kind == "any", (case, kind)
        if r1.dims != r2.dims:
            seen.add(f"{'a' if want else 'no'} morphism, dims differ")
    assert seen >= {"loop", "dangling", "3 slots", "dim 0", "dim 3",
                    "a morphism, dims differ", "no morphism, dims differ"}


def test_split_functor_caps_the_merged_tensor():
    # endpoint tensors of 4096 and 2048 entries merge into 2^23 entries
    d = validate_diagram({"vertices": ["a", "b"], "wires": [
        {"id": "f", "tail": "a", "head": "b"},
        {"id": "x", "tail": "a", "head": None},
        {"id": "y", "tail": "b", "head": None}]})
    r = validate_representation(d, {"f": 1, "x": 4096, "y": 2048}, {
        "a": Matrix.zeros(4096, 1), "b": Matrix.zeros(2048, 1)})
    tracemalloc.start()
    try:
        with pytest.raises(TensorTooLarge):
            split_functor(r, "f")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dims, side", [
    ({"e1": 0, "e2": TENSOR_CAP + 1}, "rows"),
    ({"e1": TENSOR_CAP + 1, "e2": 0}, "columns")])
def test_tensor_cap_bounds_each_side(dims, side):
    # v1 is e2 x e1, so it holds no entry however long its other side is
    d = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": None, "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None}]})
    with pytest.raises(TensorTooLarge, match=f"{TENSOR_CAP + 1} {side}"):
        validate_representation(d, dims, {})


def test_a_vertex_without_entries_is_capped_on_its_nonzero_dims():
    # incoming wires of dims 2^40 and 0 give a 1 x 0 tensor, but 2^40 rows
    # once wire a is reversed, and a 2^40 x 0 arc in decompose
    d = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "a", "tail": None, "head": "v1"},
        {"id": "b", "tail": None, "head": "v1"}]})
    m = Matrix.zeros(1, 0)
    tracemalloc.start()
    try:
        with pytest.raises(TensorTooLarge, match=f"product {1 << 40} of"):
            validate_representation(d, {"a": 1 << 40, "b": 0}, {"v1": m})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_needle_with_a_dim_0_loop_is_refused_past_the_cap():
    # the one over-refusal of the rule: a loop of dim 0 empties both sides
    # in every layout, so the vertex holds nothing, yet the product of its
    # nonzero dims is the dangling wire's, over the cap
    d = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None}]})
    empty = {"v1": Matrix.zeros(0, 0)}
    with pytest.raises(TensorTooLarge, match=f"product {TENSOR_CAP + 1} of"):
        validate_representation(d, {"e1": 0, "e2": TENSOR_CAP + 1}, empty)
    assert validate_representation(d, {"e1": 0, "e2": TENSOR_CAP}, empty)


_QUIVER_LIKE = [J1, J2, A01, validate_diagram({"vertices": ["v1", "v2"], "wires": [
    {"id": "e1", "tail": None, "head": "v1"},
    {"id": "e2", "tail": "v1", "head": "v2"},
    {"id": "e3", "tail": "v2", "head": None}]})]


def _functor_outputs(rng, d, r, s):
    """(name, build) of every functor output on r and s, reps of d; kernel
    and cokernel of the summands' projection and inclusion when d is
    quiver-like."""
    ids = [w.id for w in d.wires]
    g = {w: rand_invertible(rng, k) for w, k in r.dims.items()}
    yield from [
        ("direct_sum", lambda: direct_sum(r, s)),
        ("direct_sum", lambda: direct_sum(r, r, r)),
        ("tensor_product", lambda: tensor_product(r, s)),
        ("tensor_product", lambda: tensor_product(r, r)),
        ("reverse_wire_rep",
         lambda: reverse_wire_rep(r, *rng.sample(ids, len(ids) // 2 + 1))),
        ("dual_rep", lambda: dual_rep(r)),
        ("apply_group_element", lambda: apply_group_element(g, r))]
    for w in d.wires:
        if w.tail is not None and w.head not in (None, w.tail) and r.dims[w.id] == 1:
            yield "split_functor", lambda w=w.id: split_functor(r, w)
    if d in _QUIVER_LIKE:
        def coker():
            incl, _, t = _summands(r, s)
            return cokernel(incl, r, t)[0]

        def ker():
            _, proj, t = _summands(r, s)
            return kernel(proj, t, s)[0]
        yield from [("cokernel", coker), ("kernel", ker)]


def _summands(r, s):
    """The inclusion r -> t and the projection t -> s of t = r + s, and t."""
    t = direct_sum(r, s)
    eye = {w: Matrix.identity(k) for w, k in t.dims.items()}
    return ({w: m.submatrix(range(m.rows), range(r.dims[w])) for w, m in eye.items()},
            {w: m.submatrix(range(r.dims[w], m.rows), range(m.rows))
             for w, m in eye.items()}, t)


def test_functor_outputs_pass_the_constructor(small_cap):
    """Under a cap of 64, on seeded reps with dimension-0 wires, loops and
    three-slot vertices, each functor either refuses its output
    (TensorTooLarge) or gives a rep that the constructor, which functors
    skip, accepts: no layout a functor picks or dims it grows break the
    size rule.  The tracemalloc tests above check, at the real cap, that
    the refusals come before allocation."""
    rng = random.Random(20261020)
    seen = set()
    for case in range(200):
        if case % 4 == 0:
            d = _QUIVER_LIKE[case // 4 % len(_QUIVER_LIKE)]
        else:
            vs = [f"v{i}" for i in range(rng.randint(1, 3))]
            wires = []
            for i in range(rng.randint(2, 4)):
                tail = rng.choice(vs + [None])
                head = rng.choice(vs if tail is None else vs + [None])
                wires.append({"id": f"e{i}", "tail": tail, "head": head})
            d = validate_diagram({"vertices": vs, "wires": wires})
        try:
            r, s = (_rand_rep(rng, d, {w.id: rng.choice(pick) for w in d.wires})
                    for pick in ([0, 1, 1, 2, 3, 4], [0, 1, 2]))
        except TensorTooLarge:
            continue
        seen |= {"loop" for w in d.wires if w.is_loop()}
        seen |= {"dim 0" for k in r.dims.values() if k == 0}
        seen |= {"3 slots" for nb in slots(d).values()
                 if len(nb.outgoing) + len(nb.incoming) >= 3}
        for name, build in _functor_outputs(rng, d, r, s):
            try:
                out = build()
            except TensorTooLarge as e:
                assert "over the cap" in str(e), (case, name)
                seen.add(f"{name} refused")
                continue
            assert Representation(out.diagram, dict(out.dims),
                                  dict(out.tensors)) == out, (case, name)
            seen.add(name)
    assert seen >= {"loop", "dim 0", "3 slots", "direct_sum", "tensor_product",
                    "reverse_wire_rep", "dual_rep", "apply_group_element",
                    "split_functor", "cokernel", "kernel", "direct_sum refused",
                    "tensor_product refused", "split_functor refused"}


def test_contract_cap_is_checked_before_allocation():
    # every merge order on K_8 with dimension-4 wires needs a node of at
    # least 4^15 entries, far over the cap; the plan alone must refuse it
    r = _complete_rep(8, 4)
    assert 4 ** 15 > TENSOR_CAP
    tracemalloc.start()
    try:
        with pytest.raises(ContractionTooLarge):
            contract(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # K_4 with the same wires stays under the cap: every index sum is 4^6
    assert contract(_complete_rep(4, 4)) == 4 ** 6


def _brute_contract(d, dims, tensors):
    """Sum over every index assignment of the product of tensor entries."""
    wires = [w.id for w in d.wires]
    entries = {v: m.entries() for v, m in tensors.items()}
    total = Fraction(0)
    for idx in itertools.product(*(range(dims[w]) for w in wires)):
        at = dict(zip(wires, idx))
        term = Fraction(1)
        for v in d.vertices:
            nb = neighborhood(d, v)
            row = col = 0
            for w in nb.outgoing:
                row = row * dims[w] + at[w]
            for w in nb.incoming:
                col = col * dims[w] + at[w]
            term *= entries[v][row][col]
        total += term
    return total


def test_contract_agrees_with_brute_force():
    """Seeded closed networks on 1-4 vertices with loops, multi-wires,
    dimensions 0-3, several components and slot-less scalar vertices:
    contract equals the plain sum over index assignments."""
    rng = random.Random(5150)
    seen = set()
    for case in range(120):
        vs = [f"v{i}" for i in range(rng.randint(1, 4))]
        wires = [{"id": f"e{i}", "tail": rng.choice(vs), "head": rng.choice(vs)}
                 for i in range(rng.randint(0, 5))]
        d = validate_diagram({"vertices": vs, "wires": wires})
        dims = {w.id: rng.choice([0, 1, 2, 2, 3, 3]) for w in d.wires}
        r = _rand_rep(rng, d, dims)
        want = _brute_contract(d, dims, r.tensors)
        value = contract(r)
        assert value == want and type(value) is type(ZERO), case
        ends = [(w.tail, w.head) for w in d.wires]
        seen |= {"loop" for t, h in ends if t == h}
        seen |= {"multi-wire" for i, e in enumerate(ends)
                 if e in ends[:i] or e[::-1] in ends[:i]}
        seen |= {f"dim {x}" for x in dims.values()}
        seen |= {"scalar vertex" for v in vs if all(v not in e for e in ends)}
        if len(connected_components(d)) > 1:
            seen.add("components")
        if want:
            seen.add("nonzero")
    assert seen >= {"loop", "multi-wire", "dim 0", "dim 1", "dim 2", "dim 3",
                    "components", "scalar vertex", "nonzero"}


def _plain_greedy(dims, held):
    """contract's plan by a plain greedy over every pair of nodes: trace
    each vertex's loops, then merge, of the nodes that share a wire, the two
    whose merged node has fewest entries, ties to the least sorted ids.
    Also tells whether some merge broke a tie."""
    held = {v: list(ws) for v, ws in held.items()}
    steps, largest, tied = [], 0, False

    def merge(a, b, wids):
        nonlocal largest
        held[a] = [w for w in held[a] + held.pop(b, []) if w not in wids]
        steps.append((a, b, wids))
        largest = max(largest, math.prod(dims[w] for w in held[a]))

    for v in list(held):
        loops = [w for i, w in enumerate(held[v]) if w in held[v][i + 1:]]
        if loops:
            merge(v, None, loops)
    while True:
        sizes = {}
        for a, b in itertools.combinations(sorted(held), 2):
            shared = [w for w in held[a] if w in held[b]]
            if shared:
                sizes[a, b] = math.prod(dims[w] for w in held[a] + held[b]
                                        if w not in shared)
        if not sizes:
            return steps, largest, tied
        best = min(sizes.values())
        tied |= list(sizes.values()).count(best) > 1
        a, b = min(p for p, size in sizes.items() if size == best)
        merge(a, b, [w for w in held[a] if w in held[b]])


def test_contract_plan_is_the_plain_greedy():
    """Seeded closed networks on 1-8 vertices, with loops, parallel wires,
    several components and equal-size ties, and complete graphs: contract's
    plan merges the same pairs over the same wires as a plain greedy over
    all node pairs, and refuses (ContractionTooLarge) exactly when that
    greedy's largest node is over the cap."""
    rng = random.Random(4711)
    seen = set()
    for case in range(300):
        vs = [f"v{i}" for i in range(rng.randint(1, 8))]
        ends = [(rng.choice(vs), rng.choice(vs))
                for _ in range(rng.randint(0, 14))]
        pick = rng.choice([[2], [1, 2, 3, 4], [8, 16], [16, 32, 64]])
        if case % 4 == 0:   # complete graphs: dense enough to pass the cap
            ends, pick = list(itertools.combinations(vs, 2)), [3, 4]
        d = validate_diagram({"vertices": vs, "wires": [
            {"id": f"e{i}", "tail": t, "head": h} for i, (t, h) in enumerate(ends)]})
        dims = {w.id: rng.choice(pick) for w in d.wires}
        held = {v: list(nb.outgoing + nb.incoming) for v, nb in slots(d).items()}
        steps, largest, tied = _plain_greedy(dims, held)
        assert _plan(dims, held) == (steps, largest), case
        seen |= {"tie"} if tied else set()
        seen |= {"loop" for t, h in ends if t == h}
        seen |= {"parallel" for i, e in enumerate(ends)
                 if e in ends[:i] or e[::-1] in ends[:i]}
        if len(connected_components(d)) > 1:
            seen.add("components")
        try:
            shapes = {v: vertex_shape(nb, dims, v) for v, nb in slots(d).items()}
        except TensorTooLarge:
            continue
        if largest > TENSOR_CAP or largest <= 1 << 12:
            r = Representation(d, dims, {v: Matrix.zeros(*shape)
                                         for v, shape in shapes.items()})
            if largest > TENSOR_CAP:
                with pytest.raises(ContractionTooLarge):
                    contract(r)
                seen.add("too large")
            else:
                assert contract(r) == 0, case
                seen.add("contracted")
    assert seen >= {"tie", "loop", "parallel", "components", "too large",
                    "contracted"}


def _closed_diagram(rng, names):
    """A seeded closed diagram on 1-4 vertices whose wires have these ids,
    in canonical order, with loops and parallel wires likely."""
    vs = [f"v{i}" for i in range(rng.randint(1, 4))]
    return validate_diagram({"vertices": vs, "wires": [
        {"id": w, "tail": rng.choice(vs), "head": rng.choice(vs)}
        for w in names]})


def test_contract_cache_serves_each_network_its_own_program():
    """Seeded closed networks, each contracted cold (its program compiled)
    and then warm (a cache hit), both equal to the brute-force sum: one
    diagram under two dims maps, the same wires with one reversed, and a
    hand-built TensorDiagram listing its wires e2 before e10, out of
    canonical order, with tensors indexed in that order."""
    rng = random.Random(2121)
    seen = set()
    for case in range(40):
        d = _closed_diagram(rng, ["e2", "e10", "e3", "e11"][:rng.randint(2, 4)])
        dims1 = {w.id: rng.randint(1, 3) for w in d.wires}
        dims2 = dict(dims1, e2=dims1["e2"] % 3 + 1)
        hand = TensorDiagram(d.vertices, tuple(sorted(
            d.wires, key=lambda w: int(w.id[1:]))))
        assert hand.wires != d.wires
        # reversing a loop leaves the diagram as it is
        flips = [reverse_wire(d, w.id) for w in d.wires if not w.is_loop()]
        _compile.cache_clear()
        for net, dims in [(d, dims1), (d, dims2), (hand, dims1)] + [
                (net, dims1) for net in flips[:1]]:
            r = _rand_rep(rng, net, dims)
            assert r.diagram is net
            want = _brute_contract(net, dims, r.tensors)
            for warm in (False, True):
                hits = _compile.cache_info().hits
                assert contract(r) == want, (case, net, dims, warm)
                assert _compile.cache_info().hits == hits + warm, (case, warm)
            seen |= {"loop" for w in net.wires if w.is_loop()}
            seen |= {"nonzero"} if want else set()
        seen |= {"reversed"} if flips else set()
        ends = [(w.tail, w.head) for w in d.wires]
        seen |= {"parallel" for i, e in enumerate(ends)
                 if e in ends[:i] or e[::-1] in ends[:i]}
    assert seen == {"loop", "parallel", "nonzero", "reversed"}


def test_contract_cap_is_checked_on_every_call():
    """A plan over the cap raises ContractionTooLarge on the first and the
    second call alike: the cache keeps no program for it, and neither call
    allocates a node."""
    r = _complete_rep(8, 4)
    _compile.cache_clear()
    for call in range(2):
        tracemalloc.start()
        try:
            with pytest.raises(ContractionTooLarge):
                contract(r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, call
    assert _compile.cache_info().currsize == 0


_J2_STRING = realize("J", 2, StringBlock(1, 3))   # dims e1: 2, e2: 1


def _with(r, dims=None, tensors=None, diagram=None):
    return Representation(diagram or r.diagram,
                          r.dims if dims is None else dims,
                          r.tensors if tensors is None else tensors)


_EYE5 = {v: Matrix.identity(5) for v in _J2_STRING.tensors}
_BAD_REPS = {
    "identities-5x5": (lambda: _with(_J2_STRING, tensors=_EYE5),
                       ShapeMismatch),
    "missing-tensor": (lambda: _with(_J2_STRING, tensors={
        "v2": _J2_STRING.tensors["v2"]}), ShapeMismatch),
    "extra-tensor": (lambda: _with(_J2_STRING, tensors={
        **_J2_STRING.tensors, "zz": Matrix.identity(1)}), ShapeMismatch),
    "tensor-not-a-matrix": (lambda: _with(_J2_STRING, tensors={
        **_J2_STRING.tensors, "v1": [[1], [0]]}), ShapeMismatch),
    "tensors-not-a-mapping": (lambda: _with(_J2_STRING, tensors=[]),
                              ShapeMismatch),
    "bool-dim": (lambda: _with(_J2_STRING, dims={"e1": 2, "e2": True}),
                 InvalidDims),
    "negative-dim": (lambda: _with(_J2_STRING, dims={"e1": 2, "e2": -1}),
                     InvalidDims),
    "float-dim": (lambda: _with(_J2_STRING, dims={"e1": 2, "e2": 1.0}),
                  InvalidDims),
    "missing-dim": (lambda: _with(_J2_STRING, dims={"e1": 2}), InvalidDims),
    "unknown-dim": (lambda: _with(_J2_STRING, dims={"e1": 2, "e2": 1,
                                                    "e3": 1}),
                    InvalidDims),
    "unhashable-dim": (lambda: _with(_J2_STRING, dims={"e1": 2, "e2": [1]}),
                       InvalidDims),
    "unknown-endpoint": (lambda: _with(_J2_STRING, diagram=TensorDiagram(
        ("v1", "v2"), (Wire("e1", "v1", "v2"), Wire("e2", "v2", "zz")))),
        UnknownVertexRef),
    "unhashable-vertex-id": (lambda: _with(_J2_STRING, diagram=TensorDiagram(
        ("v1", ["v2"]), (Wire("e1", "v1", "v2"), Wire("e2", "v2", "v1")))),
        UnknownVertexRef),
    "unhashable-wire-id": (lambda: _with(_J2_STRING, diagram=TensorDiagram(
        ("v1", "v2"), (Wire("e1", "v1", "v2"), Wire(["e2"], "v2", "v1")))),
        UnknownWire),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("case", sorted(_BAD_REPS))
def test_contract_refuses_a_bad_rep_cold_and_warm(case, warm):
    """contract on a hand-built J_2 rep whose tensors, dims or diagram do
    not fit raises its TdrError, never a value or a KeyError, whether or
    not the valid rep's program is cached: True and 1.0 equal 1, and must
    not find the program built for it."""
    build, error = _BAD_REPS[case]
    _compile.cache_clear()
    if warm:
        assert contract(_J2_STRING) == 0
        assert contract(_with(_J2_STRING, dims={"e1": 2, "e2": 1})) == 0
    with pytest.raises(error):
        contract(build())
    assert issubclass(error, TdrError)


def test_contract_of_an_unhashable_valid_diagram_is_its_value():
    """A hand-built diagram that validate_diagram accepts but that cannot
    key the cache (its vertices are a list) is contracted afresh."""
    r = _rand_rep(random.Random(7), J2, {"e1": 2, "e2": 3})
    listed = _with(r, diagram=TensorDiagram(list(J2.vertices), J2.wires))
    assert contract(listed) == contract(r) == _brute_contract(J2, r.dims, r.tensors)


def test_contract_is_invariant_under_base_change():
    """README property 5 on seeded closed networks with loops and parallel
    wires: a change of basis on every wire leaves the value unchanged, and
    the base-changed twin, having the same diagram and dims, is a cache
    hit."""
    rng = random.Random(1705)
    seen = set()
    for case in range(60):
        d = _closed_diagram(rng, [f"e{i}" for i in range(rng.randint(1, 5))])
        dims = {w.id: rng.randint(1, 3) for w in d.wires}
        r = _rand_rep(rng, d, dims)
        g = {w: rand_invertible(rng, n) for w, n in dims.items()}
        twin = apply_group_element(g, r)
        _compile.cache_clear()
        value = contract(r)
        hits = _compile.cache_info().hits
        assert contract(twin) == value, case
        assert _compile.cache_info().hits == hits + 1, case
        ends = [(w.tail, w.head) for w in d.wires]
        seen |= {"loop" for t, h in ends if t == h}
        seen |= {"parallel" for i, e in enumerate(ends)
                 if e in ends[:i] or e[::-1] in ends[:i]}
        seen |= {"nonzero"} if value else set()
    assert seen == {"loop", "parallel", "nonzero"}


def test_contract_gathers_afresh_what_a_program_does_not_keep(monkeypatch):
    """A program keeps at most _KEPT gather offsets and makes the rest on
    each call; with none kept, seeded closed networks still contract, cold
    and warm, to the brute-force sum."""
    import tdr.representation as representation

    monkeypatch.setattr(representation, "_KEPT", 0)
    rng = random.Random(1212)
    afresh = 0
    for case in range(30):
        d = _closed_diagram(rng, [f"e{i}" for i in range(rng.randint(2, 5))])
        dims = {w.id: rng.randint(1, 3) for w in d.wires}
        r = _rand_rep(rng, d, dims)
        want = _brute_contract(d, dims, r.tensors)
        _compile.cache_clear()
        assert contract(r) == want == contract(r), case
        steps = _compile(d, tuple(dims.items()))
        afresh += sum(type(v) is tuple for step in steps for v in step[3:])
    _compile.cache_clear()
    assert afresh > 0


# a hand-built network that lists its wires out of canonical order: a =
# (out e2, e1), b = (in e2, e5), c = (out e5, in e1), its tensors indexed in
# the order e2, e1, e5
_HAND = TensorDiagram(("a", "b", "c"), (
    Wire("e2", "a", "b"), Wire("e1", "a", "c"), Wire("e5", "c", "b")))


def test_reversing_a_wire_of_a_hand_built_network_keeps_its_value():
    """Reversal keeps the diagram's wire order, so the tensors it does not
    touch (a's, here) are read as they were: every reversal of one wire,
    and of all of them, contracts to the brute-force value."""
    r = _rand_rep(random.Random(2929), _HAND, {"e2": 3, "e1": 2, "e5": 2})
    value = _brute_contract(_HAND, r.dims, r.tensors)
    assert value != 0
    for wids in (["e5"], ["e1"], ["e2"], ["e2", "e1", "e5"]):
        flipped = reverse_wire_rep(r, *wids)
        assert contract(flipped) == value, wids
        assert [w.id for w in flipped.diagram.wires] == ["e2", "e1", "e5"]
    assert contract(dual_rep(r)) == value


def test_reversal_and_dual_are_involutions_on_a_hand_built_network():
    r = _rand_rep(random.Random(2930), _HAND, {"e2": 3, "e1": 2, "e5": 2})
    for w in ("e2", "e1", "e5"):
        assert reverse_wire_rep(reverse_wire_rep(r, w), w) == r, w
    assert dual_rep(dual_rep(r)) == r


def test_kernel_on_a_hand_built_j2_lives_on_its_diagram():
    """The kernel of the zero map on a J_2 that lists e2 before e1 lives on
    that diagram, and its inclusion is a morphism into the rep."""
    d = TensorDiagram(("v1", "v2"), (Wire("e2", "v2", "v1"), Wire("e1", "v1", "v2")))
    r = _rand_rep(random.Random(2931), d, {"e2": 2, "e1": 3})
    zero = {w: Matrix.zeros(n, n) for w, n in r.dims.items()}
    ker, incl = kernel(zero, r, r)
    assert is_morphism(incl, ker, r)
    assert ker.diagram == d
    assert ker.dims == r.dims


def test_split_functor_on_a_hand_built_network_keeps_its_value():
    """Merging b and c over the dimension-1 wire e5 leaves a's tensor, and
    the wire order it is indexed in, untouched: the value stays."""
    r = _rand_rep(random.Random(2932), _HAND, {"e2": 3, "e1": 2, "e5": 1})
    value = _brute_contract(_HAND, r.dims, r.tensors)
    assert value != 0
    merged = split_functor(r, "e5")
    assert contract(merged) == value
    assert [w.id for w in merged.diagram.wires] == ["e2", "e1"]


def _three_step_coker(phi, r1, r2):
    """The cokernel pieces in three steps: a basis of im(phi_e)
    (column_space), the unit vectors that grow its span (new_columns), and
    psi_e the rows of inverse([basis | section]) past the basis."""
    sec, psi = {}, {}
    for wid in r1.dims:
        im = column_space(phi[wid])
        eye = Matrix.identity(r2.dims[wid])
        sec[wid] = eye.submatrix(range(eye.rows), new_columns(im, eye))
        psi[wid] = inverse(im.hstack(sec[wid])).submatrix(
            range(im.cols, eye.rows), range(eye.rows))
    d = r1.diagram
    tensors = {v: psi[b] @ r2.tensors[v] @ sec[a]
               for v, ((a,), (b,)) in slots(d).items()}
    return Representation(d, {w: s.cols for w, s in sec.items()}, tensors), psi


def _three_step_kernel(phi, r1, r2):
    c, psi = _three_step_coker({w: phi[w].transpose() for w in r1.dims},
                               dual_rep(r2), dual_rep(r1))
    return dual_rep(c), {w: m.transpose() for w, m in psi.items()}


def _seeded_morphisms(rng, count):
    """(family, phi, source, target): phi = g2 (incl of r into r + u)
    (proj of r + s onto r) g1^-1 between base-changed sums on A0, A1, P
    and J, every fifth one the zero map; s is zero on every third one, so
    that phi is monic there."""
    for k in range(count):
        family = ("A0", "A1", "P", "J")[k % 4]
        d = canonical_diagram(family, rng.randint(1, 3))
        r, s, u = (gen_random(d, {w.id: 0 if i == 1 and k % 3 == 0
                                   else rng.randint(0, 3) for w in d.wires},
                              seed=rng.randrange(10 ** 6))[0] for i in range(3))
        t1, t2 = direct_sum(r, s), direct_sum(r, u)
        g1 = {w: rand_invertible(rng, n) for w, n in t1.dims.items()}
        g2 = {w: rand_invertible(rng, n) for w, n in t2.dims.items()}
        phi = {}
        for w, n1 in t1.dims.items():
            a, n2 = r.dims[w], t2.dims[w]
            if k % 5 == 0:
                phi[w] = Matrix.zeros(n2, n1)
            else:
                phi[w] = (g2[w] @ Matrix.identity(n2).submatrix(range(n2), range(a))
                          @ Matrix.identity(n1).submatrix(range(a), range(n1))
                          @ inverse(g1[w]))
        yield (family, phi, apply_group_element(g1, t1),
               apply_group_element(g2, t2))


def test_cokernel_and_kernel_agree_with_the_three_step_formula():
    """On 200 seeded morphisms, zero maps and rank-deficient ones included,
    kernel and (on the monic ones) cokernel return the same rep and maps as
    the three-step formula; A1 and P are refused (NotQuiverLike)."""
    rng = random.Random(2933)
    seen = set()
    for family, phi, r1, r2 in _seeded_morphisms(rng, 200):
        if family in ("A1", "P"):
            with pytest.raises(NotQuiverLike):
                kernel(phi, r1, r2)
            continue
        ker = kernel(phi, r1, r2)
        assert ker == _three_step_kernel(phi, r1, r2), family
        monic = all(rank(phi[w]) == n for w, n in r1.dims.items())
        if monic:
            assert cokernel(phi, r1, r2) == _three_step_coker(phi, r1, r2)
        seen |= {"monic"} if monic else {"deficient"}
        seen |= {"zero map"} if all(m.is_zero() for m in phi.values()) else set()
        seen |= {"kernel"} if any(ker[0].dims.values()) else set()
        seen |= {"dim 0"} if 0 in r2.dims.values() else set()
    assert seen == {"monic", "deficient", "zero map", "kernel", "dim 0"}


def test_cokernel_takes_one_rref_per_wire(spy):
    """A kernel reads its basis off one RREF per wire, and a cokernel, the
    dual of a kernel, too, with no column_space, new_columns or inverse."""
    rng = random.Random(2934)
    d = canonical_diagram("J", 3)
    r = gen_random(d, {w.id: 2 for w in d.wires}, seed=5)[0]
    t = direct_sum(r, gen_random(d, {w.id: 1 for w in d.wires}, seed=6)[0])
    g = {w: rand_invertible(rng, n) for w, n in t.dims.items()}
    phi = {w: g[w] @ Matrix.identity(3).submatrix(range(3), range(2)) for w in g}
    t = apply_group_element(g, t)
    calls = spy(rref, column_space, new_columns, inverse)
    cokernel(phi, r, t)
    kernel(phi, r, t)
    assert calls == {"rref": 6, "column_space": 0, "new_columns": 0, "inverse": 0}


def test_kernel_multiplies_only_the_rows_it_keeps(monkeypatch):
    """At each vertex the kernel's tensor is T1's rows at the identity rows
    of the inclusion, times the inclusion: the left factor of every product
    by an inclusion has the kernel's dimension in rows, not T1's."""
    rng = random.Random(2939)
    d = canonical_diagram("J", 3)
    r = gen_random(d, {w.id: 2 for w in d.wires}, seed=7)[0]
    t = direct_sum(r, gen_random(d, {w.id: 1 for w in d.wires}, seed=8)[0])
    g = {w: rand_invertible(rng, n) for w, n in t.dims.items()}
    psi = {w: Matrix.identity(3).submatrix(range(2), range(3)) @ inverse(g[w])
           for w in g}
    t = apply_group_element(g, t)
    products = []
    matmul = Matrix.__matmul__

    def recorded(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", recorded)
    ker, incl = kernel(psi, t, r)
    monkeypatch.undo()
    assert ker.dims == {w: 1 for w in t.dims}
    assert is_morphism(incl, ker, t)
    lefts = [a for a, b in products if any(b is m for m in incl.values())]
    assert len(lefts) == 3
    assert [(a.rows, a.cols) for a in lefts] == [(1, 3)] * 3


def test_cokernel_of_a_half_rank_map_at_dim_60_is_quick():
    """The cokernel of the inclusion of a dim-30 summand into a base-changed
    J_1 rep of dim 60 finishes within 1 s."""
    rng = random.Random(2935)
    r, u = (j1_rep(Matrix.from_rows([[rng.randint(-2, 2) for _ in range(30)]
                                     for _ in range(30)])) for _ in range(2))
    g = {"e1": rand_invertible(rng, 60)}
    t = apply_group_element(g, direct_sum(r, u))
    phi = {"e1": g["e1"] @ Matrix.identity(60).submatrix(range(60), range(30))}
    t0 = time.perf_counter()
    coker, psi = cokernel(phi, r, t)
    elapsed = time.perf_counter() - t0
    assert coker.dims == {"e1": 30} and (psi["e1"] @ phi["e1"]).is_zero()
    assert elapsed < 1.0, elapsed


def test_kernel_of_a_half_rank_projection_at_dim_60_is_quick():
    """The kernel of the projection from a base-changed J_1 rep of dim 60
    onto its dim-30 cokernel, built as in the cokernel test above,
    finishes within 1 s."""
    rng = random.Random(2935)
    r, u = (j1_rep(Matrix.from_rows([[rng.randint(-2, 2) for _ in range(30)]
                                     for _ in range(30)])) for _ in range(2))
    g = {"e1": rand_invertible(rng, 60)}
    t = apply_group_element(g, direct_sum(r, u))
    phi = {"e1": g["e1"] @ Matrix.identity(60).submatrix(range(60), range(30))}
    coker, psi = cokernel(phi, r, t)
    t0 = time.perf_counter()
    ker, incl = kernel(psi, t, coker)
    elapsed = time.perf_counter() - t0
    assert ker.dims == {"e1": 30} and (psi["e1"] @ incl["e1"]).is_zero()
    assert is_morphism(incl, ker, t)
    assert elapsed < 1.0, elapsed


def test_quotients_build_no_identity_and_the_kernel_no_dual(spy, monkeypatch):
    """Over one cokernel and one kernel on J_3, Matrix.identity builds
    nothing (no n x n identity per wire, and is_morphism acts slot by
    slot from no seed), and the kernel takes no dual_rep."""
    rng = random.Random(2938)
    d = canonical_diagram("J", 3)
    r = gen_random(d, {w.id: 2 for w in d.wires}, seed=5)[0]
    t = direct_sum(r, gen_random(d, {w.id: 1 for w in d.wires}, seed=6)[0])
    g = {w: rand_invertible(rng, n) for w, n in t.dims.items()}
    phi = {w: g[w] @ Matrix.identity(3).submatrix(range(3), range(2)) for w in g}
    t = apply_group_element(g, t)
    sizes, real = [], Matrix.identity.__func__

    def identity(cls, n):
        sizes.append(n)
        return real(cls, n)

    monkeypatch.setattr(Matrix, "identity", classmethod(identity))
    calls = spy(dual_rep)
    coker, psi = cokernel(phi, r, t)
    before = calls["dual_rep"]
    ker, incl = kernel(psi, t, coker)
    assert calls["dual_rep"] == before
    assert ker.dims == r.dims and sizes == [], sizes


@pytest.mark.parametrize("family, n", [("A1", 1), ("P", 2)])
def test_quotients_name_the_diagrams_own_slot_counts(family, n):
    """kernel and cokernel refuse a vertex without one slot a side by the
    counts slots(d) gives it, not by those of the dual diagram."""
    d = canonical_diagram(family, n)
    r = gen_random(d, {w.id: 2 for w in d.wires}, 1)[0]
    phi = {w: Matrix.identity(2) for w in r.dims}
    v, nb = next((v, nb) for v, nb in slots(d).items()
                 if (len(nb.incoming), len(nb.outgoing)) != (1, 1))
    want = (f"vertex {v} has {len(nb.incoming)} incoming and "
            f"{len(nb.outgoing)} outgoing slots")
    for quotient in (kernel, cokernel):
        with pytest.raises(NotQuiverLike) as exc:
            quotient(phi, r, r)
        assert str(exc.value) == want, quotient.__name__


def _low_rank(rng, rows, cols, rank_):
    """A seeded rows x cols rational matrix of rank at most rank_."""
    def draw(a, b):
        return Matrix(a, b, [[Q(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(b)] for _ in range(a)])
    return draw(rows, rank_) @ draw(rank_, cols)


def test_kernel_basis_is_the_rref_basis_of_the_kernel():
    """_kernel_basis(m) is column_space(nullspace(m)), the kernel's RREF
    basis, on seeded rational matrices (0 x n, n x 0, zero, full column
    rank, rank-deficient), and its rows are where that basis is the
    identity: each column's own 1, with zeros above it."""
    rng = random.Random(2939)
    cases = [Matrix.zeros(0, 4), Matrix.zeros(3, 0), Matrix.zeros(0, 0),
             Matrix.zeros(3, 4)]
    for _ in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(_low_rank(rng, rows, cols, rng.randint(0, min(rows, cols))))
    seen = set()
    for m in cases:
        basis, ones = _kernel_basis(m)
        assert basis == column_space(nullspace(m)), m
        k = basis.cols
        assert basis.submatrix(ones, range(k)) == Matrix.identity(k), m
        assert all(not any(basis.nums[h][j] for h in range(i))
                   for j, i in enumerate(ones)), m
        seen.add("0 x n" if not m.rows else "n x 0" if not m.cols
                 else "zero" if m.is_zero() else "full" if rank(m) == m.cols
                 else "deficient")
    assert seen == {"0 x n", "n x 0", "zero", "full", "deficient"}


def test_contract_plan_of_a_large_ring_is_quick():
    """On a 200-vertex ring with 200 seeded chords at dim 2, _plan takes
    one pass over the held wires a step and finishes within 0.5 s, where
    an all-pairs scan, as _plain_greedy makes, takes far longer."""
    rng = random.Random(2936)
    vs = [f"v{i:03d}" for i in range(200)]
    ends = [(v, vs[(i + 1) % 200]) for i, v in enumerate(vs)]
    ends += [tuple(rng.sample(vs, 2)) for _ in range(200)]
    d = validate_diagram({"vertices": vs, "wires": [
        {"id": f"e{i:03d}", "tail": t, "head": h} for i, (t, h) in enumerate(ends)]})
    held = {v: list(nb.outgoing + nb.incoming) for v, nb in slots(d).items()}
    t0 = time.perf_counter()
    steps, largest = _plan({w.id: 2 for w in d.wires}, held)
    elapsed = time.perf_counter() - t0
    assert len(steps) == 199 and largest > TENSOR_CAP
    assert elapsed < 0.5, elapsed
