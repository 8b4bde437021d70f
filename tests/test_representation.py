import hashlib
import itertools
import math
import random
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
    RestrictedDimViolation,
    ShapeMismatch,
    SingularMatrix,
    SizeMismatch,
    TensorTooLarge,
    UnknownWire,
)
from tdr.decompose import canonical_diagram
from tdr.exactalg import Matrix, det, inverse, nullspace, rank
from tdr.generate import gen_random
from tdr.rational import ONE, ZERO, Q
from tdr.representation import (
    TENSOR_CAP,
    Representation,
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
    monodromy,
    reverse_wire_rep,
    split_functor,
    tensor_product,
    unit,
    validate_representation,
    vertex_shape,
)
from tdr.semigraph import (
    connected_components,
    neighborhood,
    reverse_wire,
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
    # dims 4 (a direct sum or tensor product of two) give 4^12 > TENSOR_CAP,
    # as does the 4096 x 4096 Kronecker product of a base change at v
    d = validate_diagram({"vertices": ["v"], "wires": [
        {"id": f"e{i:02}", "tail": "v", "head": None} for i in range(12)]})
    dims = {w.id: 2 for w in d.wires}
    r = validate_representation(d, dims, {"v": Matrix(4096, 1, ((ONE,),) * 4096)})
    eye = {w: Matrix.identity(2) for w in dims}
    assert 4 ** 12 > TENSOR_CAP
    for build in (lambda: direct_sum(r, r), lambda: tensor_product(r, r),
                  lambda: validate_representation(
                      d, {w: 4 for w in dims}, {"v": Matrix.zeros(1, 1)}),
                  lambda: apply_group_element(eye, r),
                  lambda: is_morphism(eye, r, r)):
        tracemalloc.start()
        try:
            with pytest.raises(TensorTooLarge):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
