import operator
import random
import sys
import time
import tracemalloc

import pytest

from tdr.decompose import (
    Band,
    Decomposition,
    Interval,
    StringBlock,
    _oriented_arcs,
    block_alias,
    canonical_diagram,
    decompose,
    isomorphic,
    monodromy,
    on_shape,
    position_dims,
    realize,
    reorient,
    shape_of,
)
from tdr.errors import (
    DiagramMismatch,
    InvalidDescriptor,
    NotALoop,
    NotConnected,
    NotDecidableWild,
    NotDecomposable,
    TdrError,
    TensorTooLarge,
    UnknownWire,
)
from tdr.exactalg import (
    Matrix,
    Poly,
    block_diag,
    coords_in_basis,
    det,
    graded_jordan_chains,
    inverse,
    kernel_filtration,
    rank,
    rational_canonical,
    stable_image,
)
from tdr.rational import Q
from tdr.representation import (
    apply_group_element,
    direct_sum,
    hom_dim,
    reverse_wire_rep,
    validate_representation,
)
from tdr.generate import gen_random
from tdr.semigraph import reverse_wire, slots, validate_diagram
from tdr.wildness import eight_diagram, needle_diagram


def x_minus(c):
    return Poly((Q(-c), Q(1)))


def blocks_of(r):
    return dict(decompose(r).blocks)


def rand_invertible(rng, n):
    while True:
        m = Matrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


def conjugate(rng, r):
    g = {wid: rand_invertible(rng, dim) if dim else Matrix(0, 0, ())
         for wid, dim in r.dims.items()}
    return apply_group_element(g, r)


# ---------------------------------------------------------------------------
# canonical diagrams

def test_canonical_diagram_shapes():
    a0 = canonical_diagram("A0", 2)
    assert [(w.id, w.tail, w.head) for w in a0.wires] == [
        ("e1", None, "v1"), ("e2", "v1", "v2"), ("e3", "v2", None)]
    a1 = canonical_diagram("A1", 2)
    assert [(w.id, w.tail, w.head) for w in a1.wires] == [
        ("e1", None, "v1"), ("e2", "v1", "v2")]
    p1 = canonical_diagram("P", 1)
    assert p1.vertices == ("v1",) and p1.wires == ()
    p3 = canonical_diagram("P", 3)
    assert [(w.id, w.tail, w.head) for w in p3.wires] == [
        ("e1", "v1", "v2"), ("e2", "v2", "v3")]
    j2 = canonical_diagram("J", 2)
    assert [(w.id, w.tail, w.head) for w in j2.wires] == [
        ("e1", "v1", "v2"), ("e2", "v2", "v1")]


def test_canonical_diagram_pads_names_past_nine():
    d = canonical_diagram("J", 10)
    assert d.vertices[0] == "v01" and d.vertices[-1] == "v10"
    # single digits stay short so lexicographic order is numeric order
    assert canonical_diagram("J", 9).vertices[0] == "v1"


# ---------------------------------------------------------------------------
# realize

def test_realize_a0_interval():
    r = realize("A0", 2, Interval(1, 2))
    assert r.dims == {"e1": 1, "e2": 1, "e3": 0}
    assert r.tensors["v1"] == Matrix.from_rows([[1]])
    assert r.tensors["v2"] == Matrix.zeros(0, 1)
    full = realize("A0", 2, Interval(1, 3))
    assert full.dims == {"e1": 1, "e2": 1, "e3": 1}
    assert full.tensors["v2"] == Matrix.from_rows([[1]])


def test_realize_a1_interval():
    r = realize("A1", 2, Interval(2, 3))
    assert r.dims == {"e1": 0, "e2": 1}
    # last vertex holds the covector onto the pinned position
    assert r.tensors["v2"] == Matrix.from_rows([[1]])
    r2 = realize("A1", 2, Interval(1, 2))
    assert r2.tensors["v2"] == Matrix.zeros(1, 1)


def test_realize_j_blocks():
    lam = realize("J", 1, Band(x_minus(2), 1))
    assert lam.dims == {"e1": 1}
    assert lam.tensors["v1"] == Matrix.from_rows([[2]])
    st = realize("J", 1, StringBlock(1, 2))
    assert st.dims == {"e1": 2}
    m = st.tensors["v1"]
    assert m.rows == 2 and (m @ m).is_zero() and not m.is_zero()
    j2 = realize("J", 2, Band(x_minus(3), 2))
    assert j2.dims == {"e1": 2, "e2": 2}


def test_realize_p_blocks():
    v = realize("P", 2, Band(x_minus(5), 1))
    assert v.dims == {"e1": 1}
    simple = realize("P", 3, StringBlock(1, 1))
    assert simple.dims == {"e1": 1, "e2": 0}
    w = realize("P", 2, StringBlock(1, 3))
    assert w.dims == {"e1": 2}
    p1 = realize("P", 1, Band(x_minus(7), 1))
    assert p1.dims == {} and p1.tensors["v1"] == Matrix.from_rows([[7]])


def test_realize_rejects_bad_descriptors():
    with pytest.raises(InvalidDescriptor):
        realize("A0", 2, Interval(0, 1))
    with pytest.raises(InvalidDescriptor):
        realize("A0", 2, Interval(2, 1))
    with pytest.raises(InvalidDescriptor):
        realize("A0", 2, Interval(1, 4))
    with pytest.raises(InvalidDescriptor):
        realize("A1", 2, Interval(3, 3))  # pinned position alone
    with pytest.raises(InvalidDescriptor):
        realize("A0", 2, Band(x_minus(1), 1))
    with pytest.raises(InvalidDescriptor):
        realize("J", 1, Band(Poly((Q(1), Q(2))), 1))  # not monic
    with pytest.raises(InvalidDescriptor):
        realize("J", 1, Band(Poly((Q(0), Q(1))), 1))  # constant term 0
    with pytest.raises(InvalidDescriptor):
        realize("J", 1, Band(Poly((Q(-1), Q(0), Q(1))), 1))  # reducible
    with pytest.raises(InvalidDescriptor):
        realize("J", 1, Band(x_minus(2), 0))
    with pytest.raises(InvalidDescriptor):
        realize("P", 2, StringBlock(2, 1))  # pinned simple
    with pytest.raises(InvalidDescriptor):
        realize("P", 2, Band(x_minus(2), 2))  # pin would need dim 2
    with pytest.raises(InvalidDescriptor):
        realize("P", 2, StringBlock(1, 5))  # wraps the pin twice
    with pytest.raises(InvalidDescriptor, match="^string out of range for n=2$"):
        realize("J", 2, StringBlock(3, 1))  # starts past the last position
    with pytest.raises(InvalidDescriptor):
        realize("Q", 2, Interval(1, 1))


def test_realize_refuses_descriptor_fields_of_the_wrong_type():
    """A poly that is no Poly, and a float, str or bool where an int
    belongs, are InvalidDescriptor before any arithmetic runs."""
    for family, desc in (("J", Band("x", 1)), ("J", Band(x_minus(2), 1.5)),
                         ("J", Band(x_minus(2), True)), ("P", StringBlock(1.0, 2)),
                         ("J", StringBlock(1, False)), ("A0", Interval("1", 2)),
                         ("A1", Interval(1, 2.0)), ("A0", Interval(True, 1))):
        with pytest.raises(InvalidDescriptor):
            realize(family, 2, desc)


def test_descriptors_are_records_equal_only_to_their_own_type():
    """Interval, Band, StringBlock, JordanChain, CommandReport and
    Decomposition, whose one field is blocks: a value equals a value of its
    own type with equal fields, and never a plain tuple or a record of
    another type, with ==, != and hash agreeing; a field cannot be set; the
    repr names the fields.  No record is ordered, not even against a tuple
    or a record of another type."""
    from tdr.cli import CommandReport
    from tdr.exactalg import JordanChain

    p = x_minus(2)
    blocks = ((Interval(1, 2), 1),)
    cases = [(Interval(1, 2), Interval(1, 2), (1, 2), "Interval(a=1, b=2)"),
             (StringBlock(1, 2), StringBlock(1, 2), (1, 2),
              "StringBlock(start=1, length=2)"),
             (Band(p, 2), Band(x_minus(2), 2), (p, 2), f"Band(poly={p!r}, power=2)"),
             (JordanChain(1, ()), JordanChain(1, ()), (1, ()),
              "JordanChain(start=1, vectors=())"),
             (CommandReport(0), CommandReport(0), (0,), "CommandReport(exit_code=0)"),
             (Decomposition(blocks), Decomposition.of([Interval(1, 2)]), (blocks,),
              "Decomposition(blocks=((Interval(a=1, b=2), 1),))")]
    for value, twin, plain, shown in cases:
        assert value == twin and not value != twin and hash(value) == hash(twin)
        assert value != plain and plain != value
        assert not value == plain and not plain == value
        assert repr(value) == shown
        with pytest.raises(AttributeError):
            value.__setattr__(type(value)._fields[0], 5)
        for other in (twin, plain) + tuple(case[0] for case in cases):
            if type(other) is not type(value):
                assert value != other and not value == other
            for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    compare(value, other)
                with pytest.raises(TypeError):
                    compare(other, value)
    assert Interval(1, 2) != Interval(1, 3) and not Interval(1, 2) == Interval(2, 1)
    assert len({Interval(1, 2), StringBlock(1, 2), Interval(1, 2)}) == 2
    assert Decomposition._fields == ("blocks",)
    assert Decomposition(blocks) != Decomposition(((Interval(1, 2), 2),))


def test_canonical_diagram_rejects_bad_sizes():
    for n in (0, -1, "3", 2.0, None, True):
        with pytest.raises(InvalidDescriptor):
            canonical_diagram("J", n)


def test_realize_cap_is_checked_before_allocation():
    # J_1 arcs of 10**6 x 10**6 and 10**4 x 10**4 entries, both over
    # TENSOR_CAP; the second must be refused before (x - 2)**10**4 is built
    realize("J", 1, Band(x_minus(2), 1))   # load the factoring backend
    for desc in (StringBlock(1, 10 ** 6), Band(x_minus(2), 10 ** 4)):
        tracemalloc.start()
        try:
            with pytest.raises(TensorTooLarge):
                realize("J", 1, desc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, desc


def _relabelled(d, rng):
    """d under fresh vertex and wire names, with about half its wires reversed."""
    vs = {v: f"{rng.choice('kqz')}{rng.randrange(1000)}{i}"
          for i, v in enumerate(d.vertices)}
    wires = []
    for i, w in enumerate(d.wires):
        ends = [vs.get(w.tail), vs.get(w.head)]
        if rng.random() < 0.5:
            ends.reverse()
        wires.append({"id": f"{rng.choice('abw')}{rng.randrange(1000)}{i}",
                      "tail": ends[0], "head": ends[1]})
    return validate_diagram({"vertices": sorted(vs.values()), "wires": wires})


def test_on_shape_inverts_oriented_arcs():
    rng = random.Random(808)
    for family in ("A0", "A1", "P", "J"):
        for n in range(1, 5):
            for _ in range(3):
                d = _relabelled(canonical_diagram(family, n), rng)
                shape = shape_of(d)
                dims = position_dims(
                    {w.id: rng.randrange(3) for w in d.wires}, shape)
                m = len(dims)
                arcs = []
                for i in range(n):
                    rows, cols = dims[(i + 1) % m], dims[i]
                    arcs.append(Matrix(rows, cols, [
                        [Q(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(cols)] for _ in range(rows)]))
                r = on_shape(d, shape, dims, arcs)
                assert _oriented_arcs(r, shape) == (dims, arcs)
                # carried back to d's own orientations, it reads the same
                back = reorient(r, d.wires)
                assert back.diagram == d
                assert _oriented_arcs(back, shape) == (dims, arcs)


# ---------------------------------------------------------------------------
# decompose: frozen normal-form oracles

def test_interval_counts_by_inclusion_exclusion():
    d = canonical_diagram("A0", 1)
    r = validate_representation(
        d, {"e1": 2, "e2": 2},
        {"v1": Matrix.from_rows([[1, 0], [0, 0]])})
    assert blocks_of(r) == {Interval(1, 1): 1, Interval(2, 2): 1,
                            Interval(1, 2): 1}


def _intervals(n):
    """Every Interval on A0 with n vertices, whose n + 1 wires are the
    positions."""
    return [Interval(a, b) for a in range(1, n + 2) for b in range(a, n + 2)]


def _interval_hom(i, j):
    """dim Hom(I[a, b], I[c, d]) on A0: 1 when c <= a <= d <= b, else 0."""
    return int(j.a <= i.a <= j.b <= i.b)


def test_interval_hom_rule_on_a0():
    """hom_dim between realized Intervals on A0 follows the rule, on every
    pair for n = 1..4; and on seeded sum-mode reps r, dim Hom(I, r) for
    every Interval I is the sum of mult(J) * dim Hom(I, J) over
    decompose(r).  Ordered by (a, b), that matrix is unitriangular, so the
    Hom dimensions determine the multiplicities."""
    for n in range(1, 5):
        reps = {i: realize("A0", n, i) for i in _intervals(n)}
        for i in reps:
            for j in reps:
                assert hom_dim(reps[i], reps[j]) == _interval_hom(i, j), (n, i, j)
    rng = random.Random(1805)
    for seed in range(40):
        n = rng.randint(1, 4)
        d = canonical_diagram("A0", n)
        caps = {w.id: rng.randrange(0, 4) for w in d.wires}
        r, _ = gen_random(d, caps, seed=seed, mode="sum")
        blocks = decompose(r).blocks
        for i in _intervals(n):
            assert hom_dim(realize("A0", n, i), r) == sum(
                mult * _interval_hom(i, j) for j, mult in blocks), (seed, i)


def test_a1_drops_pinned_interval():
    d = canonical_diagram("A1", 1)
    r = validate_representation(
        d, {"e1": 2}, {"v1": Matrix.from_rows([[1, 0]])})
    assert blocks_of(r) == {Interval(1, 1): 1, Interval(1, 2): 1}
    zero = validate_representation(
        d, {"e1": 1}, {"v1": Matrix.zeros(1, 1)})
    assert blocks_of(zero) == {Interval(1, 1): 1}


def test_j1_normal_forms():
    def j1(m):
        return validate_representation(
            canonical_diagram("J", 1), {"e1": m.rows}, {"v1": m})

    assert blocks_of(j1(Matrix.from_rows([[2]]))) == {Band(x_minus(2), 1): 1}
    assert blocks_of(j1(Matrix.from_rows([[0, 1], [0, 0]]))) == \
        {StringBlock(1, 2): 1}
    assert blocks_of(j1(Matrix.from_rows([[0]]))) == {StringBlock(1, 1): 1}
    assert blocks_of(j1(Matrix.from_rows([[2, 0], [0, 3]]))) == \
        {Band(x_minus(2), 1): 1, Band(x_minus(3), 1): 1}
    assert blocks_of(j1(Matrix.from_rows([[2, 1], [0, 2]]))) == \
        {Band(x_minus(2), 2): 1}
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    assert blocks_of(j1(rot)) == {Band(Poly((Q(1), Q(0), Q(1))), 1): 1}
    mixed = Matrix.from_rows([[2, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert blocks_of(j1(mixed)) == {Band(x_minus(2), 1): 1,
                                    StringBlock(1, 2): 1}


def test_round_trip_realize_then_decompose():
    cases = [
        ("A0", 1, Interval(1, 1)), ("A0", 1, Interval(1, 2)),
        ("A0", 3, Interval(2, 3)), ("A0", 4, Interval(1, 5)),
        ("A1", 1, Interval(1, 1)), ("A1", 1, Interval(1, 2)),
        ("A1", 3, Interval(2, 4)), ("A1", 4, Interval(3, 3)),
        ("J", 1, Band(x_minus(2), 1)), ("J", 1, Band(x_minus(2), 3)),
        ("J", 2, Band(Poly((Q(1), Q(1), Q(1))), 1)),
        ("J", 2, Band(Poly((Q(2), Q(0), Q(0), Q(1))), 2)),
        ("J", 1, StringBlock(1, 1)), ("J", 2, StringBlock(2, 3)),
        ("J", 3, StringBlock(1, 7)), ("J", 3, StringBlock(3, 1)),
        ("P", 1, Band(x_minus(4), 1)),
        ("P", 2, Band(x_minus(-2), 1)), ("P", 4, Band(x_minus(1), 1)),
        ("P", 2, StringBlock(1, 1)), ("P", 3, StringBlock(2, 1)),
        ("P", 2, StringBlock(1, 3)), ("P", 3, StringBlock(1, 5)),
        ("P", 4, StringBlock(2, 2)),
    ]
    for family, n, desc in cases:
        r = realize(family, n, desc)
        assert blocks_of(r) == {desc: 1}, (family, n, desc)


def test_decompose_invariant_under_group_action():
    rng = random.Random(41)
    cases = [
        ("A0", 3, [Interval(1, 2), Interval(2, 4), Interval(3, 3)]),
        ("A1", 2, [Interval(1, 3), Interval(2, 2)]),
        ("J", 2, [Band(x_minus(2), 2), StringBlock(1, 3)]),
        ("P", 3, [Band(x_minus(5), 1), StringBlock(1, 2)]),
    ]
    for family, n, descs in cases:
        r = realize(family, n, descs[0])
        for desc in descs[1:]:
            r = direct_sum(r, realize(family, n, desc))
        key = decompose(r)
        for _ in range(3):
            assert decompose(conjugate(rng, r)) == key


def test_decompose_invariant_under_wire_reversal():
    rng = random.Random(43)
    for family, n, desc in [("A0", 2, Interval(1, 3)),
                            ("J", 3, Band(x_minus(2), 1)),
                            ("P", 3, StringBlock(1, 4))]:
        r = conjugate(rng, realize(family, n, desc))
        key = decompose(r)
        for wid in sorted(r.dims):
            assert decompose(reverse_wire_rep(r, wid)) == key


def test_additivity_on_a0_and_j():
    rng = random.Random(47)
    r1 = conjugate(rng, realize("A0", 2, Interval(1, 2)))
    r2 = conjugate(rng, realize("A0", 2, Interval(2, 3)))
    s = direct_sum(r1, r2)
    assert blocks_of(s) == {Interval(1, 2): 1, Interval(2, 3): 1}
    j1 = realize("J", 2, Band(x_minus(2), 1))
    j2 = realize("J", 2, StringBlock(1, 2))
    assert blocks_of(direct_sum(j1, j2)) == \
        {Band(x_minus(2), 1): 1, StringBlock(1, 2): 1}


def test_pinned_blocks_interact_under_direct_sum():
    # the pinned position has dimension 1 in every shape rep, so two
    # blocks that both use it recombine: V(2) + V(3) regroups as
    # V(5) + V0(1), and the two sums are genuinely isomorphic
    r = direct_sum(realize("P", 2, Band(x_minus(2), 1)),
                   realize("P", 2, Band(x_minus(3), 1)))
    assert blocks_of(r) == {Band(x_minus(5), 1): 1, StringBlock(1, 1): 1}
    other = direct_sum(realize("P", 2, Band(x_minus(5), 1)),
                       realize("P", 2, StringBlock(1, 1)))
    assert isomorphic(r, other)

    a = direct_sum(realize("A1", 1, Interval(1, 2)),
                   realize("A1", 1, Interval(1, 2)))
    assert blocks_of(a) == {Interval(1, 1): 1, Interval(1, 2): 1}


def test_p2_long_string():
    # u, w with w u = 0 but u, w nonzero wraps once around the pin
    d = canonical_diagram("P", 2)
    r = validate_representation(
        d, {"e1": 2},
        {"v1": Matrix.from_rows([[1], [0]]),
         "v2": Matrix.from_rows([[0, 1]])})
    assert blocks_of(r) == {StringBlock(1, 3): 1}


def test_aliases():
    assert block_alias("P", 2, Band(x_minus(2), 1)) == "V(2)"
    assert block_alias("P", 2, Band(x_minus(-2), 1)) == "V(-2)"
    assert block_alias("P", 3, StringBlock(2, 1)) == "V0(2)"
    assert block_alias("P", 2, StringBlock(1, 3)) == "W(1)"
    assert block_alias("P", 4, StringBlock(1, 6)) == "W(2)"
    assert block_alias("P", 2, StringBlock(1, 5)) is None  # pin twice
    assert block_alias("P", 3, StringBlock(1, 2)) is None
    assert block_alias("J", 2, Band(x_minus(2), 1)) is None
    assert block_alias("A0", 2, Interval(1, 2)) is None


def test_decompose_rejects_wrong_shapes():
    wild = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None}]})
    r = validate_representation(
        wild, {"e1": 1, "e2": 1}, {"v1": Matrix.from_rows([[1]])})
    with pytest.raises(NotDecomposable):
        decompose(r)
    pair = validate_diagram({"vertices": ["v1", "v2"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v2", "head": "v2"}]})
    r2 = validate_representation(
        pair, {"e1": 1, "e2": 1},
        {"v1": Matrix.from_rows([[1]]), "v2": Matrix.from_rows([[1]])})
    with pytest.raises(NotConnected):
        decompose(r2)


def test_isomorphic():
    rng = random.Random(53)
    r = direct_sum(realize("J", 2, Band(x_minus(2), 1)),
                   realize("J", 2, StringBlock(1, 2)))
    assert isomorphic(r, conjugate(rng, r))
    other = direct_sum(realize("J", 2, Band(x_minus(3), 1)),
                       realize("J", 2, StringBlock(1, 2)))
    assert not isomorphic(r, other)
    smaller = realize("J", 2, Band(x_minus(2), 1))
    assert not isomorphic(r, smaller)  # dims differ
    with pytest.raises(DiagramMismatch):
        isomorphic(r, realize("J", 3, Band(x_minus(2), 1)))


def test_isomorphic_componentwise():
    d = validate_diagram({"vertices": ["v1", "v2"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v2", "head": "v2"}]})

    def two_loops(a, b):
        return validate_representation(
            d, {"e1": 1, "e2": 1},
            {"v1": Matrix.from_rows([[a]]), "v2": Matrix.from_rows([[b]])})

    assert isomorphic(two_loops(2, 3), two_loops(2, 3))
    # per-component keys, not a global multiset: swapping is visible
    assert not isomorphic(two_loops(2, 3), two_loops(3, 2))


def test_isomorphic_refuses_wild():
    wild = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None}]})
    r = validate_representation(
        wild, {"e1": 1, "e2": 1}, {"v1": Matrix.from_rows([[1]])})
    with pytest.raises(NotDecidableWild):
        isomorphic(r, r)


def _reference_isomorphic(r1, r2):
    """isomorphic with its own component loop, as it was before shape_of
    and isomorphic shared one: the reference."""
    from tdr.classify import classify_diagram
    from tdr.decompose import _decompose_on, traverse
    from tdr.representation import rep_diagram
    from tdr.semigraph import restrict

    d = rep_diagram(r1, r2)
    comps = classify_diagram(d)
    for _, cls in comps:
        if cls.kind == "wild":
            raise NotDecidableWild(f"wild component ({cls.witness.kind})")
    if r1.dims != r2.dims:
        return False
    for comp, cls in comps:
        shape = traverse(restrict(d, comp), cls.family)
        if _decompose_on(r1, shape) != _decompose_on(r2, shape):
            return False
    return True


_CLAW = validate_diagram({"vertices": ["v1"], "wires": [
    {"id": "e1", "tail": None, "head": "v1"},
    {"id": "e2", "tail": "v1", "head": None},
    {"id": "e3", "tail": "v1", "head": None}]})


def _union(parts, rng):
    """The disjoint union of diagrams, relabelled as one."""
    vertices, wires = [], []
    for k, d in enumerate(parts):
        vertices += [f"c{k}{v}" for v in d.vertices]
        wires += [{"id": f"c{k}{w.id}", "tail": w.tail and f"c{k}{w.tail}",
                   "head": w.head and f"c{k}{w.head}"} for w in d.wires]
    return _relabelled(validate_diagram(
        {"vertices": vertices, "wires": wires}), rng)


def _outcome(call):
    try:
        return call()
    except TdrError as exc:
        return type(exc), str(exc)


def test_isomorphic_agrees_with_its_own_component_loop():
    """On 200 seeded pairs of reps of 1 to 3 components (paths, cycles,
    now and then a wild or an endpointless one), isomorphic gives the
    reference's answer or its error class and message: conjugate pairs,
    other draws, a zeroed vertex and a changed dim."""
    rng = random.Random(3535)
    tame = [canonical_diagram(f, n) for f in ("A0", "A1", "P", "J")
            for n in (1, 2, 3)]
    odd = [needle_diagram(), eight_diagram(), _CLAW,
           validate_diagram({"vertices": [], "wires": [{"id": "e1"}]})]
    seen = set()
    for _ in range(200):
        parts = [rng.choice(odd) if rng.random() < 0.08 else rng.choice(tame)
                 for _ in range(rng.randint(1, 3))]
        d = _union(parts, rng)
        dims = {w.id: rng.randint(0, 2) for w in d.wires}
        r = gen_random(d, dims, rng.randrange(1 << 30)).rep
        kind = rng.choice([0, 1] + [2] * bool(d.vertices) + [3] * bool(d.wires))
        if kind == 0:
            other = conjugate(rng, r)
        elif kind == 1:
            other = gen_random(d, dims, rng.randrange(1 << 30)).rep
        elif kind == 2:
            v = rng.choice(d.vertices)
            t = r.tensors[v]
            other = validate_representation(
                d, r.dims, {**r.tensors, v: Matrix.zeros(t.rows, t.cols)})
        else:
            w = rng.choice(d.wires).id
            other = gen_random(d, {**dims, w: dims[w] + 1}, 1).rep
        want = _outcome(lambda: _reference_isomorphic(r, other))
        assert _outcome(lambda: isomorphic(r, other)) == want
        seen.add((kind, want if isinstance(want, bool) else want[0]))
    for answer in (True, False, NotDecidableWild):
        assert any(a == answer for _, a in seen), seen
    assert (1, False) in seen and (2, False) in seen and (3, False) in seen


def test_decomposition_order_is_canonical():
    r = direct_sum(realize("A0", 2, Interval(2, 3)),
                   realize("A0", 2, Interval(1, 2)))
    dec = decompose(r)
    assert [desc for desc, _ in dec.blocks] == [Interval(1, 2), Interval(2, 3)]
    s = direct_sum(realize("J", 1, StringBlock(1, 1)),
                   realize("J", 1, Band(x_minus(1), 1)))
    assert [type(desc).__name__ for desc, _ in decompose(s).blocks] == \
        ["Band", "StringBlock"]


# ---------------------------------------------------------------------------
# String blocks from the arcs' own kernel filtration

def _planted_cycle(rng, grades):
    """Arcs of a cycle with an invertible part on every grade and random
    graded strings, hidden by a base change per grade; also the planted
    strings as (start, length)."""
    band = rng.randint(1, 2)
    nil_dims, links, strings = [0] * grades, [], []
    for _ in range(rng.randint(1, 4)):
        start, length = rng.randrange(grades), rng.randint(1, 2 * grades)
        strings.append((start + 1, length))
        prev = None
        for k in range(length):
            g = (start + k) % grades
            if prev is not None:
                links.append((prev, (g, nil_dims[g])))
            prev = (g, nil_dims[g])
            nil_dims[g] += 1
    nil = []
    for a in range(grades):
        grid = [[0] * nil_dims[a] for _ in range(nil_dims[(a + 1) % grades])]
        for (src, i), (_, j) in links:
            if src == a:
                grid[j][i] = 1
        nil.append(Matrix(nil_dims[(a + 1) % grades], nil_dims[a], grid))
    dims = [band + d for d in nil_dims]
    gs = [rand_invertible(rng, d) for d in dims]
    arcs = [gs[(a + 1) % grades] @ block_diag([rand_invertible(rng, band), nil[a]])
            @ inverse(gs[a]) for a in range(grades)]
    return arcs, strings


def test_cycle_strings_match_chains_of_nilpotent_part():
    """_cycle_blocks counts the String blocks from the ranks of the arcs'
    composites; they equal the chains of the arcs restricted to their
    stable kernels, in coordinates of its canonical basis."""
    cycle_blocks = sys.modules["tdr.decompose"]._cycle_blocks
    rng = random.Random(5151)
    for case in range(40):
        grades = case % 5 + 1
        arcs, planted = _planted_cycle(rng, grades)
        blocks = cycle_blocks(arcs)
        got = sorted((b.start, b.length) for b in blocks if isinstance(b, StringBlock))
        _, kers = kernel_filtration(arcs)
        nil_arcs = [coords_in_basis(kers[(i + 1) % grades], arcs[i] @ kers[i])
                    for i in range(grades)]
        want = sorted((c.start, c.length) for c in graded_jordan_chains(nil_arcs))
        assert got == want == sorted(planted), case
        assert any(isinstance(b, Band) for b in blocks)


def test_cycle_decompose_makes_no_preimage(monkeypatch):
    """Cycles take stable images, ranks of composites and the rational
    canonical form of the band part, never a preimage; the count sees
    exactalg's own calls, as the positive control at the end shows."""
    dmod, emod = sys.modules["tdr.decompose"], sys.modules["tdr.exactalg"]
    real, calls = emod.preimage, []

    def counted(m, space):
        calls.append(m.cols)
        return real(m, space)

    monkeypatch.setattr(emod, "preimage", counted)
    rng = random.Random(53)
    for n in (3, 1):
        band, string = Band(x_minus(2), 2), StringBlock(n, 5)
        r = conjugate(rng, direct_sum(realize("J", n, band), realize("J", n, string)))
        assert blocks_of(r) == {band: 1, string: 1}, n
    for case in range(10):
        arcs, planted = _planted_cycle(rng, case % 4 + 1)
        got = dmod._cycle_blocks(arcs)
        assert sorted((b.start, b.length) for b in got
                      if isinstance(b, StringBlock)) == sorted(planted), case
    assert calls == []
    emod.graded_jordan_chains([Matrix.zeros(1, 1)])
    assert calls == [1]


_BAND_POLYS = (x_minus(2), x_minus(-1), Poly((Q(1), Q(1), Q(1))),
               Poly((Q(-2), Q(0), Q(1))))


def test_bands_are_the_invertible_divisors_of_the_monodromy(monkeypatch):
    """Fitting's split by a route with no stable image: on base-changed
    Band and String sums on J_1..J_5 the Bands are the elementary divisors
    p^s of the monodromy at e1 with p(0) != 0.  decompose itself takes
    one stable image per cycle, of that d1 x d1 monodromy."""
    dmod = sys.modules["tdr.decompose"]
    real, calls = dmod.stable_image, []

    def counted(m):
        calls.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(dmod, "stable_image", counted)
    rng = random.Random(1230)
    for case in range(30):
        n = case % 5 + 1
        descs = [Band(rng.choice(_BAND_POLYS), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 2))]
        descs += [StringBlock(rng.randint(1, n), rng.randint(1, 2 * n))
                  for _ in range(rng.randint(0, 2))]
        r = realize("J", n, descs[0])
        for desc in descs[1:]:
            r = direct_sum(r, realize("J", n, desc))
        r = conjugate(rng, r)
        calls.clear()
        got = sorted((d.poly.coeffs, d.power) for d, k in decompose(r).blocks
                     for _ in range(k) if isinstance(d, Band))
        want = sorted((p.coeffs, s) for p, s in rational_canonical(monodromy(r, "e1"))
                      if p.coeffs[0])
        assert got == want == sorted((d.poly.coeffs, d.power) for d in descs
                                     if isinstance(d, Band)), case
        assert calls == [(r.dims["e1"], r.dims["e1"])], case


def _band_string_sum(rng, family, n):
    """A base-changed direct sum of realized Band and String blocks on
    family n, every wire of dim <= 7: Bands alone, Strings alone or both.
    P takes scalar Bands only, whose one copy of the pinned position the
    sum shares."""
    polys = _BAND_POLYS if family == "J" else _BAND_POLYS[:2]
    while True:
        kind = rng.choice(("bands", "strings", "both"))
        descs = []
        if kind != "strings":
            descs += [Band(rng.choice(polys), rng.randint(1, 2) if family == "J" else 1)
                      for _ in range(rng.randint(1, 2))]
        if kind != "bands":
            descs += [StringBlock(rng.randint(1, n), rng.randint(1, 2 * n))
                      for _ in range(rng.randint(1, 2))]
        try:
            r = direct_sum(*(realize(family, n, desc) for desc in descs))
        except InvalidDescriptor:   # P: a string that needs two pinned copies
            continue
        if max(r.dims.values()) <= 7:
            return conjugate(rng, r)


def test_band_coordinates_are_read_off_the_cores_pivot_rows(monkeypatch):
    """The monodromy on its Fitting core, as _cycle_blocks hands it to
    rational_canonical, equals its coordinates in the core by one RREF of
    [core | mono @ core], on base-changed Band and String sums on J_1..J_5
    and P_2..P_5 with zero, partial and full cores; a zero core hands on
    nothing."""
    dmod = sys.modules["tdr.decompose"]
    real, handed = dmod.rational_canonical, []

    def recorded(m):
        handed.append(m)
        return real(m)

    monkeypatch.setattr(dmod, "rational_canonical", recorded)
    rng = random.Random(3103)
    shapes = [("J", n) for n in range(1, 6)] + [("P", n) for n in range(2, 6)]
    seen = set()
    for case in range(90):
        family, n = shapes[case % len(shapes)]
        r = _band_string_sum(rng, family, n)
        mono = dmod._around(_oriented_arcs(r, shape_of(r.diagram))[1])
        core = stable_image(mono)
        handed.clear()
        decompose(r)
        assert handed == ([coords_in_basis(core, mono @ core)] if core.cols else []), case
        seen.add((family, "zero" if not core.cols else
                  "full" if core.cols == mono.cols else "partial"))
    assert seen == {(f, k) for f in "JP" for k in ("zero", "partial", "full")}


def test_cycle_bands_take_no_coordinates_and_build_no_identity(spy, monkeypatch):
    """One decompose of a base-changed Band and String sum on J_3 finds
    the core's coordinates without coords_in_basis, and p(m), formed for
    the factor of multiplicity 2, builds no Matrix.identity and no
    Kronecker product; the spy sees coords_in_basis through inverse."""
    rng = random.Random(3377)
    descs = [Band(Poly((Q(1), Q(1), Q(1))), 2), Band(x_minus(2), 1), StringBlock(2, 4)]
    r = conjugate(rng, direct_sum(*(realize("J", 3, desc) for desc in descs)))
    calls = spy(coords_in_basis)
    built, evaluated = [], []
    real_identity, real_kron, real_eval = (Matrix.identity.__func__, Matrix.kron,
                                           Poly.eval_matrix)

    def identity(cls, n):
        built.append(("identity", n))
        return real_identity(cls, n)

    def kron(a, b):
        built.append(("kron", a.rows, b.rows))
        return real_kron(a, b)

    def eval_matrix(p, m):
        evaluated.append(p)
        return real_eval(p, m)

    monkeypatch.setattr(Matrix, "identity", classmethod(identity))
    monkeypatch.setattr(Matrix, "kron", kron)
    monkeypatch.setattr(Poly, "eval_matrix", eval_matrix)
    assert blocks_of(r) == {desc: 1 for desc in descs}
    assert evaluated == [descs[0].poly]
    assert calls["coords_in_basis"] == 0 and built == []
    sys.modules["tdr.exactalg"].inverse(Matrix.from_rows([[2]]))
    assert calls["coords_in_basis"] == 1


def _walked_monodromy(r, base):
    """The monodromy read by a walk: from the base wire's head, follow each
    vertex's one outgoing wire back to the base, each factor applied after
    the last; None when a vertex has not one wire in and one out."""
    nbs = slots(r.diagram)
    if any(len(nb.incoming) != 1 or len(nb.outgoing) != 1 for nb in nbs.values()):
        return None
    head = {w.id: w.head for w in r.diagram.wires}
    v = head[base]
    acc, wid = r.tensors[v], nbs[v].outgoing[0]
    while wid != base:
        v = head[wid]
        acc, wid = r.tensors[v] @ acc, nbs[v].outgoing[0]
    return acc


def _renamed(d, rng):
    """d under fresh vertex and wire names, every wire keeping its way."""
    vs = {v: f"{rng.choice('kqz')}{rng.randrange(1000)}{i}"
          for i, v in enumerate(d.vertices)}
    return validate_diagram({"vertices": sorted(vs.values()), "wires": [
        {"id": f"{rng.choice('abw')}{rng.randrange(1000)}{i}",
         "tail": vs.get(w.tail), "head": vs.get(w.head)}
        for i, w in enumerate(d.wires)]})


def test_monodromy_agrees_with_a_walk_along_the_wires():
    """On J_1..J_5 under fresh names, dims 0..3 and every base, with the
    wires as built, all reversed, and a random mixed set reversed: the
    monodromy is the walk's product, and NotALoop where the walk finds a
    vertex off a co-oriented cycle.  A0, A1, P, the needle, the figure
    eight, two loops and a loop beside an endpointless wire are NotALoop
    at every base; an unknown or unhashable base is UnknownWire."""
    rng = random.Random(2028)
    seen = {"agree": 0, "zero dim": 0, "not a loop": 0}
    for n in range(1, 6):
        for _ in range(3):
            d = _renamed(canonical_diagram("J", n), rng)
            wids = [w.id for w in d.wires]
            dims = {w: rng.randrange(4) for w in wids}
            r = gen_random(d, dims, rng.randrange(99)).rep
            mixed = rng.sample(wids, rng.randint(1, max(n - 1, 1)))
            for flip in ([], wids, mixed):
                turned = reverse_wire_rep(r, *flip) if flip else r
                for base in wids:
                    want = _walked_monodromy(turned, base)
                    if want is None:
                        with pytest.raises(NotALoop):
                            monodromy(turned, base)
                        seen["not a loop"] += 1
                    else:
                        assert monodromy(turned, base) == want, (n, flip, base)
                        seen["agree"] += 1
                        seen["zero dim"] += want.rows == 0
    # as built and all reversed at each of the 45 bases, J_1 also mixed; every
    # mixed set on J_2..J_5 is off the walk
    assert seen["agree"] == 2 * 45 + 3 and seen["not a loop"] == 45 - 3
    assert seen["zero dim"]
    two_loops = validate_diagram({"vertices": ["v1", "v2"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v2", "head": "v2"}]})
    loose = validate_diagram({"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": None, "head": None}]})
    for d in (canonical_diagram("A0", 2), canonical_diagram("A1", 2),
              canonical_diagram("P", 3), needle_diagram(), eight_diagram(),
              two_loops, loose):
        r = gen_random(d, {w.id: 2 for w in d.wires}, 5).rep
        for w in d.wires:
            with pytest.raises(NotALoop):
                monodromy(r, w.id)
    r = realize("J", 2, Band(x_minus(2), 1))
    for base in ("e9", ["e1"], {}):
        with pytest.raises(UnknownWire):
            monodromy(r, base)


def test_long_string_decomposes_within_its_time_bound():
    """A 28-long chain on J_1 under a base change: ranks of the powers of
    one 28 x 28 arc, and no kernel filtration to grow level by level."""
    r = conjugate(random.Random(2811), realize("J", 1, StringBlock(1, 28)))
    assert rank(r.tensors["v1"]) == 27
    t0 = time.monotonic()
    assert blocks_of(r) == {StringBlock(1, 28): 1}
    assert time.monotonic() - t0 < 2.5


def test_isomorphic_classifies_once(monkeypatch):
    """One classify_diagram call per isomorphic call, however many
    components: each component's shape comes from that one call."""
    dmod, cmod = sys.modules["tdr.decompose"], sys.modules["tdr.classify"]
    calls = []

    def counted(d):
        calls.append(d)
        return real(d)

    real = cmod.classify_diagram
    monkeypatch.setattr(dmod, "classify_diagram", counted)
    monkeypatch.setattr(cmod, "classify_diagram", counted)
    d = validate_diagram({"vertices": ["a1", "b1", "b2", "c1"], "wires": [
        {"id": "a", "tail": "a1", "head": "a1"},
        {"id": "b", "tail": "b1", "head": "b2"},
        {"id": "b0", "tail": None, "head": "b1"},
        {"id": "c", "tail": "c1", "head": None}]})
    rng = random.Random(7)
    r = validate_representation(d, {"a": 2, "b": 1, "b0": 2, "c": 1}, {
        "a1": Matrix.from_rows([[2, 1], [0, 2]]),
        "b1": Matrix.from_rows([[1, 1]]), "b2": Matrix.from_rows([[1]]),
        "c1": Matrix.from_rows([[3]])})
    for other, same in ((conjugate(rng, r), True), (r, True),
                        (validate_representation(d, r.dims, dict(
                            r.tensors, b1=Matrix.from_rows([[0, 0]]))), False)):
        calls.clear()
        assert isomorphic(r, other) is same
        assert len(calls) == 1


def test_reorientation_and_sum_mode_make_one_pass(monkeypatch):
    """decompose reverses every wire that points against its traversal in
    one reverse_wire_rep call, and none on a co-oriented rep; sum-mode
    gen_random sums all its blocks in one direct_sum call.  The calls are
    counted through the module attributes, as the benchmark's tracer
    counts them, so its open-paths and cli-session workloads keep reaching
    both functions."""
    # tdr.decompose the attribute is the function, so take the modules
    dmod, gmod = sys.modules["tdr.decompose"], sys.modules["tdr.generate"]
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)
        return wrapper

    monkeypatch.setattr(dmod, "reverse_wire_rep", counted(dmod.reverse_wire_rep))
    monkeypatch.setattr(gmod, "direct_sum", counted(gmod.direct_sum))
    d = reverse_wire(canonical_diagram("A0", 4), "e1", "e3", "e4")
    rep, key = gen_random(d, {w.id: 2 for w in d.wires}, 3, "sum")
    assert sum(k for _, k in key.blocks) >= 3
    assert calls.count("direct_sum") == 1
    calls.clear()
    assert decompose(rep) == key
    assert calls == ["reverse_wire_rep"]
    calls.clear()
    assert decompose(realize("A0", 4, Interval(2, 4))) == \
        Decomposition.of([Interval(2, 4)])
    assert calls == []


def test_open_paths_reach_rank_and_products_only(monkeypatch):
    """decompose of base-changed, partly reversed A0 and A1 interval sums
    calls exactalg.rank and Matrix.__matmul__, and never rref, factor_poly
    or contract: the layers the benchmark's open-paths workload must and
    must not reach.  Each function is counted in every tdr module that
    holds it, and the product on the Matrix class, as the benchmark's
    tracer counts them."""
    emod, rmod = sys.modules["tdr.exactalg"], sys.modules["tdr.representation"]
    calls = dict.fromkeys(("rank", "matmul", "rref", "factor_poly", "contract"), 0)

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    rng = random.Random(2212)
    reps = []
    for family, n, descs in [
            ("A0", 6, [Interval(1, 3), Interval(2, 7), Interval(4, 4), Interval(2, 5)]),
            ("A1", 5, [Interval(1, 6), Interval(2, 4), Interval(3, 5), Interval(5, 5)])]:
        r = realize(family, n, descs[0])
        for desc in descs[1:]:
            r = direct_sum(r, realize(family, n, desc))
        r = conjugate(rng, r)
        for wid in ("e2", "e3", "e5"):
            r = reverse_wire_rep(r, wid)
        reps.append((r, Decomposition.of(descs)))
    for name, real in (("rank", emod.rank), ("rref", emod.rref),
                       ("factor_poly", emod.factor_poly), ("contract", rmod.contract)):
        wrapper = counted(name, real)
        for modname, mod in list(sys.modules.items()):
            if mod is not None and (modname == "tdr" or modname.startswith("tdr.")):
                for attr, val in list(vars(mod).items()):
                    if val is real:
                        monkeypatch.setattr(mod, attr, wrapper)
    monkeypatch.setattr(Matrix, "__matmul__", counted("matmul", Matrix.__matmul__))
    for r, want in reps:
        assert decompose(r) == want
    assert calls["rank"] and calls["matmul"], calls
    assert calls["rref"] == calls["factor_poly"] == calls["contract"] == 0, calls
