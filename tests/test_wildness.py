import random
import tracemalloc

import pytest

from tdr.classify import classify_diagram
from tdr.errors import NotASimilarity, ShapeMismatch, TensorTooLarge
from tdr.exactalg import Matrix, det, inverse, rank
from tdr.rational import Q
from tdr.representation import (TENSOR_CAP, apply_group_element,
                                 validate_representation, vertex_shapes)
from tdr.wildness import (
    MatrixPair,
    build_Y_pair,
    eight_diagram,
    eight_rep_from_pair,
    eight_tuple,
    iso_from_similarity,
    mix_tuple,
    needle_diagram,
    needle_rep_from_pair,
    sim_similarity_solve,
)


def rand_matrix(rng, n):
    return Matrix.from_rows(
        [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, n):
    while True:
        m = rand_matrix(rng, n)
        if det(m) != 0:
            return m


def test_pair_validation():
    with pytest.raises(ShapeMismatch):
        build_Y_pair(MatrixPair(Matrix.identity(2), Matrix.identity(3)))
    with pytest.raises(ShapeMismatch):
        build_Y_pair(MatrixPair(Matrix.zeros(2, 3), Matrix.zeros(2, 3)))
    with pytest.raises(ShapeMismatch, match="^pairs must have equal sizes$"):
        sim_similarity_solve(MatrixPair(Matrix.identity(2), Matrix.identity(2)),
                             MatrixPair(Matrix.identity(3), Matrix.identity(3)))


def test_y_pair_layout_n1():
    a, b = Q(5), Q(7)
    y1, y2 = build_Y_pair(MatrixPair(Matrix.from_rows([[a]]),
                                     Matrix.from_rows([[b]])))
    assert y1.rows == y1.cols == 6
    e1, e2 = y1.entries(), y2.entries()
    ones = {(i, j) for i in range(6) for j in range(6) if e1[i][j] != 0}
    assert ones == {(0, 0), (3, 2), (4, 3), (5, 4)}
    assert all(e1[i][j] == 1 for i, j in ones)
    nz2 = {(i, j): e2[i][j]
           for i in range(6) for j in range(6) if e2[i][j] != 0}
    assert nz2 == {(1, 1): Q(1), (4, 2): a, (5, 3): b}


def test_y_pair_ranks():
    rng = random.Random(61)
    for n in (1, 2, 3):
        a = rand_matrix(rng, n)
        b = rand_matrix(rng, n)
        y1, y2 = build_Y_pair(MatrixPair(a, b))
        assert y1.rows == 6 * n
        assert rank(y1) == 4 * n
        assert rank(y2) == n + rank(a) + rank(b)


def test_pencil_rank_generic():
    rng = random.Random(67)
    for n in (1, 2):
        p = MatrixPair(rand_invertible(rng, n), rand_invertible(rng, n))
        y1, y2 = build_Y_pair(p)
        for aa, bb in ((1, 1), (2, 3), (-1, 5)):
            assert rank(y1.scale(Q(aa)) + y2.scale(Q(bb))) == 5 * n


def test_diagram_shapes_are_wild():
    nd = needle_diagram()
    cls = classify_diagram(nd)[0][1]
    assert cls.kind == "wild" and cls.witness.kind == "needle"
    ed = eight_diagram()
    cls = classify_diagram(ed)[0][1]
    assert cls.kind == "wild" and cls.witness.kind == "figure-eight"


def test_needle_rep_shape():
    p = MatrixPair(Matrix.from_rows([[2]]), Matrix.from_rows([[3]]))
    r = needle_rep_from_pair(p)
    assert r.dims == {"e1": 6, "e2": 2}
    assert r.tensors["v1"].rows == 12 and r.tensors["v1"].cols == 6
    y1, y2 = build_Y_pair(p)
    # loop slot slowest: row block i of the stacking is Y1 row i with Y2 row i
    t, e1, e2 = r.tensors["v1"].entries(), y1.entries(), y2.entries()
    for i in range(6):
        for j in range(6):
            assert t[2 * i][j] == e1[i][j]
            assert t[2 * i + 1][j] == e2[i][j]


@pytest.mark.parametrize("build, entries", [
    (needle_rep_from_pair, 72), (eight_rep_from_pair, 144)])
def test_packed_tensor_is_capped_before_allocation(build, entries):
    # the smallest n whose tensor of entries * n^2 is over the cap
    n = next(n for n in range(1, 1000) if entries * n * n > TENSOR_CAP)
    pair = MatrixPair(Matrix.zeros(n, n), Matrix.zeros(n, n))
    tracemalloc.start()
    try:
        with pytest.raises(TensorTooLarge):
            build(pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_iso_from_similarity_intertwines():
    rng = random.Random(71)
    for n in (1, 2):
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        g0 = rand_invertible(rng, n)
        pair1 = MatrixPair(a, b)
        pair2 = MatrixPair(g0 @ a @ inverse(g0), g0 @ b @ inverse(g0))
        g = iso_from_similarity(g0, pair1, pair2)
        r1 = needle_rep_from_pair(pair1)
        r2 = needle_rep_from_pair(pair2)
        assert apply_group_element(g, r1) == r2


def test_iso_from_similarity_rejects_junk():
    p = MatrixPair(Matrix.from_rows([[2]]), Matrix.from_rows([[3]]))
    q = MatrixPair(Matrix.from_rows([[2]]), Matrix.from_rows([[4]]))
    with pytest.raises(NotASimilarity):
        iso_from_similarity(Matrix.from_rows([[1]]), p, q)
    with pytest.raises(NotASimilarity):
        iso_from_similarity(Matrix.zeros(1, 1), p, p)
    with pytest.raises(NotASimilarity):
        iso_from_similarity(Matrix.identity(2), p, p)


def test_sim_similarity_solve():
    rng = random.Random(73)
    # self similarity always solvable
    p = MatrixPair(rand_matrix(rng, 2), rand_matrix(rng, 2))
    sol = sim_similarity_solve(p, p)
    assert sol is not None and det(sol) != 0
    assert sol @ p.a == p.a @ sol and sol @ p.b == p.b @ sol
    # conjugated pairs are recovered
    g0 = rand_invertible(rng, 2)
    q = MatrixPair(g0 @ p.a @ inverse(g0), g0 @ p.b @ inverse(g0))
    sol = sim_similarity_solve(p, q)
    assert sol is not None
    assert sol @ p.a == q.a @ sol and sol @ p.b == q.b @ sol
    # trace obstruction
    none = sim_similarity_solve(
        MatrixPair(Matrix.from_rows([[0]]), Matrix.from_rows([[0]])),
        MatrixPair(Matrix.from_rows([[1]]), Matrix.from_rows([[0]])))
    assert none is None


def test_eight_tuple_unpacks_row_major():
    d = eight_diagram()
    from tdr.representation import validate_representation
    r = validate_representation(
        d, {"e1": 1, "e2": 2},
        {"v1": Matrix.from_rows([[1, 2], [3, 4]])})
    assert [m.entries()[0][0] for m in eight_tuple(r)] == [1, 2, 3, 4]


def _eight_like(d, dims):
    return validate_representation(d, dims, {
        v: Matrix.zeros(*shape) for v, shape in vertex_shapes(d, dims).items()})


@pytest.mark.parametrize("build", [
    lambda: _eight_like(eight_diagram(), {"e1": 1, "e2": 3}),
    lambda: _eight_like(eight_diagram(), {"e1": 2, "e2": 1}),
    lambda: _eight_like(eight_diagram(), {"e1": 1, "e2": 0}),
    lambda: _eight_like(needle_diagram(), {"e1": 1, "e2": 2}),
    lambda: _eight_like(needle_diagram(), {"e1": 2, "e2": 3})],
    ids=["e2-dim-3", "e2-dim-1", "e2-dim-0", "needle", "needle-dim-3"])
def test_eight_tuple_refuses_what_it_cannot_unpack(build):
    """Only a figure eight whose e2 has dim 2 unpacks: a dim-3 e2 gave four
    1 x 1 blocks of its 3 x 3 vertex, and a dim-1 e2 or a needle an
    IndexError."""
    r = build()
    with pytest.raises(ShapeMismatch, match="figure-eight"):
        eight_tuple(r)


@pytest.mark.parametrize("mats, g", [
    ((Matrix.identity(1),) * 4, Matrix.identity(3)),
    ((Matrix.identity(1),) * 4, Matrix.identity(1)),
    ((Matrix.identity(1),) * 4, Matrix.zeros(2, 3)),
    ((Matrix.identity(1),) * 4, [[1, 0], [0, 1]]),
    ((Matrix.identity(1),) * 3, Matrix.identity(2)),
    ((Matrix.identity(1),) * 5, Matrix.identity(2)),
    ((Matrix.identity(1),) * 3 + (Matrix.identity(2),), Matrix.identity(2)),
    ((Matrix.identity(1),) * 3 + ([[1]],), Matrix.identity(2)),
    (None, Matrix.identity(2))],
    ids=["g-3x3", "g-1x1", "g-2x3", "g-grid", "three", "five", "two-shapes",
         "a-grid", "none"])
def test_mix_tuple_refuses_a_bad_g_or_tuple(mats, g):
    """A 3 x 3 identity g returned its input unchanged, and three matrices
    ended in an IndexError."""
    with pytest.raises(ShapeMismatch):
        mix_tuple(mats, g)


def test_mix_tuple_matches_conjugation():
    rng = random.Random(79)
    p = MatrixPair(rand_matrix(rng, 1), rand_matrix(rng, 1))
    r = eight_rep_from_pair(p)
    mats = eight_tuple(r)
    for _ in range(5):
        g = rand_invertible(rng, 2)
        mixed = mix_tuple(mats, g)
        conj = apply_group_element({"e1": Matrix.identity(6), "e2": g}, r)
        assert list(mixed) == list(eight_tuple(conj))
