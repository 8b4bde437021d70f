"""Explicit wildness embeddings.

A pair of n x n matrices is packed into a pair of 6n x 6n matrices
(Y1, Y2) whose simultaneous similarity is equivalent to simultaneous
similarity of the original pair, but whose rank profile (rank Y1 = 4n,
rank of nonzero pencil combinations 5n) forces any isomorphism of the
derived loop representations to respect the packing.  The pair is then
carried onto the needle (loop + dangling wire of dimension 2) or the
figure eight (two loops) as a single vertex tensor.

Similarity witnesses translate to exact representation isomorphisms:
the loop factor acts by I_6 (x) P, the dimension-2 wire by the identity.
"""

import random
from typing import NamedTuple

from .errors import NotASimilarity, ShapeMismatch
from .exactalg import Matrix, block_diag, det, inverse, nullspace
from .rational import Q, ZERO
from .representation import Representation, check_size, intertwining_system
from .semigraph import TensorDiagram, Wire


class MatrixPair(NamedTuple):
    a: Matrix
    b: Matrix


def _check_pair(p):
    if p.a.rows != p.a.cols or p.b.rows != p.b.cols or p.a.rows != p.b.rows:
        raise ShapeMismatch("pair must be two square matrices of equal size")
    return p.a.rows


# the 4 x 4 0/1 patterns S, E_31 and E_42 of build_Y_pair's last 4n
_SHIFT, _AT_31, _AT_42 = (
    Matrix(4, 4, [[int((i, j) in cells) for j in range(4)] for i in range(4)])
    for cells in (((1, 0), (2, 1), (3, 2)), ((2, 0),), ((3, 1),)))


def build_Y_pair(p):
    """(Y1, Y2) = (X1 + C1, X2 + C2(A, B)), 6n x 6n, as block diagonals.

    X1 = diag(I_n, 0, 0), X2 = diag(0, I_n, 0); on the last 4n, C1 is
    S (x) I_n, identity blocks on the first block subdiagonal, and C2 is
    E_31 (x) A + E_42 (x) B, A at block (3,1) and B at block (4,2).
    rank(Y1) = 4n always.
    """
    n = _check_pair(p)
    eye, zero = Matrix.identity(n), Matrix.zeros(n, n)
    return (block_diag([eye, zero, _SHIFT.kron(eye)]),
            block_diag([zero, eye, _AT_31.kron(p.a) + _AT_42.kron(p.b)]))


def needle_diagram():
    return TensorDiagram(("v1",), (Wire("e1", "v1", "v1"),
                                   Wire("e2", "v1", None)))


def eight_diagram():
    return TensorDiagram(("v1",), (Wire("e1", "v1", "v1"),
                                   Wire("e2", "v1", "v1")))


def _packed(p, d, u1, u2):
    """The rep of d, dims (6n, 2), whose one tensor Y1 (x) u1 + Y2 (x) u2
    is checked against the cap before it is built."""
    n = _check_pair(p)
    check_size("v1", 36 * n * n * u1.rows * u1.cols)
    y1, y2 = build_Y_pair(p)
    return Representation(d, {"e1": 6 * n, "e2": 2},
                          {"v1": y1.kron(u1) + y2.kron(u2)})


def needle_rep_from_pair(p):
    """Needle representation Y1 (x) u1 + Y2 (x) u2, dims (6n, 2)."""
    return _packed(p, needle_diagram(), Matrix.column([1, 0]),
                   Matrix.column([0, 1]))


def eight_rep_from_pair(p):
    """Figure-eight representation Y1 (x) E11 + Y2 (x) E12, dims (6n, 2)."""
    return _packed(p, eight_diagram(), Matrix.from_rows([[1, 0], [0, 0]]),
                   Matrix.from_rows([[0, 1], [0, 0]]))


def eight_tuple(rep):
    """Unpack a figure-eight vertex into (M_11, M_12, M_21, M_22).

    The vertex tensor is sum_k M_k (x) E_k over the four elementary
    matrices of the dimension-2 loop, enumerated row-major.
    """
    m = rep.tensors["v1"]
    d1 = rep.dims["e1"]
    return tuple(m.submatrix(range(i, 2 * d1, 2), range(j, 2 * d1, 2))
                 for i in range(2) for j in range(2))


def mix_tuple(mats, g):
    """Mixing action of GL(2) on a packed 4-tuple: M'_k = sum_j h[k,j] M_j.

    h = g (x) (g^{-1})^T is exactly the change the dimension-2 loop factor
    induces on the elementary-matrix coordinates under conjugation by g.
    """
    h = g.kron(inverse(g).transpose()).entries()
    out = []
    for k in range(4):
        acc = Matrix.zeros(mats[0].rows, mats[0].cols)
        for j in range(4):
            acc = acc + mats[j].scale(h[k][j])
        out.append(acc)
    return tuple(out)


def iso_from_similarity(p, pair1, pair2):
    """Group element sending the needle rep of pair1 to that of pair2.

    Requires the exact intertwining P A1 = A2 P and P B1 = B2 P with P
    invertible; the loop factor is the block-diagonal I_6 (x) P.
    """
    n = _check_pair(pair1)
    if _check_pair(pair2) != n or p.rows != n or p.cols != n:
        raise NotASimilarity("witness size does not match the pairs")
    if p.rows and det(p) == ZERO:
        raise NotASimilarity("witness is singular")
    if p @ pair1.a != pair2.a @ p or p @ pair1.b != pair2.b @ p:
        raise NotASimilarity("witness does not intertwine the pairs")
    return {"e1": Matrix.identity(6).kron(p), "e2": Matrix.identity(2)}


def sim_similarity_solve(pair1, pair2):
    """Search for invertible P with P A1 = A2 P and P B1 = B2 P.

    Solves the linear intertwining system exactly, then looks for an
    invertible point: each basis element first, then 40 seeded random
    small-integer combinations.  Returns None when none of those is
    invertible; that does not prove the pairs are not similar.
    """
    n = _check_pair(pair1)
    if _check_pair(pair2) != n:
        raise ShapeMismatch("pairs must have equal sizes")
    basis = nullspace(intertwining_system(
        [(pair1.a, pair2.a, 0, 0), (pair1.b, pair2.b, 0, 0)], n * n))
    cands = [Matrix.from_ints(n, n, [col[i * n:(i + 1) * n] for i in range(n)],
                              basis.den)
             for col in zip(*basis.nums)]
    for p in cands:
        if det(p) != ZERO:
            return p
    rng = random.Random(0x5EED)
    for _ in range(40):
        coeffs = [Q(rng.randrange(-4, 5)) for _ in cands]
        p = Matrix.zeros(n, n)
        for c, m in zip(coeffs, cands):
            p = p + m.scale(c)
        if det(p) != ZERO:
            return p
    return None
