import random
import sys
import tracemalloc
from math import gcd

import pytest

from tdr.errors import (
    NotNilpotent,
    NotSquare,
    ShapeMismatch,
    SingularMatrix,
    ZeroPolynomial,
)
from tdr.exactalg import (
    Matrix,
    Poly,
    block_diag,
    chains,
    charpoly,
    column_space,
    companion,
    coords_in_basis,
    det,
    factor_poly,
    graded_jordan_chains,
    inverse,
    kernel_filtration,
    new_columns,
    nullspace,
    preimage,
    rank,
    rational_canonical,
    rref,
    stable_image,
)
from tdr.rational import Q


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return Matrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def rand_invertible(rng, n):
    while True:
        m = rand_matrix(rng, n, n)
        if det(m) != 0:
            return m


# ---------------------------------------------------------------------------
# matrices

def test_from_rows_rejects_ragged():
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows([[1, 2], [3]])


@pytest.mark.parametrize("rows, cols, data", [
    (1, 1, [[1, 2]]), (2, 2, [[1, 2]]), (1, 2, [[1, 2], [3, 4]]),
    (2, 2, [[1, 2], [3]]), (0, 3, [[1, 2, 3]]), (1, 0, [])])
def test_matrix_checks_its_data_shape(rows, cols, data):
    # a mis-shaped matrix would pass a shape check on rows and cols and
    # then be read past its data, or not to its end
    with pytest.raises(ShapeMismatch):
        Matrix(rows, cols, data)


@pytest.mark.parametrize("rows, cols, data", [
    (1.0, 1, [[2]]), (1, 1.0, [[2]]), (True, 1, [[2]]), (1, True, [[2]]),
    (1, 1, [["x"]]), (1, 1, [[float("nan")]]), (1, 1, [[float("inf")]]),
    (1, 1, [[None]])])
def test_matrix_refuses_a_non_int_side_and_non_rational_data(rows, cols, data):
    # a float side equals its int, so it would pass every later shape check
    # and break the kernels; every bad input is one error, as for a bad shape
    with pytest.raises(ShapeMismatch):
        Matrix(rows, cols, data)


@pytest.mark.parametrize("coeffs", [("x",), (1, None), (float("nan"),), 5])
def test_poly_refuses_coefficients_that_are_not_rationals(coeffs):
    with pytest.raises(ShapeMismatch):
        Poly(coeffs)


def test_zeros_without_rows_allocates_no_row():
    # a declared 0 x cols tensor must not cost memory in cols
    tracemalloc.start()
    try:
        m = Matrix.zeros(0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.rows, m.cols, m.entries()) == (0, 10**6, ()) and peak < 10**5


def test_matmul_shapes():
    a = rand_matrix(random.Random(1), 2, 3)
    b = rand_matrix(random.Random(2), 3, 4)
    assert (a @ b).rows == 2 and (a @ b).cols == 4
    with pytest.raises(ShapeMismatch):
        b @ a


def test_kron_first_factor_slowest():
    n = Matrix.from_rows([[0, 1], [0, 0]])
    k = n.kron(Matrix.identity(2))
    # entry (i*2+p, j*2+q) = n[i][j] * I[p][q]
    e = k.entries()
    assert e[0][2] == 1 and e[1][3] == 1
    assert e[0][1] == 0 and e[2][0] == 0


def test_kron_mixed_product():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_matrix(rng, 2, 3)
        b = rand_matrix(rng, 3, 2)
        c = rand_matrix(rng, 2, 2)
        d = rand_matrix(rng, 2, 3)
        assert a.kron(c) @ b.kron(d) == (a @ b).kron(c @ d)


def test_rank_oracles():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 5)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.from_rows([[1, 2], [2, 5]])) == 2


def test_det_oracles():
    assert det(Matrix.from_rows([[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == 5
    assert det(Matrix.identity(4)) == 1
    assert det(Matrix(0, 0, ())) == 1
    with pytest.raises(NotSquare):
        det(Matrix.zeros(2, 3))


def test_det_multiplicative():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert det(a @ b) == det(a) * det(b)


def test_inverse_round_trip():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        m = rand_invertible(rng, n)
        assert inverse(m) @ m == Matrix.identity(n)
    with pytest.raises(SingularMatrix):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    assert inverse(Matrix(0, 0, ())) == Matrix(0, 0, ())


def test_rref_and_nullspace():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    red, pivots = rref(m)
    assert pivots == (0,)
    assert red.entries()[0] == (Q(1), Q(2), Q(3))
    ns = nullspace(m)
    assert ns.cols == 2
    assert (m @ ns).is_zero()
    assert nullspace(Matrix.identity(3)).cols == 0


def test_solve_linear():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    b = Matrix.column([3, 1])
    assert a @ coords_in_basis(a, b) == b
    with pytest.raises(ShapeMismatch):
        coords_in_basis(Matrix.from_rows([[1], [1]]), Matrix.column([0, 1]))


def test_column_space_and_coords():
    m = Matrix.from_rows([[1, 2], [1, 2]])
    cs = column_space(m)
    assert cs.cols == 1
    v = Matrix.column([3, 3])
    coords = coords_in_basis(cs, v)
    assert cs @ coords == v


def test_new_columns():
    base = Matrix.from_rows([[1], [1]])
    assert new_columns(base, Matrix.identity(2)) == [0]


def test_preimage():
    m = Matrix.from_rows([[1, 0], [0, 0]])
    space = Matrix.from_rows([[1], [0]])
    pre = preimage(m, space)
    assert pre.cols == 2  # everything maps into span(e1)
    pre0 = preimage(m, Matrix.zeros(2, 0))
    assert pre0.cols == 1  # kernel


def _planted_fitting(rng, n):
    """An invertible part of random size k and a strictly upper triangular
    (nilpotent) rest, hidden by a base change: invertible (k = n),
    nilpotent (k = 0) and mixed cases; returns the matrix and k."""
    k = rng.randint(0, n)
    nil = [[rng.randint(-2, 2) if j > i else 0 for j in range(n - k)]
           for i in range(n - k)]
    parts = [rand_invertible(rng, k), Matrix(n - k, n - k, nil)]
    g = rand_invertible(rng, n)
    return g @ block_diag(parts) @ inverse(g), k


def _eventual(m):
    """The stable image and stable kernel of one square matrix, the
    kernel as the one-grade case of kernel_filtration."""
    return stable_image(m), kernel_filtration([m])[1][0]


def test_eventual_image_and_kernel():
    """Two hand cases, then im(m^n) and ker(m^n) of seeded n x n matrices
    against sympy's powers and nullspaces."""
    import sympy
    m = Matrix.from_rows([[1, 0], [0, 0]])
    assert [x.cols for x in _eventual(m)] == [1, 1]
    n = Matrix.from_rows([[0, 1], [0, 0]])
    assert [x.cols for x in _eventual(n)] == [0, 2]
    with pytest.raises(NotSquare):
        stable_image(Matrix.from_rows([[1, 0], [0, 1], [0, 0]]))
    rng = random.Random(611)
    for case in range(70):
        n = case % 7
        m, k = _planted_fitting(rng, n)
        image, kernel = _eventual(m)
        assert (image.cols, kernel.cols) == (k, n - k), case
        _exact(image, kernel)
        if not n:
            continue
        power = _sym(sympy, m) ** n
        assert image == column_space(_from_sym(power)), case
        assert len(power.nullspace()) == kernel.cols == rank(kernel), case
        assert (power * _sym(sympy, kernel)).is_zero_matrix, case


def _monodromy_at(blocks, a):
    """The composite of a graded tuple's blocks once around from grade a."""
    mono = blocks[a]
    for k in range(1, len(blocks)):
        mono = blocks[(a + k) % len(blocks)] @ mono
    return mono


def test_stable_image_and_kernel_split_every_grade():
    """Fitting per grade: the stable image of a planted graded tuple's
    monodromy at a grade and that grade's stable kernel are complements."""
    rng = random.Random(612)
    for case in range(30):
        grades, band = rng.randint(1, 3), rng.randint(0, 2)
        blocks = _planted_graded(rng, grades, band)
        dims = [b.cols for b in blocks]
        _, kernels = kernel_filtration(blocks)
        for a in range(grades):
            image = stable_image(_monodromy_at(blocks, a))
            split = image.hstack(kernels[a])
            assert (image.cols, split.cols, rank(split)) == (band, dims[a], dims[a]), case


def test_block_diag():
    b = block_diag([Matrix.identity(1), Matrix.from_rows([[2, 3]])])
    assert (b.rows, b.cols) == (2, 3)
    assert b.entries()[1] == (Q(0), Q(2), Q(3))


# ---------------------------------------------------------------------------
# polynomials

def test_poly_arithmetic():
    x = Poly.x()
    p = (x - Poly((1,))) * (x + Poly((1,)))
    assert p == Poly((Q(-1), Q(0), Q(1)))
    assert (x ** 3).degree() == 3


def test_poly_eval_matrix():
    x = Poly.x()
    m = Matrix.from_rows([[0, 1], [0, 0]])
    assert (x * x).eval_matrix(m).is_zero()


def test_charpoly_of_companion():
    p = Poly((Q(2), Q(-3), Q(1)))  # x^2 - 3x + 2
    assert charpoly(companion(p)) == p
    assert charpoly(Matrix.identity(2)) == Poly((Q(1), Q(-2), Q(1)))


def test_factor_poly():
    x = Poly.x()
    p = Poly((Q(-1), Q(0), Q(1)))  # x^2 - 1
    fac = factor_poly(p)
    assert fac == [(x - Poly((1,)), 1), (x + Poly((1,)), 1)]
    # irreducible stays whole
    assert factor_poly(Poly((Q(1), Q(0), Q(1)))) == [(Poly((Q(1), Q(0), Q(1))), 1)]
    with pytest.raises(ZeroPolynomial):
        factor_poly(Poly(()))


def test_linear_factor_poly_agrees_with_sympy_without_calling_it(monkeypatch):
    """A linear polynomial is irreducible: its factorization is its monic
    self, as sympy's factor_list (the oracle) says, without a sympy call."""
    import sympy

    rng = random.Random(15)
    x = sympy.Symbol("x")
    polys, oracle = [], []
    for _ in range(300):
        a = Q(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 30))
        p = Poly((Q(rng.randint(-60, 60), rng.randint(1, 30)), a))
        _, facs = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                              for c in reversed(p.coeffs)], x,
                             domain="QQ").factor_list()
        polys.append(p)
        oracle.append([(Poly([Q(int(c.p), int(c.q)) for c in
                              reversed(f.all_coeffs())]).monic(), int(k))
                       for f, k in facs])

    def refuse(*args, **kwargs):
        raise AssertionError("sympy was called on a linear polynomial")

    monkeypatch.setattr(sympy.Poly, "factor_list", refuse)
    assert [factor_poly(p) for p in polys] == oracle


def test_factor_poly_multiplies_back():
    rng = random.Random(13)
    for _ in range(15):
        coeffs = [Q(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        coeffs.append(Q(1))
        p = Poly(tuple(coeffs))
        prod = Poly((Q(1),))
        for f, mult in factor_poly(p):
            prod = prod * f ** mult
        assert prod == p


def _sympy_factors(sympy, p):
    """sympy's factor_list of p as monic (Poly, multiplicity) pairs in
    factor_poly's order."""
    _, facs = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                          for c in reversed(p.coeffs)], sympy.Symbol("x"),
                         domain="QQ").factor_list()
    out = [(Poly([Q(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]).monic(),
            int(k)) for f, k in facs]
    return sorted(out, key=lambda fm: (fm[0].degree(), fm[0].coeffs, fm[1]))


def test_factor_poly_agrees_with_sympy():
    """factor_poly against sympy's factor_list: products and powers of
    criterion 3's irreducibles, random rational factors, scaled by rationals
    of either sign (degree <= 12), Swinnerton-Dyer polynomials of degree 4
    and 8 (irreducible, but split into linear and quadratic factors mod
    every prime), and coefficients of 40 digits and more."""
    import sympy
    from test_acceptance import IRREDUCIBLE

    rng = random.Random(16)

    def scale():
        return Q(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))

    def rand_factor(digits):
        top = 10 ** digits
        return Poly([Q(rng.randint(-top, top), rng.randint(1, top))
                     for _ in range(rng.randint(1, 4))] + [scale()])

    polys = [Poly((1, 0, -10, 0, 1)), Poly((576, 0, -960, 0, 352, 0, -40, 0, 1)),
             Poly((1, 0, -10, 0, 1)) * Poly((-2, 0, 0, 1)) ** 2]
    while len(polys) < 160:
        p = Poly((scale(),))
        for _ in range(rng.randint(1, 4)):
            f = rng.choice(IRREDUCIBLE) if rng.random() < 0.6 else rand_factor(1)
            p = p * f ** rng.randint(1, 3)
        if p.degree() <= 12:
            polys.append(p)
    for _ in range(20):
        p = rand_factor(40) * rand_factor(40) * rng.choice(IRREDUCIBLE)
        assert max(abs(c.numerator) for c in p.coeffs) >= 10 ** 39
        polys.append(p * Poly((Q(-(10 ** 45), 7),)))
    for p in polys:
        assert factor_poly(p) == _sympy_factors(sympy, p), p
    assert factor_poly(polys[1]) == [(polys[1], 1)]


def test_rational_canonical_oracles():
    two = Matrix.from_rows([[2, 0], [0, 2]])
    xm2 = Poly((Q(-2), Q(1)))
    assert rational_canonical(two) == [(xm2, 1), (xm2, 1)]
    nil = Matrix.from_rows([[0, 1], [0, 0]])
    assert rational_canonical(nil) == [(Poly((Q(0), Q(1))), 2)]
    jordan = Matrix.from_rows([[2, 1], [0, 2]])
    assert rational_canonical(jordan) == [(xm2, 2)]


def test_rational_canonical_similarity_invariant():
    rng = random.Random(17)
    for _ in range(10):
        m = rand_matrix(rng, 3, 3, -3, 3)
        g = rand_invertible(rng, 3)
        conj = g @ m @ inverse(g)
        assert rational_canonical(m) == rational_canonical(conj)


# ---------------------------------------------------------------------------
# graded chains

def test_graded_chains_single_grade():
    n = Matrix.from_rows([[0, 1], [0, 0]])
    chains = graded_jordan_chains([n])
    assert len(chains) == 1
    assert chains[0].start == 1 and chains[0].length == 2


def test_graded_chains_two_zero_grades():
    z12 = Matrix.zeros(1, 1)
    chains = graded_jordan_chains([z12, z12])
    assert sorted((c.start, c.length) for c in chains) == [(1, 1), (2, 1)]


def test_graded_chains_shift_cycle():
    # V1 -> V2 identity, V2 -> V1 zero: one chain of length 2 starting at 1
    up = Matrix.identity(1)
    down = Matrix.zeros(1, 1)
    chains = graded_jordan_chains([up, down])
    assert [(c.start, c.length) for c in chains] == [(1, 2)]


def test_graded_chains_need_nilpotent():
    with pytest.raises(NotNilpotent):
        graded_jordan_chains([Matrix.identity(2)])


def test_graded_chains_form_basis():
    rng = random.Random(23)
    for _ in range(10):
        dims = [rng.randint(1, 3) for _ in range(3)]
        blocks = []
        for a in range(3):
            rows, cols = dims[(a + 1) % 3], dims[a]
            m = rand_matrix(rng, rows, cols, 0, 1)
            blocks.append(m)
        comp = blocks[2] @ blocks[1] @ blocks[0]
        k = 1
        power = comp
        while not power.is_zero() and k < 10:
            power = comp @ power
            k += 1
        if not power.is_zero():
            continue  # not nilpotent, skip draw
        chains = graded_jordan_chains(blocks)
        per_grade = {a: [] for a in range(3)}
        for c in chains:
            for j, vec in enumerate(c.vectors):
                per_grade[(c.start - 1 + j) % 3].append(vec)
        for a in range(3):
            if dims[a] == 0:
                assert not per_grade[a]
                continue
            vecs = per_grade[a]
            assert len(vecs) == dims[a]
            stack = vecs[0]
            for v in vecs[1:]:
                stack = stack.hstack(v)
            assert rank(stack) == dims[a]


# ---------------------------------------------------------------------------
# differential test against sympy

def _rand_entry(rng, zero_share):
    if rng.random() < zero_share:
        return Q(0)
    return Q(rng.randint(-9, 9), rng.randint(1, 9))


def _echelon_product(rng, rows, cols):
    """B @ R with R in echelon form: rank-deficient, free columns between
    pivots, and (with B's first row zero) a zero first row forcing a swap."""
    k = rng.randint(0, min(rows, cols))
    pivots = sorted(rng.sample(range(cols), k))
    r = [[Q(0)] * cols for _ in range(k)]
    for i, p in enumerate(pivots):
        r[i][p] = Q(rng.randint(1, 9), rng.randint(1, 9))
        for j in range(p + 1, cols):
            r[i][j] = _rand_entry(rng, 0.2)
    b = [[_rand_entry(rng, 0.3) for _ in range(k)] for _ in range(rows)]
    if rows and rng.random() < 0.5:
        b[0] = [Q(0)] * k
    return [[sum((b[i][t] * r[t][j] for t in range(k)), Q(0)) for j in range(cols)]
            for i in range(rows)]


def _rand_grid(rng, rows, cols):
    kind = rng.choice(("zero", "dense", "sparse", "echelon", "echelon"))
    if kind == "zero":
        return [[Q(0)] * cols for _ in range(rows)]
    if kind == "echelon":
        return _echelon_product(rng, rows, cols)
    share = 0.1 if kind == "dense" else 0.7
    return [[_rand_entry(rng, share) for _ in range(cols)] for _ in range(rows)]


def _tdr(rows, cols, grid):
    return Matrix(rows, cols, tuple(tuple(row) for row in grid))


def _sym(sympy, m):
    return sympy.Matrix(m.rows, m.cols, [
        sympy.Rational(int(x.numerator), int(x.denominator))
        for row in m.entries() for x in row])


def _q(r):
    return Q(int(r.p), int(r.q))


def _from_sym(s):
    return Matrix(s.rows, s.cols, tuple(
        tuple(_q(s[i, j]) for j in range(s.cols)) for i in range(s.rows)))


def _exact(*matrices):
    """Each matrix in reduced form: int rows of its shape over a positive
    int denominator, with gcd 1 across the numerators and denominator."""
    for m in matrices:
        assert type(m.den) is int and m.den > 0
        assert len(m.nums) == m.rows
        assert all(len(row) == m.cols and all(type(x) is int for x in row)
                   for row in m.nums)
        assert gcd(m.den, *(x for row in m.nums for x in row)) == 1


def test_kernels_agree_with_sympy():
    import sympy
    rng = random.Random(2024)
    shapes = [(0, 0), (0, 3), (4, 0), (1, 1), (8, 8)]
    shapes += [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(170)]
    for rows, cols in shapes:
        m = _tdr(rows, cols, _rand_grid(rng, rows, cols))
        s = _sym(sympy, m)

        red, pivots = rref(m)
        s_red, s_pivots = s.rref()
        assert (red, pivots) == (_from_sym(s_red), tuple(s_pivots))
        assert rank(m) == s.rank() == len(pivots)

        ns = nullspace(m)
        assert ns == _from_sym(sympy.Matrix.hstack(sympy.zeros(cols, 0), *s.nullspace()))
        cs = column_space(m)
        s_cs = s.T.rref()[0][:len(pivots), :].T if rows and cols else sympy.zeros(rows, 0)
        assert cs == _from_sym(s_cs)

        k = rng.randint(0, 3)
        b = _tdr(rows, k, _rand_grid(rng, rows, k))
        s_b = _sym(sympy, b)
        if s.row_join(s_b).rank() > s.rank():
            with pytest.raises(ShapeMismatch):
                coords_in_basis(m, b)
        else:
            # pivot variables solve the system, free variables are zero
            coords = coords_in_basis(m, b)
            assert s * _sym(sympy, coords) == s_b
            free = set(range(cols)) - set(pivots)
            assert all(not coords.entries()[j][t] for j in free for t in range(k))
            _exact(coords)

        other = _tdr(cols, k, _rand_grid(rng, cols, k))
        prod = m @ other
        assert prod == _from_sym(s * _sym(sympy, other))
        _exact(red, ns, cs, prod)

        if rows == cols:
            d = det(m)
            assert d == _q(s.det()) and type(d) is type(Q(0))
            x = sympy.Symbol("x")
            s_poly = s.charpoly(x).all_coeffs()[::-1]
            assert charpoly(m) == Poly(tuple(_q(c) for c in s_poly))
            if d:
                inv = inverse(m)
                assert inv == _from_sym(s.inv())
                _exact(inv)
            else:
                with pytest.raises(SingularMatrix):
                    inverse(m)

    # charpoly and det on 10 x 10 matrices with large entries
    x = sympy.Symbol("x")
    for _ in range(4):
        m = _tdr(10, 10, [[Q(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
                           if rng.random() < 0.8 else Q(0) for _ in range(10)]
                          for _ in range(10)])
        s = _sym(sympy, m)
        s_poly = s.charpoly(x).all_coeffs()[::-1]
        assert charpoly(m) == Poly(tuple(_q(c) for c in s_poly))
        assert det(m) == _q(s.det())


def _dependent_columns(rng, grid, rows, k):
    """grid's k columns plus repeats, combinations or zero columns of them,
    shuffled: a space whose columns are dependent."""
    cols = [[grid[i][j] for i in range(rows)] for j in range(k)]
    for _ in range(rng.randint(1, 3)):
        if not cols:
            cols.append([Q(0)] * rows)
        elif rng.random() < 0.5:
            cols.append(list(rng.choice(cols)))
        else:
            u, v = rng.choice(cols), rng.choice(cols)
            s, t = Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3), rng.randint(1, 3))
            cols.append([s * x + t * y for x, y in zip(u, v)])
    rng.shuffle(cols)
    return [[col[i] for col in cols] for i in range(rows)], len(cols)


def test_preimage_agrees_with_sympy():
    """preimage against the RREF of the transpose of the x-part of sympy's
    nullspace of [m | -space]."""
    import sympy
    rng = random.Random(3131)
    kinds = set()
    shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (3, 0, 0), (2, 2, 0)]
    shapes += [(rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 4))
               for _ in range(215)]
    for rows, cols, k in shapes:
        m_grid, s_grid = _rand_grid(rng, rows, cols), _rand_grid(rng, rows, k)
        if rows and rng.random() < 0.3:
            s_grid, k = _dependent_columns(rng, s_grid, rows, k)
        m, space = _tdr(rows, cols, m_grid), _tdr(rows, k, s_grid)
        s_m, s_space = _sym(sympy, m), _sym(sympy, space)
        null = s_m.row_join(-s_space).nullspace()
        xpart = sympy.Matrix.hstack(sympy.zeros(cols, 0), *(v[:cols, :] for v in null))
        red, pivots = xpart.T.rref()
        want = red[:len(pivots), :].T if pivots else sympy.zeros(cols, 0)
        got = preimage(m, space)
        assert got == _from_sym(want), (m, space)
        _exact(got)
        kinds.add("rank-deficient m" if s_m.rank() < min(rows, cols) else "full m")
        kinds.add("dependent space" if s_space.rank() < k else "independent space")
        kinds.add("empty space" if k == 0 else "space")
        kinds.add(f"rows {bool(rows)} cols {bool(cols)}")
    assert kinds >= {"rank-deficient m", "dependent space", "empty space",
                     "rows False cols True", "rows True cols False"}
    for k in (0, 1):
        with pytest.raises(ShapeMismatch):
            preimage(Matrix.identity(2), Matrix.zeros(3, k))


# ---------------------------------------------------------------------------
# canonical form

def _spelled(rng, x):
    """The rational x as a Q, an unreduced "p/q" string, or an int."""
    k = rng.randint(2, 6)
    ways = [x, f"{x.numerator * k}/{x.denominator * k}", Q(-x.numerator, -x.denominator)]
    if x.denominator == 1:
        ways.append(int(x))
    return rng.choice(ways)


def test_matrix_form_is_canonical():
    """However the entries are written, equal matrices are equal and hash
    alike, and every kernel returns the reduced form."""
    rng = random.Random(606)
    for case in range(150):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        grid = _rand_grid(rng, rows, cols)
        if case % 10 == 0:
            grid = [[Q(0)] * cols for _ in range(rows)]
        m = (Matrix.from_rows([[_spelled(rng, x) for x in row] for row in grid])
             if rows else Matrix.zeros(0, cols))
        other = Matrix(rows, cols, [[_spelled(rng, x) for x in row] for row in grid])
        k = rng.choice((-6, -1, 2, 35))
        scaled = Matrix.from_ints(rows, cols, [[x * k for x in row] for row in m.nums],
                                  m.den * k)
        assert m == other == scaled and hash(m) == hash(other) == hash(scaled)
        assert m.entries() == tuple(tuple(row) for row in grid)
        if not any(map(any, grid)):
            assert m.den == 1 and m == Matrix.zeros(rows, cols)
        _exact(m, other, scaled)

        b = _tdr(cols, 2, _rand_grid(rng, cols, 2))
        c = _tdr(rows, cols, _rand_grid(rng, rows, cols))
        outs = [rref(m)[0], m @ b, nullspace(m), column_space(m), m + c, m - c,
                -m, m.scale(Q(rng.randint(-9, 9), rng.randint(1, 9))),
                m.transpose(), m.kron(b), m.hstack(c),
                block_diag([m, b, c]), preimage(m, column_space(c)),
                m.submatrix(range(0, rows, 2), range(1, cols, 2))]
        if rank(m.hstack(c)) == rank(m):
            outs.append(coords_in_basis(m, c))
        if rows == cols:
            outs += [*_eventual(m), Poly((1, 2, 3)).eval_matrix(m)]
            if rows and det(m):
                outs.append(inverse(m))
        _exact(*outs)
        for out in outs:
            assert out == Matrix(out.rows, out.cols, out.entries())


# ---------------------------------------------------------------------------
# independence: new_columns and graded chains against rank growth

def _kept_by_rank(sympy, span, cands):
    """Candidate columns kept left to right by the rank-growth rule, with
    sympy's rank over QQ."""
    from sympy.polys.matrices import DomainMatrix

    def rank(m):
        return DomainMatrix.from_Matrix(m).convert_to(sympy.QQ).rank()

    s = _sym(sympy, span)
    r = rank(s)
    kept = []
    for j in range(cands.cols):
        grown = sympy.Matrix.hstack(s, _sym(sympy, cands.submatrix(range(cands.rows), (j,))))
        if rank(grown) > r:
            kept.append(j)
            s, r = grown, r + 1
    return kept


def test_new_columns_agrees_with_rank_growth():
    import sympy
    rng = random.Random(707)
    for _ in range(80):
        n = rng.randint(1, 6)
        rng.randint(0, n)   # a column count no longer used, kept for the stream
        k = rng.randint(0, n)
        base = column_space(_tdr(n, k, _rand_grid(rng, n, k)))
        cols = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(("zero", "repeat", "base", "combo", "fresh"))
            pool = [base.submatrix(range(n), (j,)) for j in range(base.cols)] + cols
            if kind == "zero" or (kind != "fresh" and not pool):
                cols.append(Matrix.zeros(n, 1))
            elif kind in ("repeat", "base"):
                cols.append(rng.choice(pool))
            elif kind == "combo":
                acc = Matrix.zeros(n, 1)
                for v in pool:
                    acc = acc + v.scale(Q(rng.randint(-3, 3), rng.randint(1, 3)))
                cols.append(acc)
            else:
                cols.append(_tdr(n, 1, [[_rand_entry(rng, 0.3)] for _ in range(n)]))
        cands = Matrix.zeros(n, 0)
        for c in cols:
            cands = cands.hstack(c)
        assert new_columns(base, cands) == _kept_by_rank(sympy, base, cands)


def _planted_graded(rng, grades, band=0):
    """Graded shifts along random strings, plus an invertible band x band
    part on every grade, hidden by a base change per grade; nilpotent
    when band is 0."""
    dims, links = [0] * grades, []
    for _ in range(rng.randint(1, 4)):
        start, length = rng.randrange(grades), rng.randint(1, 2 * grades)
        prev = None
        for k in range(length):
            g = (start + k) % grades
            if prev is not None:
                links.append((prev, (g, dims[g])))
            prev = (g, dims[g])
            dims[g] += 1
    grids = [[[Q(0)] * dims[a] for _ in range(dims[(a + 1) % grades])]
             for a in range(grades)]
    for (a, i), (_, j) in links:
        grids[a][j][i] = Q(1)
    parts = [_tdr(dims[(a + 1) % grades], dims[a], grids[a]) for a in range(grades)]
    if band:
        parts = [block_diag([rand_invertible(rng, band), p]) for p in parts]
        dims = [band + d for d in dims]
    gs = [rand_invertible(rng, d) if d else Matrix.zeros(0, 0) for d in dims]
    return [gs[(a + 1) % grades] @ p @ inverse(gs[a]) for a, p in enumerate(parts)]


def test_graded_chains_make_no_confirming_sweep(monkeypatch):
    """On a nilpotent tuple the filtration stops once every grade is full:
    one preimage per grade and level above the zero level, no more."""
    emod = sys.modules["tdr.exactalg"]
    real, calls = emod.preimage, []

    def counted(m, space):
        calls.append(m.cols)
        return real(m, space)

    rng = random.Random(809)
    for case in range(20):
        grades = rng.randint(1, 4)
        blocks = _planted_graded(rng, grades)
        levels = len(kernel_filtration(blocks)[0][0])
        calls.clear()
        monkeypatch.setattr(emod, "preimage", counted)
        graded_jordan_chains(blocks)
        monkeypatch.setattr(emod, "preimage", real)
        assert len(calls) == grades * (levels - 1), case


def test_graded_chains_agree_with_rank_growth():
    """Each chain top is a filtration candidate that grows the span of the
    level below and the image of the grade before, left to right."""
    import sympy
    rng = random.Random(808)
    for _ in range(30):
        grades = rng.randint(1, 3)
        blocks = _planted_graded(rng, grades)
        dims = [b.cols for b in blocks]
        filt, _ = kernel_filtration(blocks)
        lmax = max(len(f) for f in filt) - 1

        def level(a, j):
            return filt[a][min(j, len(filt[a]) - 1)]

        want = []
        for ell in range(lmax, 0, -1):
            for a in range(grades):
                prev = (a - 1) % grades
                span = level(a, ell - 1).hstack(blocks[prev] @ level(prev, ell + 1))
                cand = level(a, ell)
                want += [(a + 1, ell, cand.submatrix(range(dims[a]), (j,)))
                         for j in _kept_by_rank(sympy, span, cand)]
        want.sort(key=lambda t: (t[0], -t[1]))
        chains = graded_jordan_chains(blocks)
        assert [(c.start, c.length, c.vectors[0]) for c in chains] == want
        for c in chains:
            _exact(*c.vectors)


def _nilpotent_part(blocks):
    """The blocks on their stable kernels, in the kernels' canonical bases."""
    n = len(blocks)
    _, kers = kernel_filtration(blocks)
    return [coords_in_basis(kers[(a + 1) % n], b @ kers[a])
            for a, b in enumerate(blocks)]


def test_chains_agree_with_graded_jordan_chains():
    """chains, from ranks of composites alone, against the Jordan chains
    that chain_tops picks from the nilpotent part's kernel filtration: on
    1-5-grade tuples with a planted invertible part, on random tuples, and
    on random paths closed by a zero block."""
    rng = random.Random(1212)
    seen = set()
    for case in range(120):
        grades, kind = case % 5 + 1, ("planted", "random", "path")[case // 5 % 3]
        if kind == "planted":
            blocks = _planted_graded(rng, grades, rng.randint(0, 2))
        else:
            dims = [rng.randint(0, 4) for _ in range(grades)]
            blocks = [_tdr(dims[(a + 1) % grades], dims[a],
                           _rand_grid(rng, dims[(a + 1) % grades], dims[a]))
                      for a in range(grades)]
            if kind == "path":
                blocks[-1] = Matrix.zeros(dims[0], dims[-1])
        stable = stable_image(_monodromy_at(blocks, 0)).cols
        got = chains(blocks, stable)
        want = [(c.start, c.length) for c in graded_jordan_chains(_nilpotent_part(blocks))]
        assert got == sorted(got) == sorted(want), case
        seen.add(kind)
        if stable and got:
            seen.add("invertible part and chains")
        if any(length > grades for _, length in got):
            seen.add("chain passing a grade twice")
    assert seen == {"planted", "random", "path", "invertible part and chains",
                    "chain passing a grade twice"}


_IRREDUCIBLE = ((0, 1), (-2, 1), (1, 1), (1, 0, 1), (-2, 0, 1), (1, 1, 1))


def _planted_square(rng, n):
    """Companion blocks of p^s for a few irreducible p, hidden by a base
    change, so elementary divisors repeat and powers exceed 1; a third of
    the cases are plain random grids instead."""
    if n == 0:
        return Matrix(0, 0, ())
    if rng.random() < 1 / 3:
        return _tdr(n, n, _rand_grid(rng, n, n))
    blocks, left = [], n
    while left:
        p = Poly(tuple(Q(c) for c in rng.choice(_IRREDUCIBLE)))
        s = rng.randint(1, 3)
        if p.degree() * s <= left:
            blocks.append(companion(p ** s))
            left -= p.degree() * s
    g = rand_invertible(rng, n)
    return g @ block_diag(blocks) @ inverse(g)


def test_rational_canonical_agrees_with_sympy():
    """Elementary divisors against sympy's invariant factors of xI - M
    over Q[x], each factored into irreducible powers."""
    import sympy
    from sympy.matrices.normalforms import invariant_factors
    x = sympy.Symbol("x")
    rng = random.Random(4242)
    for case in range(60):
        n = case % 6
        m = _planted_square(rng, n)
        want = []
        if n:
            for f in invariant_factors(x * sympy.eye(n) - _sym(sympy, m),
                                       domain=sympy.QQ[x]):
                for p, e in sympy.Poly(f, x, domain="QQ").factor_list()[1]:
                    want.append((tuple(_q(c) for c in reversed(p.monic().all_coeffs())), e))
        got = [(p.coeffs, s) for p, s in rational_canonical(m)]
        assert sorted(got) == sorted(want), (case, m)
