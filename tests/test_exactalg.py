import random
import sys
import tracemalloc
from decimal import Decimal
from math import gcd, isqrt, lcm

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
    (1, 1, [[None]]), (1, 2, [[True, False]]), (1, 2, [["1/2", True]]),
    (2, 1, ((x,) for x in [True, False])), (1, 2, [iter([True, 2])]),
    (1, 2, iter([iter(["1/2", False])]))])
def test_matrix_refuses_a_non_int_side_and_non_rational_data(rows, cols, data):
    # a float side equals its int, so it would pass every later shape check
    # and break the kernels; every bad input is one error, as for a bad shape;
    # Fraction reads a bool as 0 or 1, but a bool is no rational, as
    # parse_rational and every other boundary hold, also in data or rows
    # that can be read only once
    with pytest.raises(ShapeMismatch, match="^(a matrix side must be|data is not "
                                            "rows of rationals$)"):
        Matrix(rows, cols, data)


def test_matrix_reads_one_shot_iterators_whole():
    """Data and rows that can be read only once give the matrix of the same
    data in lists, also when an entry is text that Q has to read."""
    for data in ([["1", "2/3"], [4, "-5"]], [[Q(1, 2), 7], [0.25, "3"]],
                 [["x", 1], [2, 3]], [[1, 2], [3]]):
        try:
            want = Matrix(2, 2, data)
        except ShapeMismatch as exc:
            want = str(exc)
        for once in (iter(data), (iter(row) for row in data),
                     iter([iter(row) for row in data])):
            try:
                got = Matrix(2, 2, once)
            except ShapeMismatch as exc:
                got = str(exc)
            assert got == want


def _matrix_reference(rows, cols, data):
    """The constructor's rule, each entry read by Q and the matrix built by
    from_ints: the reference of the differential test below (data in lists,
    which it reads twice)."""
    for n in (rows, cols):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ShapeMismatch(f"a matrix side must be an int >= 0, got {n!r}")
    try:
        grid = [[Q(x) for x in row] for row in data]
        if any(type(x) is bool for row in data for x in row):
            raise TypeError
    except (TypeError, ValueError, ArithmeticError):
        raise ShapeMismatch("data is not rows of rationals") from None
    if len(grid) != rows or any(len(row) != cols for row in grid):
        raise ShapeMismatch(f"data is not {rows} rows of {cols} entries")
    den = lcm(*(x.denominator for row in grid for x in row))
    return Matrix.from_ints(rows, cols, [
        [x.numerator * (den // x.denominator) for x in row] for row in grid], den)


_GOOD_ENTRIES = (
    lambda r: r.randint(-9, 9), lambda r: r.randint(-2 ** 80, 2 ** 80),
    lambda r: Q(r.randint(-9, 9), r.randint(1, 12)), lambda r: Q(r.randint(-9, 9)),
    lambda r: r.choice((0.5, -2.0, 1e-3, 0.0, 2.0 ** 60)),
    lambda r: Decimal(r.choice(("1.25", "-3", "0.001", "7E+2"))),
    lambda r: r.choice(("3/4", " -2 ", "1.5", "1e3", "6/8", "0", "-7/3")))
_BAD_ENTRIES = (True, False, None, "x", "", float("nan"), float("inf"),
                Decimal("NaN"), Decimal("-Infinity"), 1j, [1], "1/0")


def test_matrix_agrees_with_a_from_ints_reference():
    """Equal matrices, or the same ShapeMismatch message, on 3000 seeded
    inputs: ints, Qs, floats, Decimals and text, denominators 1 and above,
    0 x n and n x 0, ragged rows, wrong row counts, bad entries and sides."""
    rng = random.Random(4261)
    built = refused = 0
    for _ in range(3000):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        kinds = rng.sample(_GOOD_ENTRIES, rng.randint(1, 3))
        data = [[rng.choice(kinds)(rng) for _ in range(cols)] for _ in range(rows)]
        flaw = rng.randint(0, 9)
        if flaw == 0 and rows and cols:
            data[rng.randrange(rows)][rng.randrange(cols)] = rng.choice(_BAD_ENTRIES)
        elif flaw == 1 and rows:
            row = data[rng.randrange(rows)]
            row.pop() if row and rng.randint(0, 1) else row.append(1)
        elif flaw == 2:
            data.pop() if data and rng.randint(0, 1) else data.append([0] * cols)
        elif flaw == 3:
            rows, cols = rng.choice(((1.0, cols), (rows, True), (rows, -1)))
        if rng.randint(0, 1):
            data = tuple(map(tuple, data))
        try:
            want = _matrix_reference(rows, cols, data)
        except ShapeMismatch as exc:
            want = str(exc)
        try:
            got = Matrix(rows, cols, data)
        except ShapeMismatch as exc:
            got = str(exc)
        assert got == want, (rows, cols, data)
        if isinstance(got, Matrix):
            built += 1
            assert all(type(n) is int for row in got.nums for n in row)
        else:
            refused += 1
    assert built > 1500 and refused > 500   # 1897 and 1103


@pytest.mark.parametrize("coeffs", [("x",), (1, None), (float("nan"),), 5,
                                    (True, 1), [1, False], iter([True, 1]),
                                    (x for x in [1, 2, False])])
def test_poly_refuses_coefficients_that_are_not_rationals(coeffs):
    with pytest.raises(ShapeMismatch, match="^coefficients are not rationals$"):
        Poly(coeffs)


@pytest.mark.parametrize("scalar", [True, False, "x", None, float("nan"), [1]])
def test_poly_refuses_a_scalar_factor_that_is_not_a_rational(scalar):
    """A scalar factor is read as a coefficient is: a bool is no rational,
    and a string or None is ShapeMismatch, not a traceback."""
    with pytest.raises(ShapeMismatch):
        Poly((1, 2)) * scalar
    with pytest.raises(ShapeMismatch):
        scalar * Poly((1, 2))


@pytest.mark.parametrize("k", [-1, 1.5, True, False, "2", None])
def test_poly_refuses_a_power_that_is_not_an_int_at_least_0(k):
    with pytest.raises(ShapeMismatch):
        Poly((1, 2)) ** k


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
    with pytest.raises(ShapeMismatch, match="^2x3 vs 3x4$"):
        a + b
    with pytest.raises(ShapeMismatch, match="^hstack row mismatch$"):
        a.hstack(b)


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


def _bareiss_reference(a, cols, reduce_above):
    """Bareiss elimination written out entry by entry: every row other than
    the pivot row (only those below it unless reduce_above) becomes
    (p * row - row[col] * pivot row) / prev, each division checked exact."""
    a = [list(row) for row in a]
    pivots, sign, prev = [], 1, 1
    for col in range(cols):
        r = len(pivots)
        nonzero = [i for i in range(r, len(a)) if a[i][col] != 0]
        if not nonzero:
            continue
        if nonzero[0] != r:
            a[r], a[nonzero[0]] = a[nonzero[0]], a[r]
            sign = -sign
        p = a[r][col]
        for i in range(len(a)):
            if i == r or i < r and not reduce_above:
                continue
            new = []
            for j in range(len(a[i])):
                q, rem = divmod(p * a[i][j] - a[i][col] * a[r][j], prev)
                assert rem == 0
                new.append(q)
            a[i] = new
        pivots.append(col)
        prev = p
    return pivots, sign, [tuple(row) for row in a]


def _elimination_grids(rng):
    """Seeded integer grids: random, of low rank, with zero rows and zero
    columns, and with no rows or no columns."""
    yield [], 4
    yield [(), (), ()], 0
    yield [(0, 0), (0, 0)], 2
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        if rng.random() < 0.3 and rows and cols:   # rank at most k
            k = rng.randint(1, min(rows, cols))
            left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
            grid = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                    for row in left]
        else:
            grid = [[rng.choice([0, 0, rng.randint(-30, 30)]) for _ in range(cols)]
                    for _ in range(rows)]
        if rows and rng.random() < 0.3:
            grid[rng.randrange(rows)] = [0] * cols
        if cols and rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in grid:
                row[j] = 0
        yield [tuple(row) for row in grid], cols


def test_eliminate_agrees_with_a_plain_bareiss():
    """_eliminate's pivots, sign and rows are those of the reference, under
    both reduce_above settings."""
    from tdr.exactalg import _eliminate

    for grid, cols in _elimination_grids(random.Random(27)):
        for reduce_above in (False, True):
            a = list(grid)
            pivots, sign = _eliminate(a, cols, reduce_above)
            assert (pivots, sign, [tuple(row) for row in a]) == \
                _bareiss_reference(grid, cols, reduce_above), (grid, reduce_above)


def test_det_oracles():
    assert det(Matrix.from_rows([[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == 5
    assert det(Matrix.identity(4)) == 1
    assert det(Matrix(0, 0, ())) == 1
    for square_only in (det, inverse, charpoly, rational_canonical,
                        Poly.x().eval_matrix):
        with pytest.raises(NotSquare, match="^2x3$"):
            square_only(Matrix.zeros(2, 3))


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
    with pytest.raises(ShapeMismatch, match="^2 rows vs 3 rows$"):
        coords_in_basis(a, Matrix.column([0, 1, 2]))


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
    q = Poly((1, Q(1, 2), 3))
    assert q * 2 == 2 * q == Poly((2, 1, 6))
    assert q * Q(2, 3) == Poly((Q(2, 3), Q(1, 3), 2))
    assert q * 0 == Poly(()) and Poly(()) * 5 == Poly(())
    assert q ** 0 == Poly((1,)) and q ** 2 == q * q
    # the shorter summand first or last: every coefficient is kept
    assert Poly((1,)) + Poly((1, 2)) == Poly((1, 2)) + Poly((1,)) == Poly((2, 2))
    with pytest.raises(ZeroPolynomial, match="no leading coefficient"):
        Poly(()).leading()


def test_poly_eval_matrix():
    x = Poly.x()
    m = Matrix.from_rows([[0, 1], [0, 0]])
    assert (x * x).eval_matrix(m).is_zero()


def _horner_with_identities(p, m):
    """p(m) by Horner's rule with Matrix arithmetic: each coefficient is
    added as a scaled identity."""
    n = m.rows
    acc = Matrix.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc @ m + Matrix.identity(n).scale(c)
    return acc


def test_eval_matrix_agrees_with_horner_on_scaled_identities():
    """eval_matrix on integer rows against Horner's rule on Matrix values,
    on 320 seeded draws: the zero polynomial, constants and degrees up to
    6 with integer and non-integer coefficients, at square matrices from
    0 x 0 to 7 x 7 whose denominator is not 1."""
    rng = random.Random(6161)
    seen = set()
    for case in range(320):
        n, degree = case % 8, case // 8 % 8 - 1   # degree -1: the zero polynomial
        while True:
            den = rng.choice((2, 3, 4, 6, 35))
            m = Matrix(n, n, [[Q(rng.randint(-9, 9), den) for _ in range(n)]
                              for _ in range(n)])
            if m.den != 1 or not n:
                break
        coeffs = [Q(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 5)))
                  for _ in range(degree)]
        p = Poly(coeffs + [Q(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))]
                 if degree >= 0 else [])
        got = p.eval_matrix(m)
        assert got == _horner_with_identities(p, m), case
        seen.add(("degree", p.degree()))
        seen.add(("side", n))
        if any(c.denominator != 1 for c in p.coeffs):
            seen.add("non-integer coefficient")
    assert seen >= {("degree", k) for k in range(-1, 7)} | {
        ("side", n) for n in range(8)} | {"non-integer coefficient"}


def test_chains_refuse_what_they_cannot_count():
    """chains refuses, with ShapeMismatch and within a second each: no
    blocks, blocks that do not chain, a stable below 0 or above a block's
    side, ranks that stay above stable past the grades' total dimension
    (an identity with a stable below its rank, whose ranks never fall),
    and ranks that fall below stable.  The calls run in a child process,
    so one that never returns fails the test on its timeout instead of
    hanging the suite."""
    import json
    import os
    import pathlib
    import subprocess

    import tdr

    script = """if True:
        import json, time
        from tdr.exactalg import Matrix, chains
        eye, zero = Matrix.identity(2), Matrix.zeros(2, 2)
        cases = [([eye], 0), ([eye], 1), ([zero], -1), ([zero], 1), ([], 0),
                 ([Matrix.zeros(2, 3)], 0), ([zero], 3),
                 ([eye, Matrix.zeros(3, 2)], 0), ([zero, eye], 3)]
        out = []
        for blocks, stable in cases:
            t0 = time.monotonic()
            try:
                got = chains(blocks, stable)
            except Exception as exc:
                got = type(exc).__name__
            out.append([got, time.monotonic() - t0])
        out.append([chains([zero], 0), chains([eye], 2), chains([eye, zero], 0)])
        print(json.dumps(out))
    """
    src = pathlib.Path(tdr.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    *refusals, counted = json.loads(proc.stdout.splitlines()[-1])
    assert [got for got, _ in refusals] == ["ShapeMismatch"] * 9
    assert all(seconds < 1 for _, seconds in refusals), refusals
    assert counted == [[[1, 1], [1, 1]], [], [[1, 2], [1, 2]]]


def test_charpoly_of_companion():
    p = Poly((Q(2), Q(-3), Q(1)))  # x^2 - 3x + 2
    assert charpoly(companion(p)) == p
    assert charpoly(Matrix.identity(2)) == Poly((Q(1), Q(-2), Q(1)))
    with pytest.raises(ZeroPolynomial, match="^companion needs degree >= 1$"):
        companion(Poly((Q(3),)))


def test_factor_poly():
    x = Poly.x()
    p = Poly((Q(-1), Q(0), Q(1)))  # x^2 - 1
    fac = factor_poly(p)
    assert fac == [(x - Poly((1,)), 1), (x + Poly((1,)), 1)]
    # irreducible stays whole
    assert factor_poly(Poly((Q(1), Q(0), Q(1)))) == [(Poly((Q(1), Q(0), Q(1))), 1)]
    with pytest.raises(ZeroPolynomial):
        factor_poly(Poly(()))


def test_integer_gcd_and_exact_division_take_either_length():
    """_zgcd gives the same primitive gcd with either argument first, and
    _divexact refuses a nonzero dividend shorter than its divisor, or one
    it leaves a remainder of (None), and divides the zero polynomial to
    zero."""
    from tdr.exactalg import _divexact, _zgcd

    # x^2 - 1 and 2x + 2: the gcd is x + 1
    assert _zgcd([2, 2], [-1, 0, 1]) == _zgcd([-1, 0, 1], [2, 2]) == [1, 1]
    assert _zgcd([3], [-1, 0, 1]) == _zgcd([-1, 0, 1], [3]) == [1]
    assert _zgcd([], [2, 4]) == _zgcd([2, 4], []) == [1, 2]
    assert _divexact([2, 2], [-1, 0, 1]) is None
    assert _divexact([5], [1, 1]) is None
    # 3x + 2 by 2x + 2: 2 does not divide the leading 3, and the floored
    # quotient 1 would leave nothing below it, so only that test refuses
    assert _divexact([2, 3], [2, 2]) is None
    assert _divexact([], [1, 1]) == []
    assert _divexact([-1, 0, 1], [1, 1]) == [-1, 1]


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


def test_factor_poly_splits_each_part_mod_one_prime(monkeypatch):
    """Every squarefree part that reaches the mod-p path (degree 3 and up)
    gets one distinct-degree factorization, over the first good prime:
    products of criterion 3's irreducibles of degree 3 to 7, and the
    degree-8 Swinnerton-Dyer polynomial, which splits mod every prime."""
    from test_acceptance import IRREDUCIBLE

    import tdr.exactalg as ea

    rng = random.Random(20)
    polys = [Poly((576, 0, -960, 0, 352, 0, -40, 0, 1))]
    while len(polys) < 40:
        p = Poly((1,))
        for _ in range(rng.randint(2, 4)):
            p = p * rng.choice(IRREDUCIBLE)
        if 3 <= p.degree() <= 7:
            polys.append(p)
    parts, ddf = [], []
    zassenhaus, distinct_degree = ea._zassenhaus, ea._distinct_degree

    def counted_zassenhaus(f):
        parts.append(len(f) - 1)
        return zassenhaus(f)

    def counted_distinct_degree(f, p):
        ddf.append(p)
        return distinct_degree(f, p)

    monkeypatch.setattr(ea, "_zassenhaus", counted_zassenhaus)
    monkeypatch.setattr(ea, "_distinct_degree", counted_distinct_degree)
    reached = 0
    for p in polys:
        parts.clear()
        ddf.clear()
        factor_poly(p)
        assert len(ddf) == sum(n >= 3 for n in parts), p
        reached += len(ddf)
    assert reached >= len(polys) // 2


def _has_rational_root(p):
    """Whether p has a root in Q, by the rational root theorem: a root u/v
    in lowest terms of an integer multiple f of p has u | f0 and v | lc."""
    den = lcm(*(c.denominator for c in p.coeffs))
    f = [int(c * den) for c in p.coeffs]
    if not f[0]:
        return True

    def divisors(n):
        n = abs(n)
        return {d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}

    return any(sum(c * r ** i for i, c in enumerate(f)) == 0
               for u in divisors(f[0]) for v in divisors(f[-1])
               for r in (Q(u, v), Q(-u, v)))


def test_degree_2_and_3_root_test_agrees_with_the_rational_root_theorem(monkeypatch):
    """factor_poly returns a degree-2 or 3 polynomial whole when it has no
    root mod a prime up to 41 not dividing its leading coefficient.  Seeded
    draws: random polynomials, reducible ones, squares and cubes, multiples
    of x, linear factors whose leading coefficient 3 divides times x^2 + 1,
    which has no root mod 3 while the product is reducible, and irreducible
    cubics with a root mod every prime up to 13.  Each
    result is checked without factor_poly's helpers: its distinct monic
    factors, in canonical order, multiply back to p; a factor of degree 2 or
    3 has no rational root, so is irreducible; and p splits exactly when it
    has one.  The root test must skip some of the first six kinds' draws
    and pass others on, and skip exactly those cubics that have no root
    mod some prime up to 41."""
    import tdr.exactalg as ea

    rng = random.Random(24)
    x = Poly.x()

    def q(lo=-9):
        return Q(rng.randint(lo, 9), rng.randint(1, 9))

    def lin(lead=None):
        return Poly((q(), lead or q(1) * rng.choice([-1, 1])))

    kinds = {
        "random": lambda: Poly([q() for _ in range(rng.randint(2, 3))] + [q(1)]),
        "reducible": lambda: lin() * (lin() if rng.random() < 0.5 else lin() * lin()),
        "not squarefree": lambda: lin() ** rng.randint(2, 3) * (
            lin() ** rng.randint(0, 1) if rng.random() < 0.5 else Poly((q(1),))),
        "x | f": lambda: x ** rng.randint(1, 3) * Poly(
            [q() for _ in range(rng.randint(0, 2))] + [q(1)]),
        "3 | lc": lambda: lin(Q(3 * rng.randint(1, 3))) * Poly((1, 0, 1)),
        "3 | lc, random": lambda: Poly([rng.randint(-9, 9) for _ in range(rng.randint(2, 3))]
                                       + [3 * rng.choice([-2, -1, 1, 2])]),
        "a root mod every prime up to 13": lambda: _cubic_with_small_roots(rng),
    }
    polys = []
    for name, draw in kinds.items():
        for _ in range(60):
            p = draw()
            while p.degree() not in (2, 3) or not p.coeffs[0] and name != "x | f":
                p = draw()
            polys.append(p)
    full = []
    squarefree = ea._squarefree
    monkeypatch.setattr(ea, "_squarefree", lambda f: full.append(f) or squarefree(f))
    reducible = 0
    for i, p in enumerate(polys):
        if i == 6 * 60:
            skipped = i - len(full)
        got = factor_poly(p)
        assert got == sorted(got, key=lambda fm: (fm[0].degree(), fm[0].coeffs, fm[1]))
        assert len({g for g, _ in got}) == len(got)
        product = Poly((p.leading(),))
        for g, mult in got:
            assert g.leading() == 1 and g.degree() >= 1 and mult >= 1
            assert g.degree() == 1 or not _has_rational_root(g)
            product = product * g ** mult
        assert product == p
        split = _has_rational_root(p)
        assert split == (len(got) > 1 or got[0][1] > 1)
        reducible += split
    assert reducible >= 200
    assert 60 <= skipped < 6 * 60 - 200
    hard = [_int_coeffs(p) for p in polys[-60:]]
    assert [f for f in hard if f not in full] == [
        f for f in hard if any(f[-1] % q and not _has_root_mod(f, q) for q in
                               (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))]
    assert sum(f not in full for f in hard) >= 50


def _int_coeffs(p):
    den = lcm(*(c.denominator for c in p.coeffs))
    f = [int(c * den) for c in p.coeffs]
    g = gcd(*f) * (-1 if f[-1] < 0 else 1)
    return [c // g for c in f]


def _has_root_mod(f, q):
    return any(sum(c * x ** i for i, c in enumerate(f)) % q == 0 for x in range(q))


def _cubic_with_small_roots(rng):
    """An irreducible primitive integer cubic with a root mod every prime
    up to 13 that does not divide its leading coefficient."""
    while True:
        f = [rng.randint(-30, 30) for _ in range(3)] + [rng.choice([-2, -1, 1, 2])]
        p = Poly(f)
        if f[0] and gcd(*f) == 1 and not _has_rational_root(p) and all(
                f[-1] % q == 0 or _has_root_mod(f, q) for q in (2, 3, 5, 7, 11, 13)):
            return p


def test_a_cubic_with_a_root_mod_every_prime_up_to_13_is_not_factored(monkeypatch):
    """x^3 + 9x + 4 has no rational root (none of +-1, +-2, +-4 is one) and
    a root mod 2, 3, 5, 7, 11 and 13, but none mod 17: factor_poly returns it
    whole without the squarefree split or Zassenhaus."""
    import tdr.exactalg as ea

    f = [4, 9, 0, 1]
    assert all(_has_root_mod(f, q) for q in (2, 3, 5, 7, 11, 13))
    assert not _has_root_mod(f, 17) and not _has_rational_root(Poly(f))
    calls = []
    squarefree = ea._squarefree
    monkeypatch.setattr(ea, "_squarefree", lambda f: calls.append(f) or squarefree(f))
    assert factor_poly(Poly(f)) == [(Poly(f), 1)]
    assert factor_poly(Poly([Q(4, 3), 3, 0, Q(1, 3)])) == [(Poly(f), 1)]
    assert calls == []


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
    """A cyclic composite that is not nilpotent is NotNilpotent, and blocks
    that do not chain are ShapeMismatch before any preimage."""
    with pytest.raises(NotNilpotent):
        graded_jordan_chains([Matrix.identity(2)])
    with pytest.raises(ShapeMismatch, match="^graded blocks do not chain$"):
        graded_jordan_chains([Matrix.zeros(2, 3)])


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


def _planted_graded(rng, grades, band=0, path=False, strings=4):
    """Graded shifts along 1 to strings random strings, plus an invertible
    band x band part on every grade, hidden by a base change per grade;
    nilpotent when band is 0.  On a path no string wraps past the last
    grade, so the last block is 0: an open path closed by a zero block."""
    dims, links = [0] * grades, []
    for _ in range(rng.randint(1, strings)):
        start = rng.randrange(grades)
        length = rng.randint(1, grades - start if path else 2 * grades)
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


def _plain_chains(blocks, stable=0):
    """chains with the plain rank table: every composite formed and its
    rank computed, no rank inferred.  The oracle of the pruned table."""
    n = len(blocks)
    ranks = []
    for a in range(n):
        row, x = [blocks[a].cols], None
        while row[-1] > stable:
            b = blocks[(a + len(row) - 1) % n]
            x = b if x is None else b @ x
            row.append(sys.modules["tdr.exactalg"].rank(x))
        ranks.append(row)

    def r(a, k):
        row = ranks[a % n]
        return row[k] if k < len(row) else stable

    return [(a + 1, k + 1) for a in range(n) for k in range(len(ranks[a]) - 1)
            for _ in range(r(a, k) - r(a - 1, k + 1) - r(a, k + 1) + r(a - 1, k + 2))]


def test_chains_agree_with_the_plain_rank_table():
    """Inferred ranks are exact: chains against the plain rank table on
    240 seeded tuples of 1-6 grades: cycles with a planted invertible part,
    random cycles, planted and random open paths closed by a zero block,
    some with grades of dimension 0."""
    rng = random.Random(2222)
    seen = set()
    for case in range(240):
        grades = case % 6 + 1
        kind = ("band", "random", "planted path", "random path")[case // 6 % 4]
        if kind == "band":
            blocks = _planted_graded(rng, grades, rng.randint(1, 2))
        elif kind == "planted path":
            blocks = _planted_graded(rng, grades, path=True)
        else:
            dims = [rng.randint(0, 4) for _ in range(grades)]
            blocks = [_tdr(dims[(a + 1) % grades], dims[a],
                           _rand_grid(rng, dims[(a + 1) % grades], dims[a]))
                      for a in range(grades)]
            if kind == "random path":
                blocks[-1] = Matrix.zeros(dims[0], dims[-1])
        stable = stable_image(_monodromy_at(blocks, 0)).cols
        got = chains(blocks, stable)
        assert got == _plain_chains(blocks, stable), case
        seen.add(kind)
        if stable and got:
            seen.add("invertible part and chains")
        if any(b.cols == 0 for b in blocks):
            seen.add("grade of dimension 0")
        if grades <= 2 and got:
            seen.add(f"{grades} grades")
    assert seen == {"band", "random", "planted path", "random path",
                    "invertible part and chains", "grade of dimension 0",
                    "1 grades", "2 grades"}

    # a zero block inside the cycle; and one block, the powers of p(m) as
    # rational_canonical counts them, with a divisor p^s repeated and an
    # invertible rest giving the stable rank
    seen = set()
    for case in range(60):
        if case % 2 == 0:
            grades = case // 2 % 4 + 2
            blocks = _graded_case(rng, grades, "random")
            j = rng.randrange(grades - 1)
            blocks[j] = Matrix.zeros(blocks[j].rows, blocks[j].cols)
            stable = stable_image(_monodromy_at(blocks, 0)).cols
            seen.add("zero block inside the cycle")
        else:
            p = Poly(tuple(map(Q, rng.choice(((-2, 1), (1, 0, 1))))))
            s = rng.randint(1, 3)
            powers = sorted([s, s] + [rng.randint(1, 3) for _ in range(rng.randint(0, 1))])
            rest = [companion(Poly((Q(c), Q(1)))) for c in rng.sample((1, -3, 5), 2)]
            g = rand_invertible(rng, sum(powers) * p.degree() + 2)
            m = g @ block_diag([companion(p ** t) for t in powers] + rest) @ inverse(g)
            blocks, stable = [p.eval_matrix(m)], 2
            seen.add(("repeated divisor", p.degree(), s > 1))
        got = chains(blocks, stable)
        assert got == _plain_chains(blocks, stable), case
        if len(blocks) == 1:   # d chains of length t for each divisor p^t
            assert [t for _, t in got][::p.degree()] == powers, case
    assert seen == {"zero block inside the cycle"} | {
        ("repeated divisor", d, above_1) for d in (1, 2) for above_1 in (False, True)}


def test_chains_infer_ranks_on_an_a0_12_interval_sum(monkeypatch):
    """On planted interval sums on A0_12 (13 positions, closed by a zero
    block) chains computes at most 60% of the plain table's ranks and
    makes at most 60% of its products."""
    emod = sys.modules["tdr.exactalg"]
    real_rank, real_matmul = emod.rank, Matrix.__matmul__
    calls = {"rank": 0, "matmul": 0}

    def rank_counted(m):
        calls["rank"] += 1
        return real_rank(m)

    def matmul_counted(a, b):
        calls["matmul"] += 1
        return real_matmul(a, b)

    rng = random.Random(1213)
    tally = {count: {"rank": 0, "matmul": 0} for count in (chains, _plain_chains)}
    for case in range(6):
        blocks = _planted_graded(rng, 13, path=True, strings=10)
        monkeypatch.setattr(emod, "rank", rank_counted)
        monkeypatch.setattr(Matrix, "__matmul__", matmul_counted)
        got = []
        for count, spent in tally.items():
            calls.update(rank=0, matmul=0)
            got.append(count(blocks))
            for key in calls:
                spent[key] += calls[key]
        monkeypatch.undo()
        assert got[0] == got[1], case
    pruned, plain = tally[chains], tally[_plain_chains]
    assert plain["rank"] > 0 and plain["matmul"] > 0
    assert pruned["rank"] <= 0.6 * plain["rank"], tally
    assert pruned["matmul"] <= 0.6 * plain["matmul"], tally


def _graded_case(rng, grades, kind):
    """A seeded graded tuple: a planted cycle with a 0-2 invertible part
    ("band"), a random cycle, or a planted or random open path closed by a
    zero block; random grades have dimensions 0-4."""
    if kind == "band":
        return _planted_graded(rng, grades, rng.randint(0, 2))
    if kind == "planted path":
        return _planted_graded(rng, grades, path=True)
    dims = [rng.randint(0, 4) for _ in range(grades)]
    blocks = [_tdr(dims[(a + 1) % grades], dims[a],
                   _rand_grid(rng, dims[(a + 1) % grades], dims[a]))
              for a in range(grades)]
    if kind == "random path":
        blocks[-1] = Matrix.zeros(dims[0], dims[-1])
    return blocks


def _row_order_chains(blocks, stable=0):
    """chains with its rank table built row by row from the last start
    down, each row bounded only by the row after it, so the first row
    built has no bounds: the oracle of the level-order table's answers
    and refusals."""
    n = len(blocks)
    if not n or any(blocks[a].rows != blocks[(a + 1) % n].cols for a in range(n)):
        raise ShapeMismatch("graded blocks do not chain")
    if not 0 <= stable <= min(b.cols for b in blocks):
        raise ShapeMismatch(f"stable rank {stable} is outside 0 .. every block's side")
    total = sum(b.cols for b in blocks)
    ranks = [None] * n
    for a in reversed(range(n)):
        row, x, made = [blocks[a].cols], blocks[a], 1
        while row[-1] > stable:
            k = len(row)
            if k > total:
                raise ShapeMismatch(
                    f"ranks stay above the stable rank {stable} past {total} blocks")
            if a < n - 1 and k >= 2:
                hi = min(row[-1], ranks[a + 1][k - 1])
                if hi == row[-1] + ranks[a + 1][k - 1] - ranks[a + 1][k - 2]:
                    row.append(hi)
                    continue
            for j in range(made, k):
                x = blocks[(a + j) % n] @ x
            made = k
            row.append(sys.modules["tdr.exactalg"].rank(x))
        if row[-1] < stable:
            raise ShapeMismatch(f"ranks fall below the stable rank {stable}")
        ranks[a] = row
    width = max(map(len, ranks)) + 1
    for row in ranks:
        row += [stable] * (width - len(row))
    return [(a + 1, k + 1) for a in range(n) for k in range(width - 2)
            for _ in range(ranks[a][k] - ranks[a - 1][k + 1]
                           - ranks[a][k + 1] + ranks[a - 1][k + 2])]


def test_chains_answer_and_refuse_as_the_row_order_table_does():
    """Filling the table by levels turns no refusal into an answer: on 1200
    seeded tuples of 1-6 grades (planted cycles with and without an
    invertible part, random cycles, planted and random open paths, some
    grades of dimension 0) and every stable from s - 1 to s + 2 about the
    invertible part's rank s, chains gives the row-order table's answer,
    or its exception with the same class and message."""
    rng = random.Random(3636)
    seen = set()
    for case in range(1200):
        grades = case % 6 + 1
        kind = ("band", "random", "planted path", "random path")[case // 6 % 4]
        blocks = _graded_case(rng, grades, kind)
        s = stable_image(_monodromy_at(blocks, 0)).cols
        for stable in range(s - 1, s + 3):
            outcome = []
            for count in (chains, _row_order_chains):
                try:
                    outcome.append(count(blocks, stable))
                except Exception as exc:
                    outcome.append((type(exc), str(exc)))
            assert outcome[0] == outcome[1], (case, stable)
            got = outcome[0]
            if isinstance(got, list):
                seen.add("answer" if stable == s else "answer to another stable")
            else:
                seen.add(next(why for why in ("outside", "stay above", "fall below")
                              if why in got[1]))
    assert seen == {"answer", "answer to another stable", "outside", "stay above",
                    "fall below"}


def test_chains_bound_the_first_row_of_a_cycle(monkeypatch):
    """On planted cycles of 3-5 grades with an invertible part and a string
    that wraps past the last grade, the first row of the table gets its
    Frobenius bounds like every other row: chains computes no more ranks
    than the row-order table on any case, and fewer in all."""
    emod = sys.modules["tdr.exactalg"]
    real, calls = emod.rank, [0]

    def counted(m):
        calls[0] += 1
        return real(m)

    monkeypatch.setattr(emod, "rank", counted)
    rng = random.Random(3737)
    spent = {chains: [], _row_order_chains: []}
    for case in range(45):
        grades, band = case % 3 + 3, case % 2 + 1
        while True:
            blocks = _planted_graded(rng, grades, band, strings=5)
            want = _row_order_chains(blocks, band)
            if any(start - 1 + length > grades for start, length in want):
                break
        for count, tally in spent.items():
            calls[0] = 0
            assert count(blocks, band) == want, case
            tally.append(calls[0])
    level, row = spent[chains], spent[_row_order_chains]
    assert all(a <= b for a, b in zip(level, row)), spent
    assert sum(level) < sum(row), spent


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


def test_rational_canonical_skips_factors_of_multiplicity_one(monkeypatch):
    """x - 1 and x^2 + 1 divide the characteristic polynomial once, so each
    is its own divisor and is never evaluated at the matrix; x - 2 divides
    it three times, as the divisors (x - 2)^2 and x - 2."""
    xm1, xm2, x2p1 = Poly((Q(-1), Q(1))), Poly((Q(-2), Q(1))), Poly((Q(1), Q(0), Q(1)))
    rng = random.Random(3131)
    g = rand_invertible(rng, 6)
    m = g @ block_diag([companion(xm1), companion(xm2 ** 2), companion(x2p1),
                        companion(xm2)]) @ inverse(g)
    real, evaluated = Poly.eval_matrix, []

    def counted(p, a):
        evaluated.append(p)
        return real(p, a)

    monkeypatch.setattr(Poly, "eval_matrix", counted)
    assert rational_canonical(m) == [(xm2, 1), (xm2, 2), (xm1, 1), (x2p1, 1)]
    assert evaluated == [xm2]
