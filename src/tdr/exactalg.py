"""Exact linear algebra over Q.

Matrices are immutable, dense, arbitrary-precision rational.  Rank,
determinant, reduced row echelon form and the matrix product run
fraction-free on Python integers: rows (and, for a product, the right
factor's columns) are rescaled by the lcm of their denominators, rank and
determinant by Bareiss elimination, the RREF by fraction-free Gauss-Jordan,
and each result entry becomes a rational once, at the end.  Everything that
returns a basis goes through the RREF, so outputs are canonical and
comparable by equality.  Polynomial factorization is delegated
to sympy behind a thin monic wrapper; the rest is authored here because the
decomposition algorithms need the intermediate data (filtrations, chains),
not just final answers.
"""

from dataclasses import dataclass
from math import lcm, prod
from operator import mul

from .errors import (
    NotNilpotent,
    NotSquare,
    ShapeMismatch,
    SingularMatrix,
    ZeroPolynomial,
)
from .rational import ONE, ZERO, Q


class Matrix:
    """Immutable rows x cols matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        # data: tuple of row tuples, already Q
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        data = tuple(tuple(Q(x) for x in row) for row in rows_list)
        for row in data:
            if len(row) != cols:
                raise ShapeMismatch("ragged rows")
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(
            tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        row = (ZERO,) * cols if rows else ()
        return cls(rows, cols, (row,) * rows)

    @classmethod
    def column(cls, entries):
        return cls(len(entries), 1, tuple((Q(x),) for x in entries))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __neg__(self):
        return Matrix(self.rows, self.cols, tuple(
            tuple(-a for a in row) for row in self.data))

    def scale(self, c):
        c = Q(c)
        return Matrix(self.rows, self.cols, tuple(
            tuple(c * a for a in row) for row in self.data))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # integer rows of self times integer columns of other, one division
        # per entry: (a / ra) . (b / cb) = (a . b) / (ra * cb)
        arows, ras = _int_rows(self.data)
        bcols, cbs = _int_rows(other.transpose().data)
        out = []
        for arow, ra in zip(arows, ras):
            out.append(tuple(
                Q(acc, ra * cb) if (acc := sum(map(mul, arow, bcol))) else ZERO
                for bcol, cb in zip(bcols, cbs)))
        return Matrix(self.rows, other.cols, tuple(out))

    def transpose(self):
        return Matrix(self.cols, self.rows, tuple(zip(*self.data)) if self.rows and self.cols
                      else ((),) * self.cols if self.cols else ())

    def kron(self, other):
        """Kronecker product; first factor slowest-varying (row-major blocks)."""
        out = []
        for arow in self.data:
            for brow in other.data:
                out.append(tuple(a * b for a in arow for b in brow))
        return Matrix(self.rows * other.rows, self.cols * other.cols, tuple(out))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return Matrix(self.rows, self.cols + other.cols, tuple(
            ra + rb for ra, rb in zip(self.data, other.data)))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ShapeMismatch("vstack col mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.data + other.data)

    def submatrix(self, row_idx, col_idx):
        return Matrix(len(row_idx), len(col_idx), tuple(
            tuple(self.data[i][j] for j in col_idx) for i in row_idx))

    def columns(self):
        """The columns as a list of rows-x-1 matrices."""
        return [self.submatrix(range(self.rows), (j,)) for j in range(self.cols)]

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def block_diag(blocks):
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[ZERO] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            orow = out[r0 + i]
            for j, x in enumerate(row):
                orow[c0 + j] = x
        r0 += b.rows
        c0 += b.cols
    return Matrix(rows, cols, tuple(tuple(row) for row in out))


def _int_rows(rows):
    """Each rational vector rescaled to integers by the lcm of its denominators.

    Returns (integer rows, lcms).  Row scaling preserves rank, pivots and the
    reduced row echelon form; the lcms give back the determinant and products.
    """
    out = []
    lcms = []
    for row in rows:
        nums = [int(x.numerator) for x in row]
        dens = [int(x.denominator) for x in row]
        l = lcm(*dens)
        out.append(nums if l == 1 else [n * (l // d) for n, d in zip(nums, dens)])
        lcms.append(l)
    return out, lcms


def _eliminate(a, cols, reduce_above=False):
    """Fraction-free (Bareiss) elimination of the integer rows a, in place.

    Each pivot step replaces every row i below the pivot row r, and with
    reduce_above every row above it too, by (p*a[i] - a[i][col]*a[r]) / prev,
    p being the pivot and prev the one before it.  The division is exact
    (Sylvester's identity) and keeps the entries minors of the input.  A row
    with a zero in the pivot column is still rescaled by p / prev, and a row
    above is updated across its whole width, since it carries earlier pivots
    and the free columns between them.  Afterwards every pivot column is the
    last pivot times a unit vector (reduce_above) or zero below its pivot.
    Returns (pivot columns, sign of the row permutation).
    """
    rows = len(a)
    pivots = []
    sign = prev = 1
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        ar = a[r]
        p = ar[col]
        for i in range(0 if reduce_above else r + 1, rows):
            f = a[i][col]
            if i != r and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], ar)]
        pivots.append(col)
        prev = p
    return pivots, sign


def rank(m):
    """Exact rank via fraction-free (Bareiss) elimination on integer rows."""
    return len(_eliminate(_int_rows(m.data)[0], m.cols)[0])


def det(m):
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return ONE
    a, lcms = _int_rows(m.data)
    pivots, sign = _eliminate(a, n)
    if len(pivots) < n:
        return ZERO
    # the last Bareiss pivot is the determinant of the integer rows
    return Q(sign * a[n - 1][n - 1], prod(lcms))


def rref(m):
    """Reduced row echelon form; returns (rref matrix, pivot column tuple).

    Fraction-free Gauss-Jordan on integer rows.  The reduced form is
    canonical, so dividing each pivot row by its pivot at the end gives the
    same matrix as elimination over Q.
    """
    a, _ = _int_rows(m.data)
    pivots, _ = _eliminate(a, m.cols, reduce_above=True)
    out = [tuple(Q(x, a[i][col]) if x else ZERO for x in a[i])
           for i, col in enumerate(pivots)]
    out.extend([(ZERO,) * m.cols] * (m.rows - len(pivots)))
    return Matrix(m.rows, m.cols, tuple(out)), tuple(pivots)


def inverse(m):
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    aug = m.hstack(Matrix.identity(n))
    red, pivots = rref(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrix("matrix has no inverse")
    return red.submatrix(range(n), range(n, 2 * n))


def nullspace(m):
    """Canonical nullspace basis as the columns of a cols x k matrix."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    cols = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red.data[r][f]
        cols.append(v)
    if not cols:
        return Matrix(m.cols, 0, ((),) * m.cols)
    return Matrix(m.cols, len(cols), tuple(zip(*cols)))


def column_space(m):
    """Canonical basis of the column space (rref-of-transpose rows)."""
    red, pivots = rref(m.transpose())
    r = len(pivots)
    if r == 0:
        return Matrix(m.rows, 0, ((),) * m.rows)
    rows = red.data[:r]
    return Matrix(m.rows, r, tuple(zip(*rows)))


@dataclass(frozen=True)
class LinearSolution:
    """Affine description of the solutions of a x = b."""
    particular: "Matrix | None"   # cols(a) x cols(b); None if inconsistent
    homogeneous: Matrix           # cols(a) x k nullspace basis of a


def solve_linear(a, b):
    if a.rows != b.rows:
        raise ShapeMismatch(f"{a.rows} rows vs {b.rows} rows")
    red, pivots = rref(a.hstack(b))
    if any(p >= a.cols for p in pivots):
        return LinearSolution(None, nullspace(a))
    part = [[ZERO] * b.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        for j in range(b.cols):
            part[p][j] = red.data[r][a.cols + j]
    return LinearSolution(
        Matrix(a.cols, b.cols, tuple(tuple(row) for row in part)), nullspace(a))


class _Eliminator:
    """Incremental column elimination for extend_basis / independence tests."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []      # list of (pivot index, reduced vector list)

    def reduce(self, vec):
        v = list(vec)
        for piv, w in self.rows:
            f = v[piv]
            if f:
                for i in range(self.dim):
                    v[i] -= f * w[i]
        return v

    def add(self, vec):
        """Reduce vec; if independent of current span, absorb and return True."""
        v = self.reduce(vec)
        for piv in range(self.dim):
            if v[piv]:
                inv = 1 / v[piv]
                v = [x * inv for x in v]
                self.rows.append((piv, v))
                return True
        return False


def extend_basis(base, candidates):
    """Complete base's columns with candidate columns; returns (full, added).

    base columns must be independent; candidates are scanned left to right
    and a candidate is kept iff it grows the span.  added lists the kept
    candidate column indices.
    """
    if base.rows != candidates.rows:
        raise ShapeMismatch("extend_basis row mismatch")
    elim = _Eliminator(base.rows)
    for j in range(base.cols):
        if not elim.add([base.data[i][j] for i in range(base.rows)]):
            raise ShapeMismatch("base columns are dependent")
    full = base
    added = []
    for j in range(candidates.cols):
        col = [candidates.data[i][j] for i in range(candidates.rows)]
        if elim.add(col):
            full = full.hstack(Matrix.column(col))
            added.append(j)
    return full, added


def coords_in_basis(basis, vecs):
    """Coordinates of vecs' columns in basis (columns independent, spanning them)."""
    sol = solve_linear(basis, vecs)
    if sol.particular is None:
        raise ShapeMismatch("vectors outside the span of the basis")
    return sol.particular


def preimage(m, space):
    """Canonical basis of {x : m x in span(space columns)}."""
    if space.cols == 0:
        return column_space(nullspace(m))
    stacked = m.hstack(-space)
    null = nullspace(stacked)
    xpart = null.submatrix(range(m.cols), range(null.cols))
    return column_space(xpart)


def eventual_image(m):
    """Canonical basis of the stable image of a square matrix, im(m^k) for k >> 0."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    cur = column_space(m)
    while True:
        nxt = column_space(m @ cur)
        if nxt.cols == cur.cols:
            # dimension stabilized; the chain is constant from here on
            return nxt
        cur = nxt


def eventual_kernel(m):
    """Canonical basis of the stable kernel, ker(m^k) for k >> 0."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    cur = column_space(nullspace(m))
    while True:
        nxt = preimage(m, cur)
        if nxt.cols == cur.cols:
            return nxt
        cur = nxt


# ---------------------------------------------------------------------------
# polynomials

def _trim(coeffs):
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


class Poly:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _trim(Q(x) for x in coeffs)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    def degree(self):
        return len(self.coeffs) - 1   # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self):
        lc = self.leading()
        if lc == 1:
            return self
        return Poly(tuple(c / lc for c in self.coeffs))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other):
        return self + Poly(tuple(-c for c in other.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly(())
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(tuple(out))
        return Poly(tuple(Q(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly((1,))
        for _ in range(k):
            out = out * self
        return out

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree()
        lc = other.leading()
        quo = [ZERO] * max(0, len(rem) - d)
        while len(rem) > d and any(rem):
            if not rem[-1]:
                rem.pop()
                continue
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return Poly(tuple(quo)), Poly(tuple(rem))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        if a.is_zero():
            return a
        return a.monic()

    def eval(self, x):
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * Q(x) + c
        return acc

    def eval_matrix(self, m):
        if m.rows != m.cols:
            raise NotSquare(f"{m.rows}x{m.cols}")
        n = m.rows
        acc = Matrix.zeros(n, n)
        for c in reversed(self.coeffs):
            acc = acc @ m
            if c:
                acc = acc + Matrix.identity(n).scale(c)
        return acc


def charpoly(m):
    """Characteristic polynomial det(xI - m), monic, via Faddeev-LeVerrier."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    coeffs_high = [ONE]   # x^n downwards
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        c = -sum(mk.data[i][i] for i in range(n)) / k
        coeffs_high.append(c)
        if k < n:
            mk = mk + Matrix.identity(n).scale(c)
    return Poly(tuple(reversed(coeffs_high)))


def factor_poly(p):
    """Monic irreducible factors over Q with multiplicities.

    product(factor^mult) * leading(p) == p exactly; constants factor to [].
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if p.degree() == 0:
        return []
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.Poly(
        [sympy.Rational(int(c.numerator), int(c.denominator))
         for c in reversed(p.coeffs)], x, domain="QQ")
    _, factors = expr.factor_list()
    out = []
    for f, mult in factors:
        coeffs = [Q(int(r.p), int(r.q)) for r in reversed(f.all_coeffs())]
        out.append((Poly(coeffs).monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs, fm[1]))
    return out


def companion(p):
    """Companion matrix of a monic polynomial."""
    p = p.monic()
    d = p.degree()
    if d < 1:
        raise ZeroPolynomial("companion needs degree >= 1")
    cols = []
    for j in range(d - 1):
        col = [ZERO] * d
        col[j + 1] = ONE
        cols.append(col)
    cols.append([-c for c in p.coeffs[:d]])
    return Matrix(d, d, tuple(zip(*cols)))


def rational_canonical(m):
    """Elementary divisors (irreducible p, power s) of a square matrix.

    Repeats carry multiplicity; sorted canonically.  Kernel filtrations of
    p(m) are grown by preimages instead of explicit matrix powers so entry
    sizes stay bounded.
    """
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return []
    out = []
    for p, e in factor_poly(charpoly(m)):
        d = p.degree()
        pm = p.eval_matrix(m)
        dims = [0]
        space = column_space(nullspace(pm))
        dims.append(space.cols)
        while dims[-1] < e * d:
            space = preimage(pm, space)
            dims.append(space.cols)
        # b_k = number of divisors p^s with s >= k
        bs = [(dims[k] - dims[k - 1]) // d for k in range(1, len(dims))]
        bs.append(0)
        for s in range(1, len(bs)):
            count = bs[s - 1] - bs[s]
            out.extend([(p, s)] * count)
    out.sort(key=lambda ps: (ps[0].degree(), ps[0].coeffs, ps[1]))
    return out


# ---------------------------------------------------------------------------
# graded Jordan chains

@dataclass(frozen=True)
class JordanChain:
    """A homogeneous chain x, Nx, ..., of a cyclically graded nilpotent N.

    start is the 1-based grade of the top vector; vectors[k] lives in grade
    start + k (mod the number of grades).
    """
    start: int
    vectors: tuple

    @property
    def length(self):
        return len(self.vectors)


def kernel_filtration(blocks, dims):
    """Filtrations F[a][j] = vectors of grade a killed within j steps.

    blocks[a] maps grade a to grade (a+1) mod n.  Grows by simultaneous
    backward preimage sweeps; returns the list of per-grade filtrations,
    each ending at its stable level.
    """
    n = len(blocks)
    zero = [Matrix(dims[a], 0, ((),) * dims[a]) for a in range(n)]
    filt = [[zero[a]] for a in range(n)]
    cur = zero
    while True:
        nxt = [preimage(blocks[a], cur[(a + 1) % n]) for a in range(n)]
        if all(nxt[a].cols == cur[a].cols for a in range(n)):
            break
        for a in range(n):
            filt[a].append(nxt[a])
        cur = nxt
    return filt, cur


def graded_jordan_chains(blocks):
    """Homogeneous Jordan chains of a graded tuple N_a : V_a -> V_{a+1 mod n}.

    The cyclic composite must be nilpotent at every base (NotNilpotent
    otherwise).  Returns chains whose vectors jointly form a basis of the
    direct sum of the grades; deterministic.
    """
    n = len(blocks)
    dims = []
    for a in range(n):
        dims.append(blocks[a].cols)
        if blocks[a].rows != blocks[(a + 1) % n].cols:
            raise ShapeMismatch("graded blocks do not chain")
    filt, stable = kernel_filtration(blocks, dims)
    if any(stable[a].cols != dims[a] for a in range(n)):
        raise NotNilpotent("cyclic composite has a nonzero eventual image")
    lmax = max(len(filt[a]) for a in range(n)) - 1

    def level(a, j):
        f = filt[a]
        return f[j] if j < len(f) else f[-1]

    chains = []
    for ell in range(lmax, 0, -1):
        for a in range(n):
            prev_grade = (a - 1) % n
            mod_out = level(a, ell - 1)
            pushed = blocks[prev_grade] @ level(prev_grade, ell + 1)
            modspace = column_space(mod_out.hstack(pushed))
            elim = _Eliminator(dims[a])
            for j in range(modspace.cols):
                elim.add([modspace.data[i][j] for i in range(dims[a])])
            cand = level(a, ell)
            for j in range(cand.cols):
                col = [cand.data[i][j] for i in range(dims[a])]
                if elim.add(col):
                    top = Matrix.column(col)
                    vecs = [top]
                    cur = top
                    g = a
                    for _ in range(ell - 1):
                        cur = blocks[g] @ cur
                        g = (g + 1) % n
                        vecs.append(cur)
                    chains.append(JordanChain(a + 1, tuple(vecs)))
    chains.sort(key=lambda c: (c.start, -c.length))
    return chains
