"""Exact linear algebra over Q.

A matrix is held as integer rows over one positive common denominator,
reduced so that the numerators and the denominator have gcd 1 (the zero
matrix has denominator 1); equality and hashing are therefore canonical.
Every kernel computes on those integers: rank, determinant and the RREF
by fraction-free (Bareiss) elimination, the characteristic polynomial by
Berkowitz's division-free algorithm, products over the product of the
denominators.  Entries are rationals only at the boundary: the Matrix
constructor, from_rows, column and entries().  The constructor, identity
and zeros refuse a side that is not an int >= 0, and the constructor and
scale refuse data that is not finite rationals (or not rows x cols of
them), as ShapeMismatch; Poly refuses its coefficients alike.
Everything that returns a basis goes through the RREF, so outputs are
canonical: nullspace and column_space read it off, and preimage is the
column space of the x-parts of a nullspace.  coords_in_basis reads
coordinates off one RREF, and inverse is the coordinates of the identity;
new_columns picks the candidate columns that grow a span.
stable_image shrinks a square matrix's image to the invertible part of
Fitting's lemma.  On a cycle of maps, chains counts the chains of basis
vectors along the maps (intervals, strings, and the Jordan chains behind
elementary divisors) from the ranks of composites alone;
kernel_filtration and chain_tops pick the chains' top vectors.
factor_poly factors over Q on integer coefficient lists: the primitive
part is split by Yun's squarefree decomposition, and each squarefree part
by Zassenhaus's algorithm (factors mod a small prime by distinct-degree
and Cantor–Zassenhaus splitting, Hensel lifting past a Mignotte bound,
recombination by exact trial division).  The module needs nothing outside
the standard library.
"""

from dataclasses import dataclass
from itertools import chain, combinations, zip_longest
from math import gcd, isqrt, lcm
from operator import mul
from random import Random

from .errors import (
    NotNilpotent,
    NotSquare,
    ShapeMismatch,
    SingularMatrix,
    ZeroPolynomial,
)
from .rational import ONE, ZERO, Q


def _sides(*sides):
    """Refuse a matrix side that is not an int >= 0 (a bool is not one)."""
    for n in sides:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ShapeMismatch(f"a matrix side must be an int >= 0, got {n!r}")


class Matrix:
    """Immutable rows x cols matrix over Q: integer rows nums over den > 0."""

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows, cols, data):
        # data: rows x cols finite rationals (anything Q takes), cleared to
        # one denominator; ints and Qs are read without conversion
        _sides(rows, cols)
        try:
            try:
                pairs = [[x.as_integer_ratio() for x in row] for row in data]
            except AttributeError:
                pairs = [[Q(x).as_integer_ratio() for x in row] for row in data]
        except (TypeError, ValueError, ArithmeticError):
            raise ShapeMismatch("data is not rows of rationals") from None
        if len(pairs) != rows or any(len(row) != cols for row in pairs):
            raise ShapeMismatch(f"data is not {rows} rows of {cols} entries")
        den = lcm(*[d for row in pairs for _, d in row])
        self.rows, self.cols, self.den = rows, cols, den
        self.nums = tuple(tuple(n * (den // d) for n, d in row) for row in pairs)

    @classmethod
    def _new(cls, rows, cols, nums, den=1):
        """From tuple rows nums over den, already in reduced form."""
        m = object.__new__(cls)
        m.rows, m.cols, m.nums, m.den = rows, cols, nums, den
        return m

    @classmethod
    def from_ints(cls, rows, cols, nums, den=1):
        """The matrix nums / den, for integer rows and a nonzero integer den."""
        if den < 0:
            nums, den = [[-x for x in row] for row in nums], -den
        if den != 1:
            g = gcd(den, *chain.from_iterable(nums))
            if g != 1:
                nums, den = [[x // g for x in row] for row in nums], den // g
        return cls._new(rows, cols, tuple(map(tuple, nums)), den)

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        return cls(rows, len(rows_list[0]) if rows else 0, rows_list)

    @classmethod
    def identity(cls, n):
        _sides(n)
        return cls._new(n, n, tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        _sides(rows, cols)
        return cls._new(rows, cols, ((0,) * cols if rows else (),) * rows)

    @classmethod
    def column(cls, entries):
        return cls(len(entries), 1, [(x,) for x in entries])

    def entries(self):
        """The rows as tuples of exact rationals."""
        den = self.den
        return tuple(tuple(Q(x, den) for x in row) for row in self.nums)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.nums))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries())
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        den, (a, b) = _over((self, other))
        return Matrix.from_ints(self.rows, self.cols, [
            [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], den)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Matrix._new(self.rows, self.cols, tuple(
            tuple(-x for x in row) for row in self.nums), self.den)

    def scale(self, c):
        return self.kron(Matrix(1, 1, [[c]]))   # c is read as an entry is

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bcols = tuple(zip(*other.nums)) if other.rows else ((),) * other.cols
        return Matrix.from_ints(self.rows, other.cols, [
            tuple(sum(map(mul, arow, bcol)) for bcol in bcols)
            for arow in self.nums], self.den * other.den)

    def transpose(self):
        return Matrix._new(self.cols, self.rows, tuple(zip(*self.nums))
                           if self.rows and self.cols else ((),) * self.cols,
                           self.den)

    def kron(self, other):
        """Kronecker product; first factor slowest-varying (row-major blocks)."""
        return Matrix.from_ints(self.rows * other.rows, self.cols * other.cols, [
            tuple(a * b for a in arow for b in brow)
            for arow in self.nums for brow in other.nums], self.den * other.den)

    # stacks stay reduced: a prime of the lcm divides some part's den fully,
    # and that part has a numerator the prime does not divide

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        den, (a, b) = _over((self, other))
        return Matrix._new(self.rows, self.cols + other.cols, tuple(
            ra + rb for ra, rb in zip(a, b)), den)

    def submatrix(self, row_idx, col_idx):
        return Matrix.from_ints(len(row_idx), len(col_idx), [
            tuple(self.nums[i][j] for j in col_idx) for i in row_idx], self.den)

    def is_zero(self):
        return not any(map(any, self.nums))


def _over(mats):
    """The lcm of the matrices' denominators, and their rows over it."""
    den = lcm(*(m.den for m in mats))
    return den, [m.nums if m.den == den else tuple(
        tuple(x * (den // m.den) for x in row) for row in m.nums) for m in mats]


def block_diag(blocks):
    den, parts = _over(blocks)
    cols = sum(b.cols for b in blocks)
    out = []
    c0 = 0
    for b, rows in zip(blocks, parts):
        left, right = (0,) * c0, (0,) * (cols - c0 - b.cols)
        out.extend(left + row + right for row in rows)
        c0 += b.cols
    return Matrix._new(len(out), cols, tuple(out), den)


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
    Rows are replaced, never changed, so a may hold a matrix's own rows.
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


def _pivots(m):
    """Pivot columns of m's RREF: each column outside the span of those
    before it."""
    return _eliminate(list(m.nums), m.cols)[0]


def rank(m):
    """Exact rank via fraction-free (Bareiss) elimination on integer rows."""
    return len(_pivots(m))


def det(m):
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return ONE
    a = list(m.nums)
    pivots, sign = _eliminate(a, n)
    if len(pivots) < n:
        return ZERO
    # the last Bareiss pivot is the determinant of the integer rows
    return Q(sign * a[n - 1][n - 1], m.den ** n)


def rref(m):
    """Reduced row echelon form; returns (rref matrix, pivot column tuple).

    Fraction-free Gauss-Jordan on the integer rows leaves every pivot equal
    to the last one, so the reduced form is those rows over the last pivot.
    """
    a = list(m.nums)
    pivots, _ = _eliminate(a, m.cols, reduce_above=True)
    r = len(pivots)
    if not r:
        return Matrix.zeros(m.rows, m.cols), ()
    a[r:] = [(0,) * m.cols] * (m.rows - r)
    return Matrix.from_ints(m.rows, m.cols, a, a[0][pivots[0]]), tuple(pivots)


def inverse(m):
    """The coordinates of I in m's columns; SingularMatrix if m is singular."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    try:
        return coords_in_basis(m, Matrix.identity(m.rows))
    except ShapeMismatch:
        raise SingularMatrix("matrix has no inverse") from None


def nullspace(m):
    """Canonical nullspace basis as the columns of a cols x k matrix.

    The column of free variable f is e_f minus the RREF's column f on the
    pivot rows; over the RREF's denominator that is reduced already, since
    the RREF's other numerators are its denominator or 0.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    out = [None] * m.cols
    for r, p in enumerate(pivots):
        row = red.nums[r]
        out[p] = tuple(-row[f] for f in free)
    unit = (0,) * len(free)
    for k, f in enumerate(free):
        out[f] = unit[:k] + (red.den,) + unit[k + 1:]
    return Matrix._new(m.cols, len(free), tuple(out), red.den)


def column_space(m):
    """Canonical basis of the column space (rref-of-transpose rows)."""
    red, pivots = rref(m.transpose())
    r = len(pivots)
    if r == 0:
        return Matrix.zeros(m.rows, 0)
    return Matrix._new(m.rows, r, tuple(zip(*red.nums[:r])), red.den)


def new_columns(span, candidates):
    """Indices of the candidate columns that grow the span of span's columns
    and the candidates before them: the pivot columns of their hstack."""
    return [p - span.cols for p in _pivots(span.hstack(candidates))
            if p >= span.cols]


def coords_in_basis(basis, vecs):
    """Coordinates x of vecs' columns in basis, basis @ x == vecs, read off
    one RREF of [basis | vecs]; a basis column outside the RREF's pivots
    gets coordinate 0, so x is unique when basis's columns are independent.
    ShapeMismatch when a column of vecs lies outside basis's span."""
    if basis.rows != vecs.rows:
        raise ShapeMismatch(f"{basis.rows} rows vs {vecs.rows} rows")
    red, pivots = rref(basis.hstack(vecs))
    if any(p >= basis.cols for p in pivots):
        raise ShapeMismatch("vectors outside the span of the basis")
    coords = [(0,) * vecs.cols] * basis.cols
    for r, p in enumerate(pivots):
        coords[p] = red.nums[r][basis.cols:]
    return Matrix.from_ints(basis.cols, vecs.cols, coords, red.den)


def preimage(m, space):
    """Canonical basis of {x : m x in span(space columns)}, in column_space's
    form: the x-parts of the nullspace of [space | m]."""
    if m.rows != space.rows:
        raise ShapeMismatch(f"{m.rows} rows vs {space.rows} rows")
    null = nullspace(space.hstack(m))
    return column_space(null.submatrix(range(space.cols, null.rows),
                                       range(null.cols)))


# ---------------------------------------------------------------------------
# polynomials

def _trim(coeffs):
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _convolve(a, b):
    """Coefficients, lowest degree first, of the product of two polynomials
    over any ring, untrimmed: all zeros when either is zero ([])."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class Poly:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        try:
            self.coeffs = _trim(Q(x) for x in coeffs)
        except (TypeError, ValueError, ArithmeticError):
            raise ShapeMismatch("coefficients are not rationals") from None

    @classmethod
    def x(cls):
        return cls((0, 1))

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
            return Poly(_convolve(self.coeffs, other.coeffs))
        return Poly(tuple(Q(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly((1,))
        for _ in range(k):
            out = out * self
        return out

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
    """det(xI - m), monic, by Berkowitz's division-free algorithm.

    Bordering the leading r x r block A by row r (R, a) and column r (C, a)
    multiplies its characteristic polynomial by the lower triangular
    Toeplitz matrix with first column 1, -a, -R C, -R A C, ..., -R A^(r-1) C.
    The coefficient of x^(n-k) is then divided by den^k.
    """
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n, a = m.rows, m.nums
    c = [1]   # highest degree first
    for r in range(n):
        block = [x[:r] for x in a[:r]]
        row = a[r][:r]
        v = [x[r] for x in a[:r]]
        t = [1, -a[r][r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, b, v)) for b in block]
            t.append(-sum(map(mul, row, v)))
        c = [sum(t[i - j] * c[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
             for i in range(r + 2)]
    return Poly(tuple(Q(c[k], m.den ** k) for k in range(n, -1, -1)))


# ---------------------------------------------------------------------------
# factoring over Z: integer coefficient lists, lowest degree first

def _primitive(f):
    """f over the gcd of its coefficients, leading coefficient positive."""
    g = gcd(*f)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _zgcd(a, b):
    """Primitive gcd of two integer polynomials, by the primitive
    remainder sequence: each pseudo-remainder is cut to its primitive part."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = list(a)
        lb, db = b[-1], len(b) - 1
        while len(r) > db:   # r times a scalar, minus a multiple of b
            g = gcd(r[-1], lb)
            u, v = lb // g, r[-1] // g
            k = len(r) - 1 - db
            r = [u * x for x in r]
            for i, y in enumerate(b):
                r[k + i] -= v * y
            r = _trim(r)
        if not r:
            return _primitive(b)
        a, b = b, _primitive(r)
    return [1] if b else _primitive(a)


def _divexact(a, b):
    """a / b over Z, or None when b does not divide a."""
    a, db, lb = list(a), len(b) - 1, b[-1]
    if len(a) <= db:
        return None if a else []
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, r = divmod(a[k + db], lb)
        if r:
            return None
        q[k] = c
        if c:
            for i in range(db):
                a[k + i] -= c * b[i]
    return None if any(a[:db]) else q


def _squarefree(f):
    """Yun's decomposition of a primitive f: [(a_i, i)] with f the product
    of the a_i ** i, each a_i squarefree and primitive, pairwise coprime."""
    df = _derivative(f)
    a = _zgcd(f, df)
    b, c = _divexact(f, a), _divexact(df, a)
    out, i = [], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        a = _zgcd(b, d) if d else b
        if len(a) > 1:
            out.append((a, i))
        b, c, i = _divexact(b, a), _divexact(d, a), i + 1
    return out


# arithmetic mod m on lists of residues; a divisor's leading coefficient
# must be a unit mod m

def _mulmod(a, b, m):
    return _trim([x % m for x in _convolve(a, b)])


def _addmod(a, b, m):
    return _trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _submod(a, b, m):
    return _trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _divmod_mod(a, b, m):
    r, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):   # reduced only at the end
        c = q[k] = r[k + db] * inv % m
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    return _trim(q), _trim([x % m for x in r[:db]])


def _gcd_mod(a, b, p):
    """Monic gcd mod a prime p."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _xgcd_mod(a, b, p):
    """s, t with s a + t b = 1 mod p, for a and b coprime mod p."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _submod(s0, _mulmod(q, s1, p), p)
        t0, t1 = t1, _submod(t0, _mulmod(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [x * inv % p for x in s0], [x * inv % p for x in t0]


def _powmod(a, e, g, p):
    """a ** e mod (g, p)."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod_mod(_mulmod(out, a, p), g, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mulmod(a, a, p), g, p)[1]
    return out


def _distinct_degree(f, p):
    """[(g, d)]: g the product of the degree-d factors of the monic
    squarefree f mod p."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _submod(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """Cantor–Zassenhaus: the monic degree-d factors of g mod an odd p."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        u = _gcd_mod(g, _submod(_powmod(a, e, g, p), [1], p), p)
        if 1 < len(u) <= n:
            v = _divmod_mod(g, u, p)[0]
            return _equal_degree(u, d, p, rng) + _equal_degree(v, d, p, rng)


def _primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _factor_mod_p(f):
    """An odd prime p not dividing lc(f) with f squarefree mod p, and the
    monic irreducible factors of f mod p; of the first two such primes,
    the one with fewer factors."""
    best = None
    tried = 0
    for p in _primes():
        if not f[-1] % p:
            continue
        inv = pow(f[-1], -1, p)
        g = [c * inv % p for c in f]
        if len(_gcd_mod(g, _trim([c % p for c in _derivative(g)]), p)) > 1:
            continue
        ddf = _distinct_degree(g, p)
        count = sum((len(h) - 1) // d for h, d in ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        tried += 1
        if count == 1 or tried == 2:
            break
    _, p, ddf = best
    rng = Random(p)   # local: the factors do not depend on call order
    return p, [h for g, d in ddf for h in _equal_degree(g, d, p, rng)]


def _hensel(f, facs, p, m):
    """Lift the monic factors facs of f mod p, f = lc(f) * prod(facs) mod p,
    to monic factors mod m, a power of p: split the list in two halves and
    lift the two products quadratically (von zur Gathen and Gerhard,
    algorithm 15.10), then each half alone."""
    if len(facs) == 1:
        inv = pow(f[-1], -1, m)
        return [[c * inv % m for c in f]]
    half = len(facs) // 2
    g = [f[-1] % p]
    for h in facs[:half]:
        g = _mulmod(g, h, p)
    h = [1]
    for k in facs[half:]:
        h = _mulmod(h, k, p)
    s, t = _xgcd_mod(g, h, p)
    q = p
    while q < m:
        q = min(q * q, m)
        e = _submod(f, _mulmod(g, h, q), q)
        u, r = _divmod_mod(_mulmod(s, e, q), h, q)
        g = _addmod(g, _addmod(_mulmod(t, e, q), _mulmod(u, g, q), q), q)
        h = _addmod(h, r, q)
        b = _submod(_addmod(_mulmod(s, g, q), _mulmod(t, h, q), q), [1], q)
        c, d = _divmod_mod(_mulmod(s, b, q), h, q)
        s = _submod(s, d, q)
        t = _submod(t, _addmod(_mulmod(t, b, q), _mulmod(c, g, q), q), q)
    return _hensel(g, facs[:half], p, m) + _hensel(h, facs[half:], p, m)


def _zassenhaus(f):
    """Irreducible factors over Z of a squarefree primitive f with
    f(0) != 0 (Zassenhaus 1969): factor mod a prime p, lift the factors to
    mod p**l past twice the bound on lc(f) times a factor's coefficients
    (|lc(f)| 2**n ||f||_2, after Mignotte), then try products of subsets of
    growing size by exact trial division."""
    n = len(f) - 1
    if n == 1:
        return [f]
    if n == 2:   # a quadratic splits exactly when its discriminant is a square
        c, b, a = f
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc > 0 else 0
        if s * s != disc:
            return [f]
        return [_primitive([b - s, 2 * a]), _primitive([b + s, 2 * a])]
    p, facs = _factor_mod_p(f)
    if len(facs) == 1:
        return [f]
    bound = 2 * abs(f[-1]) * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    m = p
    while m <= bound:
        m *= p
    facs = _hensel(f, facs, p, m)
    out, left, s, half = [], list(range(len(facs))), 1, m // 2
    while 2 * s <= len(left):
        lc = f[-1]
        for subset in combinations(left, s):
            c0 = lc
            for i in subset:   # the constant term first: it must divide lc f(0)
                c0 = c0 * facs[i][0] % m
            c0 = c0 - m if c0 > half else c0
            if not c0 or (lc * f[0]) % c0:
                continue
            g = [lc]
            for i in subset:
                g = _mulmod(g, facs[i], m)
            g = _primitive([c - m if c > half else c for c in g])
            quo = _divexact(f, g)
            if quo is not None:
                out.append(g)
                f = quo
                left = [i for i in left if i not in subset]
                break
        else:
            s += 1
    out.append(f)
    return out


def factor_poly(p):
    """Monic irreducible factors over Q with multiplicities.

    product(factor^mult) * leading(p) == p exactly; constants factor to [].
    Over Z: the primitive part, split by Yun's squarefree decomposition
    (Yun 1976), each part factored by Zassenhaus's algorithm.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if p.degree() < 2:   # a constant has no factors, a linear p is irreducible
        return [(p.monic(), 1)] * p.degree()
    den = lcm(*(c.denominator for c in p.coeffs))
    f = _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])
    zeros = next(i for i, c in enumerate(f) if c)
    out = [(Poly.x(), zeros)] if zeros else []
    for part, mult in _squarefree(f[zeros:]):
        out.extend((Poly([Q(c, g[-1]) for c in g]), mult)
                   for g in _zassenhaus(part))
    out.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs, fm[1]))
    return out


def companion(p):
    """Companion matrix of a monic polynomial."""
    p = p.monic()
    d = p.degree()
    if d < 1:
        raise ZeroPolynomial("companion needs degree >= 1")
    return Matrix(d, d, [[int(i == j + 1) for j in range(d - 1)] + [-c]
                         for i, c in enumerate(p.coeffs[:d])])


def rational_canonical(m):
    """Elementary divisors (irreducible p, power s) of a square matrix.

    Repeats carry multiplicity; sorted canonically.  For a factor p of the
    characteristic polynomial with multiplicity e, p(m) is nilpotent on the
    p-primary part, of dimension e * deg p, and invertible on the rest; a
    divisor p^s is deg p Jordan chains of p(m) of length s.  chains counts
    them from the ranks of the powers of p(m), the invertible rest giving
    the stable rank.
    """
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    out = []
    for p, e in factor_poly(charpoly(m)):
        d = p.degree()
        lengths = [s for _, s in chains([p.eval_matrix(m)], m.rows - e * d)]
        # sorted lengths come in runs of d chains per divisor
        out.extend((p, s) for s in lengths[::d])
    out.sort(key=lambda ps: (ps[0].degree(), ps[0].coeffs, ps[1]))
    return out


def stable_image(m):
    """Canonical basis of the stable image of a square matrix m, the
    invertible part of Fitting's lemma: from m's image on, each sweep
    takes the image under m of the last, until one keeps the dimension."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    core, before = column_space(m), m.cols
    while core.cols < before:
        core, before = column_space(m @ core), core.cols
    return core


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


def chains(blocks, stable=0):
    """(start, length) of every chain of a graded tuple, repeats counted,
    from the ranks of composites; sorted by start, then length.

    blocks[a] maps grade a to grade (a+1) mod n, and r(a, k) is the rank of
    the composite of the k blocks leaving grade a.  A vector of grade a
    that survives k blocks but not k + 1, and is no image from grade a - 1,
    tops a chain of length k + 1 starting at grade a + 1 (1-based): there
    are r(a, k) - r(a-1, k+1) - r(a, k+1) + r(a-1, k+2) of them.  stable is
    the rank of the invertible (Fitting) part, which every composite keeps,
    so it cancels: each start stops at its first composite of rank stable,
    and every r past it reads as stable.  An open path is the cycle closed
    by a zero block.
    """
    n = len(blocks)
    ranks = []
    for a in range(n):
        row, x = [blocks[a].cols], None
        while row[-1] > stable:
            b = blocks[(a + len(row) - 1) % n]
            x = b if x is None else b @ x
            row.append(rank(x))
        ranks.append(row)

    def r(a, k):
        row = ranks[a % n]
        return row[k] if k < len(row) else stable

    return [(a + 1, k + 1) for a in range(n) for k in range(len(ranks[a]) - 1)
            for _ in range(r(a, k) - r(a - 1, k + 1) - r(a, k + 1) + r(a - 1, k + 2))]


def kernel_filtration(blocks):
    """Filtrations F[a][j] = vectors of grade a killed within j steps.

    blocks[a] maps grade a to grade (a+1) mod n.  Grows by simultaneous
    backward preimage sweeps until every grade is full or a sweep adds
    nothing; on a nilpotent tuple no sweep is made only to confirm.
    Returns the per-grade filtrations and their last levels, the stable
    kernels.
    """
    n = len(blocks)
    cur = [Matrix.zeros(b.cols, 0) for b in blocks]
    filt = [[level] for level in cur]
    while any(c.cols < b.cols for c, b in zip(cur, blocks)):
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
    if any(blocks[a].rows != blocks[(a + 1) % n].cols for a in range(n)):
        raise ShapeMismatch("graded blocks do not chain")
    filt, stable = kernel_filtration(blocks)
    if any(k.cols != b.cols for k, b in zip(stable, blocks)):
        raise NotNilpotent("cyclic composite has a nonzero eventual image")
    out = []
    for start, length, cur in chain_tops(blocks, filt):
        vecs = [cur]
        g = start - 1
        for _ in range(length - 1):
            cur = blocks[g] @ cur
            g = (g + 1) % n
            vecs.append(cur)
        out.append(JordanChain(start, tuple(vecs)))
    return out


def chain_tops(blocks, filt):
    """(start, length, top vector) of each Jordan chain of the graded blocks
    on their stable kernel, picked from its filtration filt (as
    kernel_filtration returns it); sorted by start, then longest first.

    The blocks need not be nilpotent: every level of filt lies in the
    stable kernel, and the rule that picks the tops only compares spans,
    so the starts and lengths do not depend on coordinates.
    """
    n = len(blocks)
    lmax = max(len(filt[a]) for a in range(n)) - 1

    def level(a, j):
        f = filt[a]
        return f[j] if j < len(f) else f[-1]

    tops = []
    for ell in range(lmax, 0, -1):
        for a in range(n):
            # a candidate starts a chain iff it is new modulo the lower
            # level and the image of the grade before
            prev_grade = (a - 1) % n
            span = level(a, ell - 1).hstack(
                blocks[prev_grade] @ level(prev_grade, ell + 1))
            cand = level(a, ell)
            tops.extend((a + 1, ell, cand.submatrix(range(cand.rows), (j,)))
                        for j in new_columns(span, cand))
    tops.sort(key=lambda t: (t[0], -t[1]))
    return tops
