"""Exact rational algebra written apart from tdr, for making and checking inputs.

Matrices are lists of lists of Fraction.  A vertex tensor is a flat
row-major list over its slots, outgoing wires first then incoming wires,
each side in sorted wire-id order with the first wire varying slowest;
that is the documented tdr file layout, restated here so that expected
answers never come from tdr itself.
"""

from fractions import Fraction
from math import gcd

F = Fraction
ZERO = F(0)
ONE = F(1)


def fmt_q(x):
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[ZERO] * c for _ in range(r)]


def matmul(a, b):
    """a (r x k) times b (k x c)."""
    k = len(b)
    c = len(b[0]) if b else 0
    out = []
    for arow in a:
        acc = [ZERO] * c
        for t in range(k):
            x = arow[t]
            if x:
                brow = b[t]
                for j in range(c):
                    if brow[j]:
                        acc[j] += x * brow[j]
        out.append(acc)
    return out


def inverse(a):
    """Gauss-Jordan inverse; raises ValueError when a is singular."""
    n = len(a)
    m = [list(row) + [ONE if i == j else ZERO for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            raise ValueError("singular")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            f = m[i][col]
            if i != col and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def block_diag(blocks, rows, cols):
    """Blocks (each r_i x c_i, given with their sizes) on the diagonal."""
    out = zeros(rows, cols)
    r0 = c0 = 0
    for b, r, c in blocks:
        for i in range(r):
            for j in range(c):
                out[r0 + i][c0 + j] = b[i][j]
        r0 += r
        c0 += c
    return out


def rand_q(rng, lo=-4, hi=4, dens=(1, 1, 2, 3)):
    return F(rng.randint(lo, hi), rng.choice(dens))


def rand_nonzero_q(rng, lo=-4, hi=4, dens=(1, 1, 2, 3)):
    while True:
        x = rand_q(rng, lo, hi, dens)
        if x:
            return x


def rand_invertible(rng, n):
    """P L U D with unit-triangular L, U and a nonzero diagonal D."""
    low = identity(n)
    up = identity(n)
    for i in range(n):
        for j in range(i):
            low[i][j] = F(rng.randint(-2, 2))
            up[j][i] = F(rng.randint(-2, 2))
    diag = [[rand_nonzero_q(rng, -3, 3, (1, 1, 2)) if i == j else ZERO
             for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[ONE if perm[i] == j else ZERO for j in range(n)] for i in range(n)]
    return matmul(matmul(matmul(pm, low), up), diag)


# ---------------------------------------------------------------------------
# polynomials, coefficients lowest degree first

def poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_pow(p, k):
    out = [ONE]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def companion(p):
    """Companion matrix of a monic polynomial: ones below the diagonal."""
    d = len(p) - 1
    m = zeros(d, d)
    for i in range(1, d):
        m[i][i - 1] = ONE
    for i in range(d):
        m[i][d - 1] = -p[i]
    return m


def _divisors(n):
    n = abs(n)
    return [k for k in range(1, n + 1) if n % k == 0]


def has_rational_root(p):
    """Rational-root test on a polynomial with Fraction coefficients."""
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    if ints[0] == 0:
        return True
    for num in _divisors(ints[0]):
        for d in _divisors(ints[-1]):
            for cand in (F(num, d), F(-num, d)):
                acc = ZERO
                for c in reversed(p):
                    acc = acc * cand + c
                if acc == 0:
                    return True
    return False


def is_eisenstein(p, prime):
    """Eisenstein's criterion on a monic integer polynomial."""
    if any(c.denominator != 1 for c in p) or p[-1] != 1:
        return False
    low = [int(c) for c in p[:-1]]
    return all(c % prime == 0 for c in low) and low[0] % (prime * prime) != 0


def is_irreducible(p):
    """Irreducibility over Q for degree <= 3 (no rational root) or Eisenstein."""
    deg = len(p) - 1
    if deg <= 3:
        return deg >= 1 and not has_rational_root(p)
    return is_eisenstein(p, 2) or is_eisenstein(p, 3)


# ---------------------------------------------------------------------------
# tensors on diagrams

def slots_of(wires, v):
    """(outgoing ids, incoming ids) at v, each sorted; a loop is in both."""
    out = sorted(w["id"] for w in wires if w["tail"] == v)
    inc = sorted(w["id"] for w in wires if w["head"] == v)
    return out, inc


def prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def flat_from(out_ids, in_ids, dims, value):
    """Flat tensor whose entry at a slot assignment is value(out idx, in idx)."""
    od = [dims[w] for w in out_ids]
    idd = [dims[w] for w in in_ids]
    rows, cols = prod(od), prod(idd)
    flat = []
    for r in range(rows):
        ri = _dec(r, od)
        for c in range(cols):
            flat.append(value(ri, _dec(c, idd)))
    return flat


def _dec(code, ds):
    out = [0] * len(ds)
    for k in range(len(ds) - 1, -1, -1):
        out[k] = code % ds[k]
        code //= ds[k]
    return out


def transform_axis(flat, shape, axis, m):
    """Apply the square matrix m along one axis of a flat row-major tensor."""
    d = shape[axis]
    inner = prod(shape[axis + 1:])
    outer = prod(shape[:axis])
    out = [ZERO] * len(flat)
    for o in range(outer):
        base = o * d * inner
        for i in range(inner):
            fiber = [flat[base + j * inner + i] for j in range(d)]
            for r in range(d):
                acc = ZERO
                mr = m[r]
                for j in range(d):
                    if fiber[j] and mr[j]:
                        acc += mr[j] * fiber[j]
                out[base + r * inner + i] = acc
    return out


def base_change(wires, dims, tensors, gs):
    """g acts on each wire: kron(g_out) T kron(g_in)^-1 at every vertex."""
    ginv_t = {}
    for wid, g in gs.items():
        inv = inverse(g)
        ginv_t[wid] = [list(col) for col in zip(*inv)] if inv else []
    out = {}
    for v, flat in tensors.items():
        o, i = slots_of(wires, v)
        shape = [dims[w] for w in o] + [dims[w] for w in i]
        for axis, wid in enumerate(o):
            flat = transform_axis(flat, shape, axis, gs[wid])
        for k, wid in enumerate(i):
            flat = transform_axis(flat, shape, len(o) + k, ginv_t[wid])
        out[v] = flat
    return out


def contract_value(vertices, wires, dims, tensors):
    """Full contraction by sparse vertex-by-vertex absorption.

    The frontier maps index tuples over its open slots to values; each
    absorbed vertex joins on the wires it shares with the frontier.  This
    is a different order and data layout from tdr's pairwise wire greedy.
    """
    front_slots = []          # (wire id, side) open on the frontier
    front = {(): ONE}
    todo = list(vertices)
    while todo:
        open_w = {w for w, _ in front_slots}
        todo.sort(key=lambda v: (-sum(1 for x in wires if x["id"] in open_w
                                      and v in (x["tail"], x["head"])), v))
        v = todo.pop(0)
        o, i = slots_of(wires, v)
        vslots = [(w, "out") for w in o] + [(w, "in") for w in i]
        shape = [dims[w] for w, _ in vslots]
        ventries = {}
        flat = tensors[v]
        for code, x in enumerate(flat):
            if x:
                ventries[tuple(_dec(code, shape))] = x
        # a loop at v is closed inside v's own tensor
        loops = [w for w in o if w in i]
        if loops:
            keep = [k for k, (w, _) in enumerate(vslots) if w not in loops]
            pairs = [(vslots.index((w, "out")), vslots.index((w, "in")))
                     for w in loops]
            reduced = {}
            for idx, x in ventries.items():
                if all(idx[a] == idx[b] for a, b in pairs):
                    key = tuple(idx[k] for k in keep)
                    reduced[key] = reduced.get(key, ZERO) + x
            ventries = reduced
            vslots = [vslots[k] for k in keep]
        partner = {"out": "in", "in": "out"}
        join_v, join_f = [], []
        for k, (w, side) in enumerate(vslots):
            if (w, partner[side]) in front_slots:
                join_v.append(k)
                join_f.append(front_slots.index((w, partner[side])))
        keep_f = [k for k in range(len(front_slots)) if k not in join_f]
        keep_v = [k for k in range(len(vslots)) if k not in join_v]
        grouped = {}
        for idx, x in ventries.items():
            key = tuple(idx[k] for k in join_v)
            grouped.setdefault(key, []).append(
                (tuple(idx[k] for k in keep_v), x))
        new = {}
        for fidx, fx in front.items():
            key = tuple(fidx[k] for k in join_f)
            rest = tuple(fidx[k] for k in keep_f)
            for vrest, vx in grouped.get(key, ()):
                nk = rest + vrest
                new[nk] = new.get(nk, ZERO) + fx * vx
        front = {k: x for k, x in new.items() if x}
        front_slots = ([front_slots[k] for k in keep_f]
                       + [vslots[k] for k in keep_v])
    return front.get((), ZERO)


def rows_of(flat, rows, cols):
    return [flat[r * cols:(r + 1) * cols] for r in range(rows)]


def rep_record(vertices, wires, dims, tensors):
    """tdr's representation file record of flat tensors."""
    verts = {}
    for v in vertices:
        o, i = slots_of(wires, v)
        r, c = prod(dims[w] for w in o), prod(dims[w] for w in i)
        verts[v] = {"rows": r, "cols": c,
                    "entries": [[fmt_q(x) for x in row]
                                for row in rows_of(tensors[v], r, c)]}
    return {"diagram": {"vertices": list(vertices),
                        "wires": [dict(w) for w in wires]},
            "dims": dict(dims), "vertices": verts}
