"""Decomposition of path- and cycle-shaped representations.

Shapes are re-oriented internally along a deterministic traversal keyed
to lexicographic ids, so the output never depends on wire orientations:
a Shape's wires point along the traversal, and reorient turns every wire
that points against it in one reverse_wire_rep pass.  Positions are wires
along the traversal; arcs are the vertex matrices between consecutive
positions.  _oriented_arcs reads a representation as (position dims,
arcs); on_shape is its inverse, writing position dims and arcs onto a
diagram's traversal, and block_arcs gives every indecomposable block in
that form, so realize and the generator build blocks the way decompose
reads them.

Intervals and strings are chains of basis vectors along the arcs, which
exactalg.chains counts from the ranks of composites.  Open paths (one or
two dangling ends) are cycles closed by a zero arc, whose chains are the
Interval blocks; the closed end of a one-dangling path behaves as an
extra pinned position of dimension 1.  A cycle splits into the stable
image and the stable kernel of its monodromy at position 1 (Fitting's
lemma): the Band blocks are the elementary divisors of the monodromy on
its stable image, and the invertible part keeps the rank of that image
in every composite of arcs, so the chains counted above it are the
String blocks of the nilpotent part.  Closed paths are decomposed
through their associated cycle, whose last position is the pinned
scalar slot.
"""

from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .classify import classify_diagram
from .errors import (
    DiagramMismatch,
    InvalidDescriptor,
    NotConnected,
    NotDecidableWild,
    NotDecomposable,
)
from .exactalg import (
    Matrix,
    Poly,
    chains,
    companion,
    coords_in_basis,
    factor_poly,
    rational_canonical,
    stable_image,
)
from .representation import Representation, check_size, reverse_wire_rep
from .semigraph import TensorDiagram, Wire, restrict, slots


@dataclass(frozen=True)
class Interval:
    a: int
    b: int

    def _key(self):
        return (0, self.a, self.b)

    def dims(self, m):
        """Dimension of the block at each of m positions."""
        return [1 if self.a <= p <= self.b else 0 for p in range(1, m + 1)]


@dataclass(frozen=True)
class Band:
    poly: Poly    # monic irreducible, nonzero constant term
    power: int

    def _key(self):
        return (1, self.poly.degree(), self.poly.coeffs, self.power)

    def dims(self, m):
        return [self.poly.degree() * self.power] * m


@dataclass(frozen=True)
class StringBlock:
    start: int
    length: int

    def _key(self):
        return (2, self.start, self.length)

    def dims(self, m):
        # a chain of length q*m + r passes every position q times and the
        # r positions from start on once more
        q, r = divmod(max(self.length, 0), m)
        return [q + ((i - self.start + 1) % m < r) for i in range(m)]


@dataclass(frozen=True)
class Decomposition:
    blocks: tuple   # ((descriptor, multiplicity), ...) canonically sorted
    # the Shape the blocks live on, when known; not part of equality
    shape: object = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, descs, shape=None):
        """The decomposition with these descriptors, repeats counted."""
        counts = {}
        for desc in descs:
            counts[desc] = counts.get(desc, 0) + 1
        return cls(tuple(sorted(counts.items(), key=lambda dm: dm[0]._key())),
                   shape)


# ---------------------------------------------------------------------------
# shapes

def reorient(r, wires):
    """r with every wire that points against its copy in wires reversed, in
    one reverse_wire_rep pass; r itself when none does."""
    have = set(r.diagram.wires)
    flip = [w.id for w in wires if w not in have]
    return reverse_wire_rep(r, *flip) if flip else r


class Shape(NamedTuple):
    family: str     # "A0" | "A1" | "P" | "J"
    n: int
    wires: list     # position order, each Wire pointing along the traversal
    verts: list     # arc order


def traverse(d, family):
    """Deterministic traversal of a path or cycle shape, as a Shape of
    size len(d.vertices).

    Its wires are in position order, each pointing along the traversal
    (from the vertex the walk leaves to the one it reaches), and its
    vertices in arc order.  Open paths start at their (smallest) dangling
    wire; closed paths at their smallest end vertex and cycles at their
    smallest vertex, leaving along its smallest wire, and that start
    vertex becomes the last arc vertex.
    """
    incident = {v: nb.outgoing + nb.incoming   # a loop is listed twice
                for v, nb in slots(d).items()}
    wire = {w.id: w for w in d.wires}
    if family in ("A0", "A1"):
        start = None
        nxt = [min(w.id for w in d.wires if w.is_dangling())]
    else:
        ends = [v for v in d.vertices if len(incident[v]) == 1]
        start = min(ends or d.vertices)
        nxt = sorted(incident[start])[:1]
    wires, verts, v = [], [], start
    while nxt:
        w = wire[nxt[0]]
        tail, v = v, (w.head if w.tail == v else w.tail)
        wires.append(Wire(w.id, tail, v))
        if v is None or v == start:
            break
        verts.append(v)
        nxt = [x for x in incident[v] if x != w.id]
    if start is not None:
        verts.append(start)
    return Shape(family, len(d.vertices), wires, verts)


def shape_of(d):
    """Family, size and traversal of a connected finite or tame diagram."""
    comps = classify_diagram(d)
    if len(comps) != 1:
        raise NotConnected(f"{len(comps)} components")
    _, cls = comps[0]
    if cls.kind == "wild":
        raise NotDecomposable(f"wild component ({cls.witness.kind})")
    return traverse(d, cls.family)


def position_dims(dims, shape):
    """Dimension at each position: the wires, then the pinned 1 of A1 and P."""
    return [dims[w.id] for w in shape.wires] + [1] * (shape.family in ("A1", "P"))


def _oriented_arcs(r, shape):
    """Reorientation along the traversal; returns (position dims, arcs).

    Positions are 1-based; arcs[i] maps position i+1 to position i+2
    (cyclically for J/P, where the last position of P is the scalar slot).
    """
    r = reorient(r, shape.wires)
    return position_dims(r.dims, shape), [r.tensors[v] for v in shape.verts]


# ---------------------------------------------------------------------------
# chain counts

def _cycle_blocks(arcs):
    """Band and String blocks of a cycle's arcs."""
    mono = arcs[0]   # the monodromy at position 1
    for arc in arcs[1:]:
        mono = arc @ mono
    core = stable_image(mono)
    # the invertible part keeps the rank of its stable image in every
    # composite of arcs, so the chains below are the nilpotent part's
    out = [StringBlock(s, k) for s, k in chains(arcs, core.cols)]
    if core.cols:
        lbar = coords_in_basis(core, mono @ core)
        out.extend(Band(p, s) for p, s in rational_canonical(lbar))
    return out


def decompose(r):
    """Indecomposable block multiset of a connected finite/tame shape."""
    return _decompose_on(r, shape_of(r.diagram))


def _decompose_on(r, shape):
    dims, arcs = _oriented_arcs(r, shape)
    m = len(dims)
    if shape.family in ("A0", "A1"):
        # an open path is the cycle closed by a zero arc
        closing = Matrix.zeros(dims[0], dims[-1])
        blocks = [Interval(a, a + k - 1) for a, k in chains(arcs + [closing])]
    else:
        blocks = _cycle_blocks(arcs)
    # the simple block at the pinned position of A1 and P is no block
    pinned = {"A1": Interval(m, m), "P": StringBlock(m, 1)}.get(shape.family)
    return Decomposition.of([blk for blk in blocks if blk != pinned], shape)


def block_alias(family, n, desc):
    """Classical short name for a closed-path block, when one applies.

    Closed paths have three named families: V(lambda) for scalar bands,
    V0(i) for simples off the pinned position, W(i) for strings wrapping
    the pin exactly once.  Everything else (higher band powers, other
    strings) has no alias and keeps its descriptor.
    """
    if family != "P":
        return None
    if isinstance(desc, Band) and desc.poly.degree() == 1 and desc.power == 1:
        lam = -desc.poly.coeffs[0]
        return f"V({lam})"
    if isinstance(desc, StringBlock):
        if desc.length == 1 and desc.start <= n - 1:
            return f"V0({desc.start})"
        if desc.start == 1 and n < desc.length <= 2 * n - 1:
            return f"W({desc.length - n})"
    return None


def isomorphic(r1, r2):
    """Orbit equality through decomposition, componentwise."""
    if r1.diagram != r2.diagram:
        raise DiagramMismatch("isomorphism test needs a common diagram")
    comps = classify_diagram(r1.diagram)
    for _, cls in comps:
        if cls.kind == "wild":
            raise NotDecidableWild(f"wild component ({cls.witness.kind})")
    for comp, cls in comps:
        d = restrict(r1.diagram, comp)
        shape = traverse(d, cls.family)
        s1, s2 = (Representation(d, {w: r.dims[w] for w in comp.wires},
                                 {v: r.tensors[v] for v in comp.vertices})
                  for r in (r1, r2))
        if s1.dims != s2.dims or _decompose_on(s1, shape) != _decompose_on(s2, shape):
            return False
    return True


# ---------------------------------------------------------------------------
# canonical realizations

def _names(prefix, k):
    """prefix1 .. prefixk, zero-padded to one width once k > 9."""
    width = len(str(k)) if k > 9 else 1
    return [f"{prefix}{i:0{width}d}" for i in range(1, k + 1)]


def _check_shape(family, n):
    if type(n) is not int or n < 1:
        raise InvalidDescriptor(f"shape size {n!r} out of range")
    if family not in ("A0", "A1", "P", "J"):
        raise InvalidDescriptor(f"unknown family {family!r}")


def canonical_diagram(family, n):
    """The lex-traversal-friendly diagram for each shape family.

    Each family is a chain of endpoints (None for a dangling end) with one
    wire from every endpoint to the next, named in chain order.
    """
    _check_shape(family, n)
    vs = _names("v", n)
    ends = {"A0": [None, *vs, None], "A1": [None, *vs], "P": vs,
            "J": vs + vs[:1]}[family]
    wires = map(Wire, _names("e", len(ends) - 1), ends, ends[1:])
    return TensorDiagram(tuple(vs), tuple(sorted(wires)))


def _check_band(desc):
    p = desc.poly
    if p.degree() < 1 or p.leading() != 1:
        raise InvalidDescriptor("band polynomial must be monic, degree >= 1")
    if not p.coeffs[0]:
        raise InvalidDescriptor("band polynomial needs a nonzero constant term")
    if desc.power < 1:
        raise InvalidDescriptor("band power must be >= 1")
    if factor_poly(p) != [(p, 1)]:
        raise InvalidDescriptor("band polynomial must be irreducible")


def block_arcs(family, n, desc):
    """Position dims and arcs, as _oriented_arcs reads them, of one block.

    Intervals and strings are chains: one basis vector per position they
    pass, in order, each arc mapping a chain vector to the next one.  A
    band is the identity on every arc but the last, the companion matrix
    of poly ** power.  The pinned position of A1 and P is a scalar slot of
    dimension 1 in every block; a block that misses it meets it through
    zero maps.  Every arc's size is checked against the cap first.
    """
    _check_shape(family, n)
    open_path = family in ("A0", "A1")
    m = n + open_path
    if not isinstance(desc, (Interval,) if open_path else (Band, StringBlock)):
        raise InvalidDescriptor(f"descriptor {desc!r} not valid for {family}")
    # poly must be a Poly and every other field an int (no bool)
    if any(type(getattr(desc, f.name)) is not f.type for f in fields(desc)):
        raise InvalidDescriptor(f"descriptor {desc!r} has a field of the wrong type")
    if open_path:
        if not (1 <= desc.a <= desc.b <= m):
            raise InvalidDescriptor(f"interval out of range for {family}({n})")
        if family == "A1" and desc.a == m:
            raise InvalidDescriptor("interval covers only the pinned position")
        start, length = desc.a, desc.b - desc.a + 1
    elif isinstance(desc, Band):
        _check_band(desc)
    else:
        if not (1 <= desc.start <= n) or desc.length < 1:
            raise InvalidDescriptor(f"string out of range for n={n}")
        start, length = desc.start, desc.length
    dims = desc.dims(m)
    if family == "P":
        if dims[-1] > 1:
            raise InvalidDescriptor(
                "block needs more than one copy of the pinned position")
        if desc == StringBlock(n, 1):
            raise InvalidDescriptor("pinned simple is the zero block")
    if family in ("A1", "P"):
        dims[-1] = 1
    # arc g maps position g+1 to position g+2 (cyclically), 1-based
    for g in range(n):
        check_size(f"of arc {g + 1}", dims[(g + 1) % m] * dims[g])
    if isinstance(desc, Band):
        return dims, ([Matrix.identity(dims[0])] * (n - 1)
                      + [companion(desc.poly ** desc.power)])
    arcs = []
    for g in range(n):
        rows = [[0] * dims[g] for _ in range(dims[(g + 1) % m])]
        # chain vector j is the (j // m)-th basis vector at position
        # start + j (cyclically)
        for j in range((g - start + 1) % m, length - 1, m):
            rows[(j + 1) // m][j // m] = 1
        arcs.append(Matrix.from_ints(dims[(g + 1) % m], dims[g], rows))
    return dims, arcs


def on_shape(d, shape, dims, arcs):
    """The representation with these position dims and arcs on d's shape.

    The inverse of _oriented_arcs: the i-th wire of the traversal carries
    position i+1, the i-th arc vertex holds arcs[i], and every wire points
    along the traversal, as in shape.wires.  The pinned position of A1 and
    P is no wire, so its dimension (1) is not stored.
    """
    return Representation(TensorDiagram(d.vertices, tuple(sorted(shape.wires))),
                          {w.id: k for w, k in zip(shape.wires, dims)},
                          dict(zip(shape.verts, arcs)))


def realize(family, n, desc):
    """Canonical representation of one indecomposable block."""
    d = canonical_diagram(family, n)
    return on_shape(d, traverse(d, family), *block_arcs(family, n, desc))
