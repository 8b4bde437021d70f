"""Representations of tensor diagrams and their structure maps.

A representation assigns a dimension to every wire and one exact rational
matrix to every vertex, of at most TENSOR_CAP entries, rows and columns
(checked on dims, before allocating; contraction nodes, merged tensors and
the Kronecker products of a base change too).  Rows are indexed by the
multi-index over the vertex's outgoing slots and columns over its incoming
slots, as semigraph.slots lists them (canonical wire order), the first
wire varying slowest; an empty side indexes a single scalar slot.  A loop
has a slot on each side.

Each input rule is checked once: vertex_shapes checks dims and gives the
vertex shapes (InvalidDims), and _phi_checked checks a map of one Matrix
per wire, a base change or a morphism (SizeMismatch).  Both errors are
ShapeMismatch, as is a tensor of the wrong shape.

Everything downstream (direct sums, tensor products, wire reversal, the
splitting functor, contraction) re-indexes a vertex's flat tensor through
one primitive, _offsets: the flat offsets of an axis view with chosen
strides.  Each operation is a choice of strides, and takes one pass per
vertex: reverse_wire_rep reverses any set of wires at once and direct_sum
sums any number of summands at once.
"""

from collections.abc import Mapping
from math import lcm, prod
from operator import mul
from typing import NamedTuple

from .classify import classify_diagram
from .errors import (
    ContractionTooLarge,
    DiagramMismatch,
    InvalidDims,
    NotALoop,
    NotAMorphism,
    NotClosed,
    NotMonic,
    NotNormalized,
    NotQuiverLike,
    RestrictedDimViolation,
    ShapeMismatch,
    SizeMismatch,
    TensorTooLarge,
    UnknownWire,
)
from .exactalg import Matrix, column_space, inverse, new_columns, rank
from .rational import ZERO, Q
from .semigraph import (
    TensorDiagram,
    Wire,
    fresh_vertex,
    reverse_wire,
    slot_keys,
    slots,
    validate_diagram,
)


class Representation(NamedTuple):
    diagram: TensorDiagram
    dims: dict      # wire id -> dimension
    tensors: dict   # vertex id -> Matrix

    def __repr__(self):
        return f"Representation({self.diagram!r}, dims={self.dims!r})"


def _strides(dims):
    """Flat strides of a tensor over axes of these dims, first axis slowest."""
    out = []
    step = 1
    for d in reversed(dims):
        out.append(step)
        step *= d
    return out[::-1]


def _offsets(dims, strides, base=0):
    """Flat offsets, first axis slowest, of an axis view with these strides.

    This is the one re-indexing primitive: permuting slots is a choice of
    strides, a block is a view at a base offset, a repeated stride walks a
    diagonal and a stride of 0 pins a dimension-1 axis.
    """
    offs = [base]
    for d, s in zip(dims, strides):
        offs = [o + i * s for o in offs for i in range(d)]
    return offs


TENSOR_CAP = 1 << 22   # entries of the largest tensor or contraction node


def check_size(v, size):
    """Refuse a tensor of more than TENSOR_CAP entries at vertex v."""
    if size > TENSOR_CAP:
        raise TensorTooLarge(f"vertex {v} needs a tensor of {size} entries, "
                             f"over the cap of {TENSOR_CAP}")


def _flat(m):
    """The integer numerators of a matrix, row-major (over m.den)."""
    return [x for row in m.nums for x in row]


def _as_matrix(nums, den, keys, dims):
    """The matrix nums / den of a flat tensor over the slot keys of a vertex."""
    rows = prod(dims[w] for w, side in keys if side == "tail")
    cols = prod(dims[w] for w, side in keys if side == "head")
    return Matrix.from_ints(rows, cols, [
        nums[i * cols:(i + 1) * cols] for i in range(rows)], den)


def _outer(size, offs1, xs1, offs2, xs2):
    """Outer product of two views that together cover a flat tensor once."""
    out = [0] * size
    for o1, x1 in zip(offs1, xs1):
        for o2, x2 in zip(offs2, xs2):
            out[o1 + o2] = x1 * x2
    return out


def vertex_shape(nb, dims, v):
    """(rows, cols) of the matrix of v, whose slots are nb, refused when it
    has more than TENSOR_CAP entries, rows or columns (a side of dimension
    0 leaves the entries at 0 however long the other side is)."""
    rows = prod(dims[w] for w in nb.outgoing)
    cols = prod(dims[w] for w in nb.incoming)
    check_size(v, rows * cols)
    for count, side in ((rows, "rows"), (cols, "columns")):
        if count > TENSOR_CAP:
            raise TensorTooLarge(f"vertex {v} needs a tensor of {count} {side}, "
                                 f"over the cap of {TENSOR_CAP}")
    return rows, cols


def vertex_shapes(d, dims):
    """{v: (rows, cols)} of every vertex of d under dims, once dims gives
    every wire of d, and no other wire, an int >= 0 (not a bool), and each
    vertex is within the cap (vertex_shape)."""
    if not isinstance(dims, Mapping):
        raise InvalidDims("dims must be a mapping of wire ids to dims")
    ids = {w.id for w in d.wires}
    for w in d.wires:
        val = dims.get(w.id)
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise InvalidDims(f"wire {w.id} needs a dim >= 0, got {val!r}")
    for wid in dims:
        if wid not in ids:
            raise InvalidDims(f"dim for unknown wire {wid!r}")
    return {v: vertex_shape(nb, dims, v) for v, nb in slots(d).items()}


def validate_representation(diagram, dims, tensors):
    d = validate_diagram(diagram)
    shapes = vertex_shapes(d, dims)
    if not isinstance(tensors, Mapping):
        raise ShapeMismatch("tensors must be a mapping of vertex ids to matrices")
    out = {}
    for v, (rows, cols) in shapes.items():
        if v not in tensors:
            raise ShapeMismatch(f"missing tensor for vertex {v}")
        m = tensors[v]
        if not isinstance(m, Matrix):
            try:
                m = Matrix.from_rows(m)
            except (TypeError, LookupError, ShapeMismatch):
                raise ShapeMismatch(
                    f"vertex {v}: not a grid of rationals") from None
        if (m.rows, m.cols) != (rows, cols):
            raise ShapeMismatch(
                f"vertex {v}: expected {rows}x{cols}, got {m.rows}x{m.cols}")
        out[v] = m
    for v in tensors:
        if v not in out:
            raise ShapeMismatch(f"tensor for unknown vertex {v}")
    return Representation(d, {w.id: dims[w.id] for w in d.wires}, out)


def _kron_all(v, mats):
    """The Kronecker product of mats at vertex v, its size checked first."""
    check_size(v, prod(m.rows * m.cols for m in mats))
    out = Matrix.identity(1)
    for m in mats:
        out = out.kron(m)
    return out


def apply_group_element(g, r):
    """Change of basis: each tensor becomes (kron g_out) M (kron inv g_in)."""
    _phi_checked(g, r, r)
    inv = {wid: inverse(g[wid]) for wid in r.dims}
    tensors = {}
    for v, nb in slots(r.diagram).items():
        left = _kron_all(v, [g[w] for w in nb.outgoing])
        right = _kron_all(v, [inv[w] for w in nb.incoming])
        tensors[v] = left @ r.tensors[v] @ right
    return Representation(r.diagram, dict(r.dims), tensors)


def direct_sum(r1, *rest):
    """Tensor direct sum of any number of summands, in one pass: pure blocks
    carry the summands, mixed blocks zero, and each block starts past the
    ones before it on every slot.  A vertex with no slots at all holds a
    bare scalar, and there the scalars add (that is what makes contraction
    additive).
    """
    reps = (r1, *rest)
    if any(r.diagram != r1.diagram for r in rest):
        raise DiagramMismatch("direct_sum needs a common diagram")
    d = r1.diagram
    dims = {w: sum(r.dims[w] for r in reps) for w in r1.dims}
    tensors = {}
    for v, nb in slots(d).items():
        keys = slot_keys(nb)
        strides = _strides([dims[w] for w, _ in keys])
        size = prod(dims[w] for w, _ in keys)
        check_size(v, size)
        out = [0] * size
        den = lcm(*(r.tensors[v].den for r in reps))
        base = 0
        for r in reps:
            sub = [r.dims[w] for w, _ in keys]
            s = den // r.tensors[v].den
            for o, x in zip(_offsets(sub, strides, base), _flat(r.tensors[v])):
                out[o] += s * x
            base += sum(map(mul, sub, strides))
        tensors[v] = _as_matrix(out, den, keys, dims)
    return Representation(d, dims, tensors)


def tensor_product(r1, r2):
    """Monoidal product: dims multiply, per-wire indices nest r1-major."""
    if r1.diagram != r2.diagram:
        raise DiagramMismatch("tensor_product needs a common diagram")
    d = r1.diagram
    dims = {w: r1.dims[w] * r2.dims[w] for w in r1.dims}
    tensors = {}
    for v, nb in slots(d).items():
        keys = slot_keys(nb)
        strides = _strides([dims[w] for w, _ in keys])
        d2 = [r2.dims[w] for w, _ in keys]
        outer_strides = [b * s for b, s in zip(d2, strides)]
        size = prod(dims[w] for w, _ in keys)
        check_size(v, size)
        m1, m2 = r1.tensors[v], r2.tensors[v]
        out = _outer(size,
                     _offsets([r1.dims[w] for w, _ in keys], outer_strides),
                     _flat(m1), _offsets(d2, strides), _flat(m2))
        tensors[v] = _as_matrix(out, m1.den * m2.den, keys, dims)
    return Representation(d, dims, tensors)


def unit(diagram):
    d = validate_diagram(diagram)
    dims = {w.id: 1 for w in d.wires}
    tensors = {v: Matrix.from_rows([[1]]) for v in d.vertices}
    return Representation(d, dims, tensors)


def dual_rep(r):
    """Reverse every wire, which transposes every tensor; an involution."""
    return reverse_wire_rep(r, *(w.id for w in r.diagram.wires))


def _phi_checked(phi, r1, r2):
    """The common diagram of r1 and r2, once phi maps every wire to a Matrix
    of shape r2.dims x r1.dims."""
    if r1.diagram != r2.diagram:
        raise DiagramMismatch("morphism endpoints live on different diagrams")
    if not isinstance(phi, Mapping):
        raise SizeMismatch("a map must be a mapping of wire ids to matrices")
    for wid in r1.dims:
        m, want = phi.get(wid), (r2.dims[wid], r1.dims[wid])
        if not isinstance(m, Matrix) or (m.rows, m.cols) != want:
            raise SizeMismatch(f"wire {wid} needs a {want[0]}x{want[1]} Matrix")
    return r1.diagram


def is_morphism(phi, r1, r2):
    d = _phi_checked(phi, r1, r2)
    for v, nb in slots(d).items():
        left = _kron_all(v, [phi[w] for w in nb.outgoing])
        right = _kron_all(v, [phi[w] for w in nb.incoming])
        if left @ r1.tensors[v] != r2.tensors[v] @ right:
            return False
    return True


def _quiver_slots(d):
    """The slot table, once every vertex has exactly one incoming and one
    outgoing slot, so that hom conditions stay linear and homogeneous."""
    table = slots(d)
    for v, nb in table.items():
        if len(nb.incoming) != 1 or len(nb.outgoing) != 1:
            raise NotQuiverLike(
                f"vertex {v} has {len(nb.incoming)} incoming and "
                f"{len(nb.outgoing)} outgoing slots")
    return table


def intertwining_system(squares, unknowns):
    """The equations phi_out m1 = m2 phi_in, one row per entry, for every
    (m1, m2, offset of phi_in, offset of phi_out) in squares.

    phi_in is m2.cols x m1.cols and phi_out is m2.rows x m1.rows, each
    vec'd row-major from its offset among the unknowns; two squares may
    share an unknown.  Each equation is taken times m1.den * m2.den, which
    keeps its solutions.
    """
    rows = []
    for m1, m2, off_in, off_out in squares:
        for i in range(m2.rows):
            for j in range(m1.cols):
                row = [0] * unknowns
                for k in range(m1.rows):
                    row[off_out + i * m1.rows + k] += m2.den * m1.nums[k][j]
                for k in range(m2.cols):
                    row[off_in + k * m1.cols + j] -= m1.den * m2.nums[i][k]
                rows.append(row)
    return Matrix.from_ints(len(rows), unknowns, rows)


def hom_dim(r1, r2):
    """Dimension of the space of morphisms r1 -> r2."""
    if r1.diagram != r2.diagram:
        raise DiagramMismatch("hom_dim needs a common diagram")
    d = r1.diagram
    quiver = _quiver_slots(d)
    offs, total = {}, 0
    for w in d.wires:
        offs[w.id] = total
        total += r2.dims[w.id] * r1.dims[w.id]
    # phi_b m1 = m2 phi_a at a vertex with incoming a and outgoing b
    system = intertwining_system(
        [(r1.tensors[v], r2.tensors[v], offs[a], offs[b])
         for v, ((a,), (b,)) in quiver.items()], total)
    return total - rank(system)


def _coker_data(phi, r1, r2):
    """Per-wire cokernel pieces for an arbitrary morphism: the section s_e
    takes the unit vectors that grow im(phi_e)'s span, left to right, and psi_e
    is inverse([im | s_e]) past im's rows: psi_e s_e = I, psi_e phi_e = 0."""
    d = r1.diagram
    quiver = _quiver_slots(d)
    if not is_morphism(phi, r1, r2):
        raise NotAMorphism("the commuting squares fail")
    psi = {}
    sec = {}
    dims = {}
    for wid in r1.dims:
        im = column_space(phi[wid])
        eye = Matrix.identity(r2.dims[wid])
        sec[wid] = eye.submatrix(range(eye.rows), new_columns(im, eye))
        dims[wid] = sec[wid].cols
        psi[wid] = inverse(im.hstack(sec[wid])).submatrix(
            range(im.cols, eye.rows), range(eye.rows))
    tensors = {}
    for v, ((a,), (b,)) in quiver.items():
        tensors[v] = psi[b] @ r2.tensors[v] @ sec[a]
    r3 = Representation(d, dims, tensors)
    return r3, psi


def cokernel(phi, r1, r2):
    """Cokernel of a monic morphism with its projection."""
    _phi_checked(phi, r1, r2)
    for wid in r1.dims:
        if rank(phi[wid]) < r1.dims[wid]:
            raise NotMonic(f"component at wire {wid} is not injective")
    return _coker_data(phi, r1, r2)


def kernel(phi, r1, r2):
    """Kernel of a morphism, via the cokernel of the transposed morphism."""
    _phi_checked(phi, r1, r2)
    d1, d2 = dual_rep(r1), dual_rep(r2)
    phit = {wid: phi[wid].transpose() for wid in r1.dims}
    c, psi = _coker_data(phit, d2, d1)
    ker = dual_rep(c)
    incl = {wid: psi[wid].transpose() for wid in psi}
    return ker, incl


# ---------------------------------------------------------------------------
# contraction

def _fibres(node, dims, wids):
    """Wires of the slots kept besides wids, and at each index of those the
    entries of a node (entries, wires) over every joint index of wids; both
    slots of a loop share one index, so the view walks their diagonal."""
    entries, wires = node
    keep = [i for i, w in enumerate(wires) if w not in wids]
    strides = _strides([dims[w] for w in wires])
    inner = _offsets([dims[w] for w in wids], [
        sum(s for x, s in zip(wires, strides) if x == w) for w in wids])
    outer = _offsets([dims[wires[i]] for i in keep], [strides[i] for i in keep])
    return [wires[i] for i in keep], [[entries[o + t] for t in inner]
                                      for o in outer]


def _contract_wires(na, nb, dims, wids):
    """Trace wids within node na (nb is None), or contract every wire in
    wids between nodes na and nb in one pass."""
    wires, fa = _fibres(na, dims, wids)
    if nb is None:
        return [sum(f) for f in fa], wires
    rest, fb = _fibres(nb, dims, wids)
    return [sum(map(mul, x, y)) for x in fa for y in fb], wires + rest


def _plan(dims, held):
    """Steps (a, b, wires) chosen on dims alone from the wires held at each
    vertex, and the largest node they build: trace wires at node a (b is
    None), or merge node b into a over every wire the two share.  Past the
    loops each wire has two holders, kept in at; the pair whose merged node
    (the wires of one, not both) is least merges first, ties by (a, b)."""
    held = dict(held)
    at = {}
    for k, ws in held.items():
        for w in ws:
            at.setdefault(w, []).append(k)
    steps, largest = [], 0

    def step(a, b, wids):
        nonlocal largest
        moved = held.pop(b, [])
        for w in moved:
            at[w] = [a if k == b else k for k in at[w]]
        for w in wids:
            del at[w]
        held[a] = [w for w in held[a] + moved if w not in wids]
        steps.append((a, b, wids))
        largest = max(largest, prod(dims[w] for w in held[a]))

    for v, ws in list(held.items()):
        loops = [w for w in dict.fromkeys(ws) if ws.count(w) == 2]
        if loops:
            step(v, None, loops)
    while at:
        a, b = min({tuple(sorted(ks)) for ks in at.values()}, key=lambda p: (
            prod(dims[w] for w in set(held[p[0]]) ^ set(held[p[1]])), p))
        step(a, b, [w for w in held[a] if w in held[b]])
    return steps, largest


def contract(r):
    """Contract a closed diagram to its exact scalar value.

    A wire of dimension 0 sums over nothing, so the value is 0.  Otherwise
    self-loops are traced, then the two nodes whose merge leaves the
    smallest node merge over every wire they share, in one pass; the plan
    is made on dims first and raises ContractionTooLarge if it needs a node
    of more than TENSOR_CAP entries.  The steps run on the tensors' integer
    numerators, so the value is an integer total over the product of their
    denominators.
    """
    if not r.diagram.is_closed():
        raise NotClosed("diagram has dangling or endpointless wires")
    if 0 in r.dims.values():
        return ZERO
    held = {v: list(nb.outgoing + nb.incoming)
            for v, nb in slots(r.diagram).items()}
    steps, largest = _plan(r.dims, held)
    if largest > TENSOR_CAP:
        raise ContractionTooLarge(f"contraction needs a node of {largest} "
                                  f"entries, over the cap of {TENSOR_CAP}")
    nodes, scale = {}, 1
    for v in r.diagram.vertices:
        nodes[v] = (_flat(r.tensors[v]), held[v])
        scale *= r.tensors[v].den
    for a, b, wids in steps:
        nodes[a] = _contract_wires(nodes[a], nodes.pop(b, None), r.dims, wids)
    total = 1
    for entries, _ in nodes.values():
        total *= entries[0]
    return Q(total, scale)


def monodromy(r, base):
    """Product of the vertex matrices once around a co-oriented cycle.

    The first factor is the matrix at the base wire's head; factors then
    accumulate along the orientation, so the result maps the base wire's
    space to itself.
    """
    d = r.diagram
    known = {w.id: w for w in d.wires}
    if base not in list(known):   # a list: an unhashable id is unknown too
        raise UnknownWire(base)
    try:
        comps = classify_diagram(d)
    except NotNormalized:   # an endpointless wire
        comps = ()
    if len(comps) != 1 or comps[0][1].family != "J":
        raise NotALoop("shape is not a single co-oriented cycle")
    out_of = {}
    for v, nb in slots(d).items():
        if len(nb.incoming) != 1 or len(nb.outgoing) != 1:
            raise NotALoop(f"vertex {v} is not on a co-oriented cycle")
        out_of[v] = nb.outgoing[0]
    v = known[base].head
    acc = r.tensors[v]
    wid = out_of[v]
    while wid != base:
        v = known[wid].head
        acc = r.tensors[v] @ acc
        wid = out_of[v]
    return acc


# ---------------------------------------------------------------------------
# reindexing functors

def reverse_wire_rep(r, *wids):
    """Reverse every listed wire (a set, as for reverse_wire) in one pass,
    re-indexing each endpoint tensor once; an involution.

    A wire's space is identified with its dual in the standard basis, so
    entries move but never change.  Reversing a loop swaps that wire's row
    and column indices at its vertex (a partial transpose).
    """
    d = r.diagram
    dd = reverse_wire(d, *wids)
    tensors = dict(r.tensors)
    flip = {"tail": "head", "head": "tail"}
    before, after = slots(d), slots(dd)
    for v in {e for w in dd.wires if w.id in wids
              for e in (w.tail, w.head)} - {None}:
        old = slot_keys(before[v])
        strides = dict(zip(old, _strides([r.dims[x] for x, _ in old])))
        new = slot_keys(after[v])
        # each slot of a listed wire changes side and carries its index along
        offs = _offsets([r.dims[x] for x, _ in new],
                        [strides[(x, flip[s]) if x in wids else (x, s)]
                         for x, s in new])
        m = r.tensors[v]
        flat = _flat(m)
        tensors[v] = _as_matrix([flat[o] for o in offs], m.den, new, r.dims)
    return Representation(dd, dict(r.dims), tensors)


def _merged_name(v1, v2, taken):
    if v1.endswith("·1") and v2 == v1[:-2] + "·2" and v1[:-2] not in taken:
        return v1[:-2]   # undo a split
    return fresh_vertex(f"{v1}+{v2}", taken)


def split_functor(r, fresh_wire):
    """Undo a vertex splitting on representations.

    The fresh wire must carry dimension 1; its two endpoint tensors merge
    into the tensor product with the unit index collapsed, all other data
    untouched.  Inverse (up to scale) of splitting a representation.  The
    merged vertex is v where v·1 and v·2 undo a split of v, else fresh v1+v2.
    """
    d = r.diagram
    w = d.wire(fresh_wire)
    if r.dims[fresh_wire] != 1:
        raise RestrictedDimViolation(
            f"wire {fresh_wire} has dimension {r.dims[fresh_wire]}, need 1")
    v1, v2 = w.tail, w.head
    if v1 is None or v2 is None or v1 == v2:
        raise RestrictedDimViolation(
            f"wire {fresh_wire} must join two distinct vertices")
    taken = set(d.vertices) - {v1, v2}
    merged = _merged_name(v1, v2, taken)
    wires = []
    for x in d.wires:
        if x.id == fresh_wire:
            continue
        tail = merged if x.tail in (v1, v2) else x.tail
        head = merged if x.head in (v1, v2) else x.head
        wires.append(Wire(x.id, tail, head))
    dd = TensorDiagram(tuple(sorted(taken | {merged})), tuple(sorted(wires)))
    dims = {x.id: r.dims[x.id] for x in wires}

    keys = slot_keys(slots(dd)[merged])
    size = prod(dims[x] for x, _ in keys)
    check_size(merged, size)
    strides = dict(zip(keys, _strides([dims[x] for x, _ in keys])))
    views, den = [], 1
    before = slots(d)
    for v in (v1, v2):
        old = slot_keys(before[v])
        # the fresh wire is the only slot not kept; stride 0 pins it to 0
        views += [_offsets([r.dims[x] for x, _ in old],
                           [strides.get(k, 0) for k in old]),
                  _flat(r.tensors[v])]
        den *= r.tensors[v].den
    out = _outer(size, *views)
    tensors = {merged: _as_matrix(out, den, keys, dims)}
    for v in dd.vertices:
        if v != merged:
            tensors[v] = r.tensors[v]
    return Representation(dd, dims, tensors)
