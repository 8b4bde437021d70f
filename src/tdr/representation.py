"""Representations of tensor diagrams and their structure maps.

A representation assigns a dimension to every wire and one exact rational
matrix to every vertex.  vertex_shape is a vertex's one size rule, checked
on dims before allocating: its slots' nonzero dims multiply to at most
TENSOR_CAP, which bounds its entries, rows and columns in every layout, so
moving slots between sides or shrinking dims cannot break it, and functors
that grow dims size their vertices through it.  Rows are indexed by the
multi-index over the vertex's outgoing slots and columns over its incoming
slots, as semigraph.slots lists them (in the diagram's wire order, which
every functor keeps, canonical for a diagram validate_diagram built), the
first wire varying slowest; an empty side indexes a single scalar slot.  A
loop has a slot on each side.

A Representation is valid by construction, and its constructor is the one
check: the diagram by the rules of validate_diagram, the dims through
vertex_shapes (InvalidDims), which gives the vertex shapes, and a Matrix of
its shape at each vertex.  validate_representation, the record parser, runs
it on grids, each made a Matrix of its vertex's shape first.  The functors
build their outputs, valid by construction, through _rep, unchecked, as
drawn_rep builds gen_random's draws at the shapes it checked, so no
operation checks its input again: each refuses a non-Representation and
reps on different diagrams (rep_diagram), and _phi_checked checks a map of
one Matrix per wire, a base change or a morphism (SizeMismatch).  Both
errors are ShapeMismatch, as is a tensor of the wrong shape.

Everything downstream (direct sums, tensor products, wire reversal, the
splitting functor, contraction, the group action and the morphism check)
reads a vertex's flat tensor, first slot slowest.  The group action and
the morphism check apply each wire's matrix along its own slot, to fibres
sliced at a stride (_acted), so nothing they build outgrows a tensor
before or after one slot's product.  The others re-index it through one
primitive, _offsets: the flat offsets of an axis view with chosen
strides.  Each operation is a choice of strides, and takes one pass per
vertex: reverse_wire_rep reverses any set of wires at once, reading only
the touched vertices' slots (semigraph.reversal_slots), and direct_sum
sums any number of summands at once.  Contraction depends on the tensors
only through its steps' products: its plan and every step's gather offsets
are compiled once per (diagram, dims) and kept in a cache of 256 programs
(about 0.5 MB for the 120 networks of a closed-contract round, at most
about 40 MB), and each call runs the gathers and products alone.  A
kernel takes one RREF per wire, of its map with the columns reversed, and
a cokernel is the dual of a kernel.
"""

from collections.abc import Mapping
from functools import lru_cache
from itertools import chain
from math import lcm, prod
from operator import itemgetter, mul
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    ContractionTooLarge,
    DiagramMismatch,
    InvalidDims,
    NotAMorphism,
    NotClosed,
    NotMonic,
    NotQuiverLike,
    RestrictedDimViolation,
    ShapeMismatch,
    SizeMismatch,
    TensorTooLarge,
)
from .exactalg import Matrix, inverse, nullspace, rank
from .rational import ZERO, Q
from .semigraph import (
    TensorDiagram,
    Wire,
    check_diagram,
    fresh_vertex,
    known_ids,
    reversal_slots,
    reverse_wire,
    slot_keys,
    slots,
    validate_diagram,
)


class _Fields(NamedTuple):
    diagram: TensorDiagram
    dims: Mapping      # wire id -> dimension, read-only
    tensors: Mapping   # vertex id -> Matrix, read-only


class Representation(_Fields):
    """A representation, valid by construction (see the module docstring);
    _make, and so _replace, go through the constructor."""
    __slots__ = ()

    def __new__(cls, diagram, dims, tensors):
        return _checked(diagram, dims, tensors)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __repr__(self):
        return f"Representation({self.diagram!r}, dims={dict(self.dims)!r})"


def _rep(d, dims, tensors):
    """The Representation of a functor's output, valid by construction and
    not checked again; dims and tensors are fresh dicts."""
    return tuple.__new__(Representation,
                         (d, MappingProxyType(dims), MappingProxyType(tensors)))


def drawn_rep(d, dims, tensors):
    """The Representation of d under dims, once d is a diagram
    validate_diagram built and tensors holds a Matrix of each vertex's
    shape in vertex_shapes(d, dims), in its order: valid by construction,
    as gen_random's generic draws are, and not checked again."""
    return _rep(d, {w.id: dims[w.id] for w in d.wires}, tensors)


def rep_diagram(*reps):
    """The diagram of reps, once each is a Representation (ShapeMismatch)
    and all of them share it (DiagramMismatch)."""
    for r in reps:
        if not isinstance(r, Representation):
            raise ShapeMismatch(f"expected a Representation, got {r!r:.40}")
    d = reps[0].diagram
    if any(r.diagram != d for r in reps):
        raise DiagramMismatch("the representations live on different diagrams")
    return d


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


TENSOR_CAP = 1 << 22   # a vertex's nonzero dims' product, or another tensor's entries


def check_size(v, size):
    """Refuse more than TENSOR_CAP entries at v, a matrix that is no vertex."""
    if size > TENSOR_CAP:
        raise TensorTooLarge(f"vertex {v} needs a tensor of {size} entries, "
                             f"over the cap of {TENSOR_CAP}")


def _flat(m):
    """The integer numerators of a matrix, row-major (over m.den)."""
    return [x for row in m.nums for x in row]


def _as_matrix(nums, den, rows, cols):
    """The rows x cols matrix nums / den of a flat tensor, row-major."""
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
    """(rows, cols) of the matrix of v, whose slots are nb, refused when the
    nonzero dims of its slots multiply past TENSOR_CAP: a bound on its
    entries, rows and columns in every layout, so it refuses some empty ones."""
    outs, ins = [dims[w] for w in nb.outgoing], [dims[w] for w in nb.incoming]
    rows, cols = prod(outs), prod(ins)
    size = rows * cols or prod(filter(None, outs + ins))
    if size > TENSOR_CAP:
        raise TensorTooLarge(f"vertex {v} needs {cols} columns and {rows} rows, "
                             f"over the cap of {TENSOR_CAP} on the product "
                             f"{size} of its nonzero dims")
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


def _checked(diagram, dims, tensors, grids=False):
    """The one check of a Representation (see the module docstring); with
    grids, each vertex's value is first made a Matrix of its shape."""
    if isinstance(diagram, TensorDiagram):
        check_diagram(diagram)
        # its own wire order, in tuples so that it keys _compile's cache
        d = (diagram if all(type(f) is tuple for f in diagram)
             else TensorDiagram(*map(tuple, diagram)))
    else:
        d = validate_diagram(diagram)
    shapes = vertex_shapes(d, dims)
    if not isinstance(tensors, Mapping):
        raise ShapeMismatch("tensors must be a mapping of vertex ids to matrices")
    if grids:
        tensors = {v: _grid(v, m, shapes.get(v)) for v, m in tensors.items()}
    for v, shape in shapes.items():
        m = tensors.get(v)
        if not isinstance(m, Matrix) or (m.rows, m.cols) != shape:
            got = f"{m.rows}x{m.cols}" if isinstance(m, Matrix) else f"{m!r:.40}"
            raise ShapeMismatch(
                f"vertex {v} needs a {shape[0]}x{shape[1]} Matrix, got {got}")
    if len(tensors) != len(shapes):
        known_ids(d.vertices, tensors, ShapeMismatch, "vertex ids")
    return _rep(d, {w.id: dims[w.id] for w in d.wires},
                {v: tensors[v] for v in shapes})


def validate_representation(diagram, dims, tensors):
    """The record parser: the Representation of a diagram (a record or a
    TensorDiagram), dims and tensors whose values are Matrices or grids of
    rationals, each grid read at its vertex's shape (else ShapeMismatch)."""
    return _checked(diagram, dims, tensors, grids=True)


def _grid(v, m, shape):
    try:
        return m if isinstance(m, Matrix) or shape is None else Matrix(*shape, m)
    except ShapeMismatch as exc:
        raise ShapeMismatch(f"vertex {v}: {exc}") from None


def _acted(nb, t, dims, maps):
    """The matrix t of a vertex with slots nb under dims, with maps[slot]
    applied along each slot that maps holds, reduced once: the mode-n
    product (Kolda and Bader, SIAM Review 2009, §2.5) cuts each of the
    prod(sizes[:k]) runs of d * b entries, b = prod(sizes[k + 1:]), once
    into its b fibres of stride b, and m.rows takes d's place."""
    keys = slot_keys(nb)
    sizes = [dims[w] for w, _ in keys]
    flat, den = _flat(t), t.den
    for k, key in enumerate(keys):
        if key in maps:
            m, d, b, out = maps[key], sizes[k], prod(sizes[k + 1:]), []
            for i in range(prod(sizes[:k])):
                fibres = [flat[i * d * b + j:(i + 1) * d * b:b] for j in range(b)]
                out += [sum(map(mul, row, f)) for row in m.nums for f in fibres]
            flat, sizes[k], den = out, m.rows, den * m.den
    n = len(nb.outgoing)
    return _as_matrix(flat, den, prod(sizes[:n]), prod(sizes[n:]))


def apply_group_element(g, r):
    """Change of basis: each wire's g acts on its own slot of every tensor,
    g along an outgoing slot and inverse(g) transposed along an incoming one."""
    _phi_checked(g, r, r)
    maps = {}
    for wid in r.dims:
        maps[wid, "tail"] = g[wid]
        maps[wid, "head"] = inverse(g[wid]).transpose()
    tensors = {v: _acted(nb, r.tensors[v], r.dims, maps)
               for v, nb in slots(r.diagram).items()}
    return _rep(r.diagram, dict(r.dims), tensors)


def direct_sum(r1, *rest):
    """Tensor direct sum of any number of summands, in one pass: pure blocks
    carry the summands, mixed blocks zero, and each block starts past the
    ones before it on every slot.  A vertex with no slots at all holds a
    bare scalar, and there the scalars add (that is what makes contraction
    additive).
    """
    reps = (r1, *rest)
    d = rep_diagram(*reps)
    dims = {w: sum(r.dims[w] for r in reps) for w in r1.dims}
    tensors = {}
    for v, nb in slots(d).items():
        keys = slot_keys(nb)
        strides = _strides([dims[w] for w, _ in keys])
        shape = vertex_shape(nb, dims, v)
        out = [0] * (shape[0] * shape[1])
        den = lcm(*(r.tensors[v].den for r in reps))
        base = 0
        for r in reps:
            sub = [r.dims[w] for w, _ in keys]
            s = den // r.tensors[v].den
            for o, x in zip(_offsets(sub, strides, base), _flat(r.tensors[v])):
                out[o] += s * x
            base += sum(map(mul, sub, strides))
        tensors[v] = _as_matrix(out, den, *shape)
    return _rep(d, dims, tensors)


def tensor_product(r1, r2):
    """Monoidal product: dims multiply, per-wire indices nest r1-major."""
    d = rep_diagram(r1, r2)
    dims = {w: r1.dims[w] * r2.dims[w] for w in r1.dims}
    tensors = {}
    for v, nb in slots(d).items():
        keys = slot_keys(nb)
        strides = _strides([dims[w] for w, _ in keys])
        d2 = [r2.dims[w] for w, _ in keys]
        outer_strides = [b * s for b, s in zip(d2, strides)]
        rows, cols = vertex_shape(nb, dims, v)
        m1, m2 = r1.tensors[v], r2.tensors[v]
        out = _outer(rows * cols,
                     _offsets([r1.dims[w] for w, _ in keys], outer_strides),
                     _flat(m1), _offsets(d2, strides), _flat(m2))
        tensors[v] = _as_matrix(out, m1.den * m2.den, rows, cols)
    return _rep(d, dims, tensors)


def unit(diagram):
    d = validate_diagram(diagram)
    dims = {w.id: 1 for w in d.wires}
    tensors = {v: Matrix.from_rows([[1]]) for v in d.vertices}
    return _rep(d, dims, tensors)


def dual_rep(r):
    """Reverse every wire, which transposes every tensor; an involution."""
    return reverse_wire_rep(r, *(w.id for w in rep_diagram(r).wires))


def _phi_checked(phi, r1, r2):
    """The common diagram of r1 and r2, once phi maps every wire to a Matrix
    of shape r2.dims x r1.dims."""
    d = rep_diagram(r1, r2)
    if not isinstance(phi, Mapping):
        raise SizeMismatch("a map must be a mapping of wire ids to matrices")
    for wid in r1.dims:
        m, want = phi.get(wid), (r2.dims[wid], r1.dims[wid])
        if not isinstance(m, Matrix) or (m.rows, m.cols) != want:
            raise SizeMismatch(f"wire {wid} needs a {want[0]}x{want[1]} Matrix")
    return d


def is_morphism(phi, r1, r2):
    """Whether phi along the outgoing slots of each tensor of r1 equals
    phi transposed along the incoming slots of r2's."""
    d = _phi_checked(phi, r1, r2)
    out = {(wid, "tail"): phi[wid] for wid in r1.dims}
    inc = {(wid, "head"): phi[wid].transpose() for wid in r1.dims}
    return all(_acted(nb, r1.tensors[v], r1.dims, out)
               == _acted(nb, r2.tensors[v], r2.dims, inc)
               for v, nb in slots(d).items())


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
    d = rep_diagram(r1, r2)
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


def _kernel_basis(m):
    """ker(m)'s RREF basis as columns, and the rows where it is the identity:
    the nullspace of m with its columns reversed, read back in order, has
    each vector zero before its own 1, the subspace's one RREF basis."""
    null = nullspace(m.submatrix(range(m.rows), range(m.cols)[::-1]))
    basis = null.submatrix(range(m.cols)[::-1], range(null.cols)[::-1])
    return basis, [next(i for i, x in enumerate(c) if x) for c in zip(*basis.nums)]


def kernel(phi, r1, r2):
    """Kernel of a morphism with its inclusion: ker(phi_e)'s RREF basis per
    wire, and at each vertex T1's rows at incl[b]'s identity rows @ incl[a]."""
    d = _phi_checked(phi, r1, r2)
    quiver = _quiver_slots(d)
    if not is_morphism(phi, r1, r2):
        raise NotAMorphism("the commuting squares fail")
    incl, rows = {}, {}
    for wid in r1.dims:
        incl[wid], rows[wid] = _kernel_basis(phi[wid])
    tensors = {v: r1.tensors[v].submatrix(rows[b], range(incl[a].rows)) @ incl[a]
               for v, ((a,), (b,)) in quiver.items()}
    return _rep(d, {wid: len(rows[wid]) for wid in r1.dims}, tensors), incl


def cokernel(phi, r1, r2):
    """Cokernel of a monic morphism with its projection: the dual of the
    kernel of the transposed morphism on the duals."""
    _phi_checked(phi, r1, r2)
    for wid in r1.dims:
        if rank(phi[wid]) < r1.dims[wid]:
            raise NotMonic(f"component at wire {wid} is not injective")
    _quiver_slots(r1.diagram)   # refused by this diagram's slots, not the dual's
    ker, incl = kernel({wid: phi[wid].transpose() for wid in r1.dims},
                       dual_rep(r2), dual_rep(r1))
    return dual_rep(ker), {wid: m.transpose() for wid, m in incl.items()}


# ---------------------------------------------------------------------------
# contraction

def _view(wires, wids, dims):
    """A node's entries, whose axes are wires, in fibres over every joint
    index of wids, fibre after fibre at each index of the other wires: the
    view that lists them (an itemgetter, or None when wids are the last
    axes), the fibre length and the wires kept.  Both slots of a loop share
    one index, so a fibre walks their diagonal."""
    keep = [w for w in wires if w not in wids]
    k = prod(dims[w] for w in wids)
    if keep + wids == wires:
        return None, k, keep
    stride = {}   # a loop's stride is the sum of its two slots'
    for w, s in zip(wires, _strides([dims[w] for w in wires])):
        stride[w] = stride.get(w, 0) + s
    axes = keep + wids
    flat = _offsets([dims[w] for w in axes], [stride[w] for w in axes])
    # a lone entry is the whole node: each of its dims is 1
    return (itemgetter(*flat) if len(flat) > 1 else None), k, keep


def _plan(dims, held):
    """Steps (a, b, wires) chosen on dims alone from the wires held at each
    vertex, and the largest node they build: trace wires at node a (b is
    None), or merge node b into a over every wire the two share.  Past the
    loops, each step takes one pass over the held wires for the dims each
    pair of nodes shares, and of those pairs the one whose merged node (the
    wires of one, not both) is least merges, ties by (a, b).  The dims are
    positive, so that node's size is the product of the two nodes' dims
    over the square of the dims they share."""
    held = dict(held)
    steps, largest = [], 0
    for v, ws in list(held.items()):
        loops = [w for w in dict.fromkeys(ws) if ws.count(w) == 2]
        if loops:
            held[v] = [w for w in ws if w not in loops]
            steps.append((v, None, loops))
            largest = max(largest, prod(dims[w] for w in held[v]))
    while True:
        at, share = {}, {}   # wire -> its first node; (a, b), a < b -> shared dims
        for k, ws in held.items():
            for w in ws:
                j = at.setdefault(w, k)
                if j != k:
                    pair = (j, k) if j < k else (k, j)
                    share[pair] = share.get(pair, 1) * dims[w]
        if not share:
            return steps, largest
        merged, (a, b) = min((prod(dims[w] for w in held[a] + held[b]) // s ** 2,
                              (a, b)) for (a, b), s in share.items())
        inner = set(held[a]).intersection(held[b])
        steps.append((a, b, [w for w in held[a] if w in inner]))
        held[a] = [w for w in held[a] + held.pop(b) if w not in inner]
        largest = max(largest, merged)


_KEPT = 1 << 12   # gather offsets a program keeps, about 150 KB


# The bound is set by memory: a program keeps at most _KEPT offsets and
# gathers any node past them afresh on each call, so 256 programs hold at
# most about 40 MB, however large their networks.  The 120 networks of a
# closed-contract round (4-8 vertices, dims 2-4) keep at most 645 offsets
# each and hold about 0.5 MB in all (tracemalloc).  A Representation's
# diagram has tuple fields and its dims are ints, so both key the cache.
@lru_cache(maxsize=256)
def _compile(d, dims):
    """The contraction program of a representation's diagram d under its
    dims, a tuple of (wire id, int) pairs: the steps of _plan as (a, b,
    fibre length, view of a, view of b) over vertex positions, b and its
    view None for a trace; None when a wire has dimension 0.  It refuses
    an open diagram (NotClosed) and a plan with a node of more than
    TENSOR_CAP entries (ContractionTooLarge), so a cache hit repeats
    neither check."""
    if not d.is_closed():
        raise NotClosed("diagram has dangling or endpointless wires")
    dims = dict(dims)
    if 0 in dims.values():
        return None
    held = {v: list(nb.outgoing + nb.incoming) for v, nb in slots(d).items()}
    plan, largest = _plan(dims, held)
    if largest > TENSOR_CAP:
        raise ContractionTooLarge(f"contraction needs a node of {largest} "
                                  f"entries, over the cap of {TENSOR_CAP}")
    at = {v: i for i, v in enumerate(d.vertices)}
    kept, steps = 0, []
    for a, b, wids in plan:
        views, keep = [None, None], []
        for i, v in enumerate((a,) if b is None else (a, b)):
            wires = held.pop(v)
            views[i], k, rest = _view(wires, wids, dims)
            if views[i] is not None:
                kept += prod(dims[w] for w in wires)
                if kept > _KEPT:
                    views[i] = (wires, wids)   # made again on each call
            keep += rest
        held[a] = keep
        steps.append((at[a], at.get(b), k, *views))
    return tuple(steps)


def _fibres(entries, view, k, dims):
    """A node's entries in runs of k under a step's view of it: None (as
    they are), an itemgetter, or the (wires, wids) of a view not kept."""
    if type(view) is tuple:
        view = _view(*view, dims)[0]
    xs = entries if view is None else view(entries)
    return [xs[i:i + k] for i in range(0, len(xs), k)]


def contract(r):
    """Contract a closed diagram to its exact scalar value.

    A wire of dimension 0 sums over nothing, so the value is 0.  Otherwise
    self-loops are traced, then the two nodes whose merge leaves the
    smallest node merge over every wire they share, in one pass.  The plan
    and every step's gather offsets depend on the diagram and dims alone,
    so _compile makes them once per (diagram, dims) and keeps the last 256
    programs (at most about 40 MB; the 120 networks of a closed-contract
    round hold about 0.5 MB); it raises NotClosed for an open diagram and
    ContractionTooLarge for a plan with a node of more than TENSOR_CAP
    entries, before any entry is read.  r was checked when it was built,
    so a call checks nothing else.  The steps run on the tensors' integer
    numerators, so the value is an integer total over the product of their
    denominators.
    """
    d, dims, tensors = rep_diagram(r), r.dims, r.tensors
    steps = _compile(d, tuple(dims.items()))
    if steps is None:
        return ZERO
    nodes, scale = [], 1
    for v in d.vertices:
        m = tensors[v]
        nodes.append(list(chain.from_iterable(m.nums)))
        scale *= m.den
    for a, b, k, view_a, view_b in steps:
        fa = _fibres(nodes[a], view_a, k, dims)
        if b is None:
            nodes[a] = list(map(sum, fa))
        else:
            fb = _fibres(nodes[b], view_b, k, dims)
            nodes[a] = [sum(map(mul, x, y)) for x in fa for y in fb]
            nodes[b] = None
    total = 1
    for entries in nodes:
        if entries is not None:
            total *= entries[0]
    return Q(total, scale)


# ---------------------------------------------------------------------------
# reindexing functors

def reverse_wire_rep(r, *wids):
    """Reverse every listed wire (a set, as for reverse_wire) in one pass,
    re-indexing each endpoint tensor once; an involution.

    A wire's space is identified with its dual in the standard basis, so
    entries move but never change.  Reversing a loop swaps that wire's row
    and column indices at its vertex (a partial transpose).
    """
    d = rep_diagram(r)
    dd, wids = reverse_wire(d, *wids), set(wids)
    tensors = dict(r.tensors)
    # reversal only moves slots between sides, so no shape outgrows the cap
    for v, (old, new, n_out) in reversal_slots(d, wids).items():
        strides = dict(zip(old, _strides([r.dims[x] for x, _ in old])))
        dims = [r.dims[x] for x, _ in new]
        offs = _offsets(dims, [strides[key] for key in new])
        tensors[v] = _moved(r.tensors[v], offs, prod(dims[:n_out]), prod(dims[n_out:]))
    return _rep(dd, dict(r.dims), tensors)


def _moved(m, offs, rows, cols):
    """The rows x cols matrix of m's entries at the flat offsets offs, over
    m.den.  The entries only move, so it is in lowest terms as m is, and
    it needs none of _as_matrix's gcd pass."""
    xs = _flat(m)
    xs = itemgetter(*offs)(xs) if len(offs) > 1 else tuple(xs[o] for o in offs)
    return Matrix._new(rows, cols, tuple(
        xs[i * cols:(i + 1) * cols] for i in range(rows)), m.den)


def _merged_name(v1, v2, taken):
    if v1.endswith("·1") and v2 == v1[:-2] + "·2" and v1[:-2] not in taken:
        return v1[:-2]   # undo a split
    return fresh_vertex(f"{v1}+{v2}", taken)


def split_functor(r, fresh_wire):
    """Undo a vertex splitting on representations.

    The fresh wire must carry dimension 1; its two endpoint tensors merge
    into the tensor product with the unit index collapsed, all other data,
    the wire order too, untouched.  Inverse (up to scale) of splitting.  The
    merged vertex is v where v·1 and v·2 undo a split of v, else fresh v1+v2.
    """
    d = rep_diagram(r)
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
    dd = TensorDiagram(tuple(sorted(taken | {merged})), tuple(wires))
    dims = {x.id: r.dims[x.id] for x in wires}

    nb = slots(dd)[merged]
    keys = slot_keys(nb)
    rows, cols = vertex_shape(nb, dims, merged)
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
    out = _outer(rows * cols, *views)
    tensors = {merged: _as_matrix(out, den, rows, cols)}
    for v in dd.vertices:
        if v != merged:
            tensors[v] = r.tensors[v]
    return _rep(dd, dims, tensors)
