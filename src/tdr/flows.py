"""Multiplicative flows on tensor diagrams.

A flow assigns a nonzero complex number to each wire so that at every
vertex the product of outgoing values times the product of inverse
incoming values is 1 (a loop cancels itself).  A partial flow fixes the
values outside an induced subdiagram T[u] and imposes the condition only
at vertices outside u; extend_flow completes it to a total flow.

Values are double-precision complex: the extension takes k-th roots, so
exactness is out of reach and unnecessary (flows are witnesses, not
classification inputs).  Default tolerance 1e-9.
"""

import cmath
from collections.abc import Mapping

from .errors import DomainMismatch, InvalidPartialFlow, NotClosed
from .semigraph import connected_components, known_ids, restrict, slots, subdiagram_ref

_MIN_ABS = 1e-12


def flow_value(wid, re, im=0):
    """The value re + i*im at wire wid, refused unless it is a finite number
    (a bool is not one)."""
    try:
        z = None if bool in (type(re), type(im)) else complex(re, im)
    except (TypeError, OverflowError):
        z = None
    if z is None or not cmath.isfinite(z):
        raise InvalidPartialFlow(f"wire {wid}: flow value is not a finite number")
    return z


def _check_input(d, f, u, tol):
    """(u as a set, T[u]); refuses a tolerance not finite and >= 0, a u
    that known_ids does not find among d's vertex ids, a flow that is not a
    mapping over exactly the wires outside T[u], a bad value."""
    if not isinstance(tol, (int, float)) or not 0 <= tol < float("inf"):
        raise InvalidPartialFlow(f"tolerance must be finite and >= 0, got {tol!r}")
    u_set = set(known_ids(d.vertices, u, DomainMismatch, "vertex ids"))
    ref = subdiagram_ref(d, u_set)
    if not isinstance(f, Mapping):
        raise DomainMismatch("a flow must be a mapping of wire ids to values")
    expected = {w.id for w in d.wires} - set(ref.wires)
    got = set(f)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected, key=str)
        raise DomainMismatch(
            f"flow domain mismatch (missing {missing}, extra {extra})")
    for wid, val in f.items():
        flow_value(wid, val)
    return u_set, ref


def _condition(nb, f):
    """Signed product of the defined values at a vertex whose slots are nb
    (loops with a defined value cancel exactly)."""
    prod = 1 + 0j
    for wid in nb.outgoing:
        if wid in f:
            prod *= f[wid]
    for wid in nb.incoming:
        if wid in f:
            prod /= f[wid]
    return prod


def verify_partial_flow(d, f, u, tol=1e-9):
    """Check the flow condition at every vertex outside u."""
    return _holds(d, f, _check_input(d, f, u, tol)[0], tol)


def _holds(d, f, u_set, tol):
    """The flow condition at every vertex outside u_set, on checked input."""
    if any(abs(val) <= _MIN_ABS for val in f.values()):
        return False
    for v, nb in slots(d).items():
        # "not <=" so that a NaN product (inf / inf) fails too
        if v not in u_set and not abs(_condition(nb, f) - 1) <= tol:
            return False
    return True


def extend_flow(d, f, u, tol=1e-9):
    """Extend a valid partial flow over T[u] to a total flow.

    Per connected component of T[u]: the boundary values must multiply to
    1 (signed toward the component) or no extension exists; loops and the
    wires of non-tree parallel classes get value 1; the remaining classes
    are filled by peeling a breadth-first spanning tree of the merged
    simple graph from the deepest vertices inward, giving each class of k
    parallel wires the principal k-th root forced by its vertex condition.
    """
    if not d.is_closed():
        raise NotClosed("flow extension needs a closed diagram")
    u_set, ref = _check_input(d, f, u, tol)
    if not _holds(d, f, u_set, tol):
        raise InvalidPartialFlow("input violates the partial flow condition")
    total = dict(f)
    wires = {w.id: w for w in d.wires}
    position = {wid: i for i, wid in enumerate(wires)}
    table = slots(d)

    for comp in connected_components(restrict(d, ref)):
        members = comp.vertices
        mset = set(members)
        # closure: boundary values, signed toward the component, multiply
        # to 1; the product runs in d.wires order, which its message shows
        into = {wid for v in members for wid in table[v].incoming
                if wires[wid].tail not in mset}
        out = {wid for v in members for wid in table[v].outgoing
               if wires[wid].head not in mset}
        closure = 1 + 0j
        for wid in sorted(into | out, key=position.__getitem__):
            closure = closure * total[wid] if wid in into else closure / total[wid]
        if not abs(closure - 1) <= tol:
            raise InvalidPartialFlow(
                f"boundary product {closure} at component of {members[0]}")

        classes = {}   # frozenset{x,y} -> [wire ids]
        adj = {v: [] for v in members}
        for wid in comp.wires:
            w = wires[wid]
            if w.is_loop():
                total[wid] = 1 + 0j
                continue
            key = frozenset((w.tail, w.head))
            if key not in classes:
                adj[w.tail].append(w.head)
                adj[w.head].append(w.tail)
            classes.setdefault(key, []).append(wid)

        # breadth-first from the lex-smallest vertex: (vertex, depth, the
        # wires of its tree class); the classes left over are off the tree
        bfs, seen = [(members[0], 0, None)], {members[0]}
        for x, depth, _ in bfs:
            for y in sorted(adj[x]):
                if y not in seen:
                    seen.add(y)
                    bfs.append((y, depth + 1, classes.pop(frozenset((x, y)))))
        for wids in classes.values():
            for wid in wids:
                total[wid] = 1 + 0j

        for v, _, group in sorted(bfs[1:], key=lambda t: (-t[1], t[0])):
            prod = _condition(table[v], total)
            if not (prod and cmath.isfinite(prod) and cmath.isfinite(1 / prod)):
                raise InvalidPartialFlow(
                    f"flow values at {v} leave the floating-point range")
            z = cmath.exp(cmath.log(1 / prod) / len(group))
            for wid in group:
                total[wid] = z if wires[wid].tail == v else 1 / z
    return total
