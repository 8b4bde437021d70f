"""The shape cache of decompose, per diagram, and wire reversal beside
it.  A cold call (the cold fixture empties every tdr cache first) and a
warm one must give the same result."""

import random

import pytest

from tdr.decompose import (
    Band,
    Decomposition,
    Interval,
    StringBlock,
    canonical_diagram,
    decompose,
    isomorphic,
    realize,
    shape_of,
    traverse,
)
from tdr.exactalg import Matrix, Poly
from tdr.representation import (
    Representation,
    apply_group_element,
    direct_sum,
    dual_rep,
    kernel,
    reverse_wire_rep,
)
from tdr.rational import Q
from tdr.semigraph import TensorDiagram, slots

# realized blocks on every family: A0 leaves its end wires at dim 0, and
# J_1's one wire is a loop
_CASES = [
    ("A0", 3, [Interval(2, 3), Interval(2, 2), Interval(3, 3)]),
    ("A1", 3, [Interval(1, 3), Interval(2, 4), Interval(1, 1)]),
    ("P", 3, [Band(Poly((-2, 1)), 1), StringBlock(1, 2), StringBlock(2, 1)]),
    ("J", 1, [Band(Poly((-3, 1)), 2), StringBlock(1, 2)]),
    ("J", 3, [Band(Poly((1, 0, 1)), 1), StringBlock(2, 5)]),
]


def _invertible(rng, n):
    """Upper triangular over a nonzero diagonal, so invertible, with
    denominators among its entries."""
    return Matrix(n, n, [[Q(rng.choice([1, -2]) if i == j else
                            rng.randint(-3, 3) if j > i else 0,
                            rng.choice([1, 1, 2, 3]))
                          for j in range(n)] for i in range(n)])


def _based(rng, r):
    return apply_group_element(
        {w: _invertible(rng, k) for w, k in r.dims.items()}, r)


def _cases():
    """(planted sum under a base change, the same after random wire
    reversals, the wires reversed, its planted decomposition) per case."""
    rng = random.Random(26)
    out = []
    for family, n, descs in _CASES:
        r = _based(rng, direct_sum(*(realize(family, n, x) for x in descs)))
        flip = [w for w in r.dims if rng.random() < 0.5] or [min(r.dims)]
        out.append((r, reverse_wire_rep(r, *flip), flip, Decomposition.of(descs)))
    return out


def _results(clear):
    """Every path through the shape caches on every case, clear() before
    each call."""
    rng = random.Random(7)
    out = []
    for r, turned, flip, planted in _cases():
        wids = sorted(rng.sample(sorted(r.dims), rng.randint(1, len(r.dims))))
        calls = [(decompose, (turned,)),
                 (decompose, (r,)),
                 (isomorphic, (r, _based(rng, r))),
                 (isomorphic, (turned, reverse_wire_rep(_based(rng, r), *flip))),
                 (reverse_wire_rep, (turned, *wids)),
                 (dual_rep, (turned,))]
        for f, args in calls:
            clear()
            out.append(f(*args))
        assert out[-6] == out[-5] == planted   # orientation does not matter
        assert out[-4] is True and out[-3] is True
        if all(list(map(len, nb)) == [1, 1] for nb in slots(r.diagram).values()):
            # kernel needs one slot in and one out at every vertex
            clear()
            zero = {w: Matrix.zeros(k, k) for w, k in r.dims.items()}
            out.append(kernel(zero, r, r))
            assert out[-1][0] == r   # the kernel of the zero map is all of r
    return out


def test_cold_and_warm_calls_agree(cold):
    first = _results(cold)
    again = _results(cold)
    filling = _results(lambda: None)
    hits = shape_of.cache_info().hits
    warm = _results(lambda: None)   # the same calls again: every shape a hit
    assert first == again == filling == warm
    assert shape_of.cache_info().hits > hits
    assert len(first) > 6 * len(_CASES)   # some cases took a kernel
    # dims at 0 and a loop are among the cases
    assert any(0 in r.dims.values() for r, *_ in _cases())
    assert any(w.is_loop() for r, *_ in _cases() for w in r.diagram.wires)


def test_reversal_is_an_involution_in_lowest_terms():
    """Entries only move, so reverse_wire_rep builds each tensor without a
    gcd pass, and it is the Matrix that the checked constructor builds
    from the same entries."""
    for r, turned, flip, _ in _cases():
        assert reverse_wire_rep(turned, *flip) == r
        assert dual_rep(dual_rep(turned)) == turned
        assert reverse_wire_rep(r, *r.dims) == dual_rep(r)
        for m in (*turned.tensors.values(), *dual_rep(r).tensors.values()):
            assert m == Matrix(m.rows, m.cols, m.entries())
        assert any(m.den > 1 for m in turned.tensors.values())


def test_shapes_are_cached_per_diagram(cold):
    d = canonical_diagram("A0", 4)
    s = shape_of(d)
    assert shape_of(TensorDiagram(*d)) is s
    assert traverse(d, "A0") == s
    assert type(s.wires) is tuple and type(s.verts) is tuple
    assert shape_of.cache_info().currsize == 1
    # the constructor gives a hand-built diagram with list fields tuples,
    # so decompose finds its shape in the cache
    r = realize("A0", 4, Interval(1, 2))
    listed = TensorDiagram(list(d.vertices), list(d.wires))
    assert traverse(listed, "A0") == s
    hand = Representation(listed, dict(r.dims), dict(r.tensors))
    assert decompose(hand) == Decomposition.of([Interval(1, 2)])
    assert shape_of.cache_info().currsize == 1


def test_shape_errors_are_not_cached(cold):
    d = TensorDiagram(("v1", "v2"), ())
    for _ in range(2):
        with pytest.raises(Exception, match="2 components"):
            shape_of(d)
    assert shape_of.cache_info().currsize == 0
