"""Seeded random representations with reproducible answer keys.

The stream is the standard splitmix64 step, fixed so that fixtures and
answer keys reproduce bit-for-bit across runs and implementations.
Rational entries have numerators in [-9, 9] and denominators in [1, 9].

Dims are checked by representation.vertex_shapes, as for the
Representation constructor, once and before anything is drawn.  Generic
mode fills every vertex tensor entry from the stream, row-major over
vertices in canonical order, at those shapes, so its rep is valid by
construction and is not checked again.  Sum mode
treats the requested dims as per-wire caps: it draws indecomposable
descriptors, keeps each one that fits under the caps and that
decompose.block_arcs accepts, lays each block out along the input
diagram's own shape (on_shape), takes their direct sum in one call
(after a zero summand, the whole sum when no block fits), conjugates by
a random exact-invertible group element per wire and turns the wires
back to the input's orientations.  The kept multiset is the answer key,
so decompose(rep) == key.
"""

from typing import NamedTuple

from .decompose import (
    Band,
    Decomposition,
    Interval,
    StringBlock,
    block_arcs,
    on_shape,
    position_dims,
    reorient,
    shape_of,
)
from .errors import InvalidDescriptor, InvalidDims
from .exactalg import Matrix, Poly, det, factor_poly
from .rational import ONE, Q
from .representation import (
    Representation,
    apply_group_element,
    direct_sum,
    drawn_rep,
    vertex_shapes,
)
from .semigraph import validate_diagram


class SplitMix64:
    """splitmix64: state += golden gamma; output = mixed state."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next_u64() % n


def _rand_rational(rng):
    num = rng.below(19) - 9
    den = 1 + rng.below(9)
    return Q(num, den)


def _nonzero_rational(rng):
    num = rng.below(18) - 9
    if num >= 0:
        num += 1
    den = 1 + rng.below(9)
    return Q(num, den)


def _rand_matrix(rng, rows, cols):
    if rows * cols == 0:   # no draws, and no rows of nothing to build
        return Matrix.zeros(rows, cols)
    return Matrix(rows, cols, tuple(
        tuple(_rand_rational(rng) for _ in range(cols)) for _ in range(rows)))


def _rand_invertible(rng, d):
    """A random d x d matrix, drawn again until it is invertible."""
    while True:
        m = _rand_matrix(rng, d, d)
        if det(m) != 0:
            return m


def _rand_irreducible(rng, deg):
    """A random monic degree-deg polynomial with a nonzero constant term,
    drawn again until it is irreducible."""
    while True:
        coeffs = ([_nonzero_rational(rng)]
                  + [_rand_rational(rng) for _ in range(deg - 1)] + [ONE])
        p = Poly(tuple(coeffs))
        if factor_poly(p) == [(p, 1)]:
            return p


class GenResult(NamedTuple):
    rep: Representation
    key: object   # Decomposition in sum mode, None in generic mode


def _draw_desc(family, n, m, rng):
    if family in ("A0", "A1"):
        a = 1 + rng.below(m)
        return Interval(a, a + rng.below(m - a + 1))
    if family == "P":
        if rng.below(2):
            return Band(Poly((-_nonzero_rational(rng), ONE)), 1)
        return StringBlock(1 + rng.below(n), 1 + rng.below(max(2 * n - 1, 1)))
    if rng.below(2):
        deg = 1 + rng.below(3)
        power = 1 + rng.below(3)
        return Band(_rand_irreducible(rng, deg), power)
    return StringBlock(1 + rng.below(n), 1 + rng.below(2 * n))


def _sum_mode(d, dims, rng):
    shape = shape_of(d)
    family, n = shape.family, shape.n
    remaining = position_dims(dims, shape)
    m = len(remaining)
    blocks, reps = [], []
    misses = 0
    while misses < 24:
        desc = _draw_desc(family, n, m, rng)
        need = desc.dims(m)
        misses += 1   # unless the block fits and block_arcs accepts it
        if all(x <= r for x, r in zip(need, remaining)):
            try:
                arcs = block_arcs(family, n, desc)
            except InvalidDescriptor:
                continue
            # each block is laid out along the input diagram's own traversal
            reps.append(on_shape(d, shape, *arcs))
            blocks.append(desc)
            remaining = [r - x for r, x in zip(remaining, need)]
            misses = 0
    zero = position_dims(dict.fromkeys(dims, 0), shape)
    rep = direct_sum(on_shape(d, shape, zero, [
        Matrix.zeros(zero[(i + 1) % m], zero[i]) for i in range(n)]), *reps)
    gs = {wid: _rand_invertible(rng, rep.dims[wid])
          for wid in sorted(rep.dims)}
    rep = apply_group_element(gs, rep)

    return reorient(rep, d.wires), Decomposition.of(blocks)


def gen_random(diagram, dims, seed, mode="generic"):
    """Deterministic random representation; (rep, key) with key in sum mode."""
    d = validate_diagram(diagram)
    shapes = vertex_shapes(d, dims)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidDims(f"seed must be an integer, got {seed!r}")
    rng = SplitMix64(seed)
    if mode == "generic":
        tensors = {v: _rand_matrix(rng, *shape) for v, shape in shapes.items()}
        return GenResult(drawn_rep(d, dims, tensors), None)
    if mode in ("sum", "sum-of-indecomposables"):
        return GenResult(*_sum_mode(d, dims, rng))
    raise InvalidDims(f"unknown mode {mode!r}")
