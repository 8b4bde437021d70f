"""End-to-end acceptance checks, one test per criterion.

Each test prints as a single pass/fail line under pytest -v.  All
algebraic checks are exact over Q; only the flow checks use a numeric
tolerance (1e-9), matching the double-precision flow backend.
"""

import cmath
import itertools
import random
import time

from tdr import (
    Band,
    Matrix,
    Poly,
    Q,
    StringBlock,
    TensorDiagram,
    Wire,
    apply_group_element,
    canonical_diagram,
    classify_diagram,
    contract,
    decompose,
    direct_sum,
    extend_flow,
    find_forbidden_witness,
    gen_random,
    monodromy,
    realize,
    reverse_wire_rep,
    tensor_product,
)
from tdr.cli import canonical_json, _rep_record
from tdr.exactalg import det, inverse, nullspace, rank
from tdr.representation import Representation, cokernel, is_morphism, kernel
from tdr.wildness import (
    MatrixPair,
    build_Y_pair,
    eight_rep_from_pair,
    eight_tuple,
    iso_from_similarity,
    mix_tuple,
    needle_rep_from_pair,
)


def rand_invertible(rng, d):
    if d == 0:
        return Matrix(0, 0, ())
    while True:
        m = Matrix(d, d, tuple(tuple(Q(rng.randrange(-3, 4))
                                     for _ in range(d)) for _ in range(d)))
        if det(m) != 0:
            return m


def rand_conjugation(rng, rep):
    return {w.id: rand_invertible(rng, rep.dims[w.id])
            for w in rep.diagram.wires}


def multiset(blocks):
    out = {}
    for b in blocks:
        out[b] = out.get(b, 0) + 1
    return out


# ---------------------------------------------------------------------------


def test_criterion_1():
    """Trichotomy is exhaustive on small diagrams.

    Every connected directed semi-graph with at most 5 vertices and 6
    wires (dangling ends allowed): the classifier, the slot-degree rule
    (wild iff some vertex carries >= 3 slots, a loop counting twice) and
    witness presence must all agree.  Wire shapes are enumerated as
    multisets of unordered endpoint pairs; orientations are swept
    exhaustively up to 4 wires and sampled (fixed seed) above that,
    since the class never depends on direction.
    """
    t0 = time.monotonic()
    rng = random.Random(20260819)
    shapes = connected = 0

    def check(k, pairs, flips):
        names = ["v%d" % (i + 1) for i in range(k)]
        wires = []
        deg = [0] * k
        for idx, ((a, b), flip) in enumerate(zip(pairs, flips)):
            t, h = (b, a) if flip else (a, b)
            wires.append(Wire("e%d" % (idx + 1),
                              None if t is None else names[t],
                              None if h is None else names[h]))
            for e in (a, b):
                if e is not None:
                    deg[e] += 1
        d = TensorDiagram(tuple(names), tuple(wires))
        rule_wild = any(x >= 3 for x in deg)
        comps = classify_diagram(d)
        assert len(comps) == 1
        assert (comps[0][1].kind == "wild") == rule_wild, (pairs, flips)
        assert (find_forbidden_witness(d) is not None) == rule_wild

    def is_connected(k, pairs):
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            if a is not None and b is not None:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        return all(find(v) == find(0) for v in range(k))

    for k in range(1, 6):
        ids = list(range(k)) + [None]
        ptypes = [(a, b) for i, a in enumerate(ids) for b in ids[i:]
                  if not (a is None and b is None)]
        for m in range(0, 7):
            if m == 0 and k > 1:
                continue
            for pairs in itertools.combinations_with_replacement(ptypes, m):
                shapes += 1
                if not is_connected(k, pairs):
                    continue
                connected += 1
                if m <= 4:
                    for bits in range(1 << m):
                        check(k, pairs, [(bits >> i) & 1 for i in range(m)])
                else:
                    check(k, pairs, [0] * m)
                    for _ in range(3):
                        check(k, pairs,
                              [rng.randrange(2) for _ in range(m)])

    assert shapes == 274481 and connected == 28016
    assert time.monotonic() - t0 < 10.0


def test_criterion_2():
    """Sum-mode generation round-trips through decompose on open paths.

    200 seeded cases over A0/A1, n <= 6, per-wire caps <= 6: the key
    emitted by gen_random equals decompose of the produced rep exactly.
    """
    t0 = time.monotonic()
    for i in range(200):
        seed = 1000 + i
        rng = random.Random(seed)
        family = rng.choice(["A0", "A1"])
        n = rng.randrange(1, 7)
        d = canonical_diagram(family, n)
        caps = {w.id: rng.randrange(0, 7) for w in d.wires}
        rep, key = gen_random(d, caps, seed=seed, mode="sum")
        assert decompose(rep) == key, (family, n, seed)
    assert time.monotonic() - t0 < 30.0


IRREDUCIBLE = [Poly((Q(-a), Q(1))) for a in range(-3, 4) if a != 0] + [
    Poly((Q(1), Q(0), Q(1))),          # x^2 + 1
    Poly((Q(2), Q(0), Q(1))),          # x^2 + 2
    Poly((Q(-2), Q(0), Q(1))),         # x^2 - 2
    Poly((Q(1), Q(1), Q(1))),          # x^2 + x + 1
    Poly((Q(1), Q(-1), Q(1))),         # x^2 - x + 1
    Poly((Q(-3), Q(0), Q(1))),         # x^2 - 3
    Poly((Q(-2), Q(0), Q(0), Q(1))),   # x^3 - 2
    Poly((Q(2), Q(0), Q(0), Q(1))),    # x^3 + 2
    Poly((Q(-1), Q(-1), Q(0), Q(1))),  # x^3 - x - 1
    Poly((Q(1), Q(1), Q(0), Q(1))),    # x^3 + x + 1
]


def test_criterion_3():
    """Cycle decomposition recovers planted blocks up to conjugation.

    200 seeded cases on J_n, n <= 5: a direct sum of Band blocks
    (irreducible polynomials of degree <= 3, powers <= 3) and String
    blocks, conjugated wire-by-wire by random invertible matrices,
    decomposes back to the planted multiset exactly.
    """
    t0 = time.monotonic()
    for i in range(200):
        seed = 2000 + i
        rng = random.Random(seed)
        n = rng.randrange(1, 6)
        blocks = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.6:
                blocks.append(Band(rng.choice(IRREDUCIBLE),
                                   rng.randrange(1, 4)))
            else:
                blocks.append(StringBlock(rng.randrange(1, n + 1),
                                          rng.randrange(1, 6)))
        rep = realize("J", n, blocks[0])
        for b in blocks[1:]:
            rep = direct_sum(rep, realize("J", n, b))
        moved = apply_group_element(rand_conjugation(rng, rep), rep)
        assert dict(decompose(moved).blocks) == multiset(blocks), (n, seed)
    assert time.monotonic() - t0 < 60.0


def test_criterion_4():
    """Decomposition is an isomorphism invariant.

    100 seeded reps across A0/A1/P/J: unchanged under wire-wise base
    change and under reversing a single wire; additive over direct sums
    on A0 and J (the families without a pinned position, where the
    block multiset of a sum is the join of the summands' multisets).
    """
    for i in range(100):
        seed = 4000 + i
        rng = random.Random(seed)
        family = rng.choice(["A0", "A1", "P", "J"])
        n = rng.randrange(1, 5)
        d = canonical_diagram(family, n)
        caps = {w.id: rng.randrange(0, 5) for w in d.wires}
        rep, key = gen_random(d, caps, seed=seed, mode="sum")

        moved = apply_group_element(rand_conjugation(rng, rep), rep)
        assert decompose(moved) == key, (family, n, seed)

        if d.wires:
            wid = rng.choice([w.id for w in d.wires])
            assert decompose(reverse_wire_rep(rep, wid)) == key, \
                (family, n, seed, wid)

        if family in ("A0", "J"):
            rep2, key2 = gen_random(d, caps, seed=seed + 1, mode="sum")
            joined = multiset([])
            for k, m in key.blocks:
                joined[k] = joined.get(k, 0) + m
            for k, m in key2.blocks:
                joined[k] = joined.get(k, 0) + m
            dec = decompose(direct_sum(rep, rep2))
            assert dict(dec.blocks) == joined, (family, n, seed)


def test_criterion_5():
    """Contraction is an exact rational invariant of closed reps.

    100 seeded closed reps on P/J: invariant under wire-wise base
    change, additive over direct sums, multiplicative over tensor
    products (checked on loop reps of dimension <= 3), and equal to the
    trace of the monodromy on a single loop.
    """
    for i in range(100):
        seed = 5000 + i
        rng = random.Random(seed)
        family = rng.choice(["P", "J"])
        n = rng.randrange(1, 5)
        d = canonical_diagram(family, n)
        dims = {w.id: rng.randrange(0, 5) for w in d.wires}
        rep, _ = gen_random(d, dims, seed=seed)
        value = contract(rep)

        moved = apply_group_element(rand_conjugation(rng, rep), rep)
        assert contract(moved) == value, (family, n, seed)

        dims2 = {w.id: rng.randrange(0, 5) for w in d.wires}
        rep2, _ = gen_random(d, dims2, seed=seed + 1)
        assert contract(direct_sum(rep, rep2)) == value + contract(rep2)

        j1 = canonical_diagram("J", 1)
        a, _ = gen_random(j1, {"e1": rng.randrange(1, 4)}, seed=seed + 2)
        b, _ = gen_random(j1, {"e1": rng.randrange(1, 4)}, seed=seed + 3)
        assert contract(tensor_product(a, b)) == contract(a) * contract(b)
        m = monodromy(a, "e1")
        assert contract(a) == sum((m.entries()[k][k] for k in range(m.rows)),
                                  Q(0))


def test_criterion_6():
    """Matrix-pair packing preserves and reflects similarity.

    50 seeded pairs with n in {1, 2, 3}: the packed Y1 has rank 4n;
    for pairs made similar by a random invertible P the witness maps
    one needle rep onto the other exactly; on the figure eight,
    conjugating the dimension-2 loop by g acts on the packed 4-tuple
    as the mixing matrix g (x) (g^{-1})^T, exactly.
    """
    for i in range(50):
        seed = 6000 + i
        rng = random.Random(seed)
        n = (i % 3) + 1
        mk = lambda: Matrix(n, n, tuple(tuple(Q(rng.randrange(-3, 4))
                                              for _ in range(n))
                                        for _ in range(n)))
        pair1 = MatrixPair(mk(), mk())
        y1, _ = build_Y_pair(pair1)
        assert rank(y1) == 4 * n, (seed, n)

        p = rand_invertible(rng, n)
        pinv = inverse(p)
        pair2 = MatrixPair(p @ pair1.a @ pinv, p @ pair1.b @ pinv)
        g = iso_from_similarity(p, pair1, pair2)
        assert apply_group_element(g, needle_rep_from_pair(pair1)) \
            == needle_rep_from_pair(pair2), (seed, n)

        g2 = rand_invertible(rng, 2)
        eight = eight_rep_from_pair(pair1)
        conj = apply_group_element(
            {"e1": Matrix.identity(6 * n), "e2": g2}, eight)
        assert eight_tuple(conj) == mix_tuple(eight_tuple(eight), g2), \
            (seed, n)


def test_criterion_7():
    """Partial flows extend to total flows.

    100 seeded closed diagrams (<= 8 vertices, <= 10 wires) carrying
    the restriction of a random total flow built from the cycle space:
    extend_flow returns values satisfying the vertex condition within
    1e-9 everywhere and agreeing bit-for-bit with the input on every
    wire outside the masked induced subdiagram.
    """
    for i in range(100):
        seed = 7000 + i
        rng = random.Random(seed)
        k = rng.randrange(1, 9)
        names = ["v%d" % (j + 1) for j in range(k)]
        wires = []
        parent = {}
        for j in range(1, k):
            p = rng.randrange(j)
            parent[j] = p
            a, b = (p, j) if rng.random() < 0.5 else (j, p)
            wires.append(Wire("e%d" % len(wires), names[a], names[b]))
        tree_count = len(wires)
        for _ in range(rng.randrange(0, 11 - tree_count)):
            wires.append(Wire("e%d" % len(wires),
                              names[rng.randrange(k)],
                              names[rng.randrange(k)]))
        d = TensorDiagram(tuple(names), tuple(wires))

        def tree_path(a, b):
            """Steps (vertex j, child-to-parent?) from a to b in the tree."""
            seen = {a: True}
            cur = a
            up = []
            while cur in parent:
                cur = parent[cur]
                up.append(cur)
                seen[cur] = True
            cur = b
            down = []
            while cur not in seen:
                down.append((cur, -1))
                cur = parent[cur]
            meet = cur
            steps = []
            node = a
            while node != meet:
                steps.append((node, 1))
                node = parent[node]
            return steps + list(reversed(down))

        # exponent vector in the cycle space: loops free, one fundamental
        # cycle per extra wire, random complex coefficients
        x = {w.id: 0j for w in wires}
        for idx in range(tree_count, len(wires)):
            w = wires[idx]
            coeff = complex(rng.uniform(-0.7, 0.7), rng.uniform(-2.0, 2.0))
            x[w.id] += coeff
            if w.tail == w.head:
                continue
            a = names.index(w.tail)
            b = names.index(w.head)
            for j, direction in tree_path(b, a):
                tw = wires[j - 1]
                walked = (names[j], names[parent[j]]) if direction == 1 \
                    else (names[parent[j]], names[j])
                sign = 1 if (tw.tail, tw.head) == walked else -1
                x[tw.id] += sign * coeff
        f = {wid: cmath.exp(val) for wid, val in x.items()}

        u = rng.sample(names, rng.randrange(1, k + 1))
        u_set = set(u)
        inner = {w.id for w in wires
                 if w.tail in u_set and w.head in u_set}
        partial = {wid: val for wid, val in f.items() if wid not in inner}
        out = extend_flow(d, partial, u)

        assert set(out) == {w.id for w in wires}
        for wid, val in partial.items():
            assert out[wid] == val, (seed, wid)
        for v in names:
            prod = 1 + 0j
            for w in wires:
                if w.tail == v:
                    prod *= out[w.id]
                if w.head == v:
                    prod /= out[w.id]
            assert abs(prod - 1) <= 1e-9, (seed, v, prod)


def test_criterion_8():
    """Kernels and cokernels of monic morphisms behave functorially.

    50 seeded block inclusions into A0 reps, hidden by wire-wise base
    change of the target: cokernel dimensions add up wire by wire, the
    projection kills the inclusion, and kernel dimensions match direct
    nullspace dimensions for both the monic map (all zero) and its
    cokernel projection.
    """
    for i in range(50):
        seed = 8000 + i
        rng = random.Random(seed)
        n = rng.randrange(1, 5)
        d = canonical_diagram("A0", n)
        sdims = {w.id: rng.randrange(0, 4) for w in d.wires}
        if all(v == 0 for v in sdims.values()):
            sdims["e1"] = 1
        src, _ = gen_random(d, sdims, seed=seed)
        rdims = {w.id: rng.randrange(0, 3) for w in d.wires}
        tdims = {wid: sdims[wid] + rdims[wid] for wid in sdims}

        in_of = {w.head: w.id for w in d.wires if w.head is not None}
        out_of = {w.tail: w.id for w in d.wires if w.tail is not None}
        tensors = {}
        for v in d.vertices:
            so, si = sdims[out_of[v]], sdims[in_of[v]]
            ro, ri = rdims[out_of[v]], rdims[in_of[v]]
            sv = src.tensors[v]
            rows = []
            for a in range(so):
                rows.append(sv.entries()[a] +
                            tuple(Q(rng.randrange(-3, 4))
                                  for _ in range(ri)))
            for _ in range(ro):
                rows.append((Q(0),) * si +
                            tuple(Q(rng.randrange(-3, 4))
                                  for _ in range(ri)))
            tensors[v] = Matrix(so + ro, si + ri, tuple(rows))
        tgt = Representation(d, tdims, tensors)

        g = {wid: rand_invertible(rng, tdims[wid]) for wid in tdims}
        tgt = apply_group_element(g, tgt)
        phi = {}
        for wid in sdims:
            inc = Matrix(tdims[wid], sdims[wid], tuple(
                tuple(Q(1) if a == b else Q(0) for b in range(sdims[wid]))
                for a in range(tdims[wid])))
            phi[wid] = g[wid] @ inc
        assert is_morphism(phi, src, tgt)

        coker, psi = cokernel(phi, src, tgt)
        for wid in sdims:
            assert coker.dims[wid] == tdims[wid] - sdims[wid], (seed, wid)
            z = psi[wid] @ phi[wid]
            assert z == Matrix.zeros(z.rows, z.cols), (seed, wid)

        ker, _ = kernel(phi, src, tgt)
        for wid in sdims:
            assert ker.dims[wid] == nullspace(phi[wid]).cols == 0

        kpsi, incl = kernel(psi, tgt, coker)
        for wid in sdims:
            assert kpsi.dims[wid] == nullspace(psi[wid]).cols == sdims[wid]
            z = psi[wid] @ incl[wid]
            assert z == Matrix.zeros(z.rows, z.cols), (seed, wid)


def test_criterion_9(session_t0):
    """The suite stays inside its time budget and is bit-reproducible.

    All preceding acceptance work finished well under 3 minutes of the
    session clock, and repeating seeded generation and decomposition
    yields byte-identical canonical serializations.
    """
    for family, n, seed in (("A0", 3, 11), ("J", 2, 12), ("A1", 4, 13)):
        d = canonical_diagram(family, n)
        caps = {w.id: 3 for w in d.wires}
        first = gen_random(d, caps, seed=seed, mode="sum")
        second = gen_random(d, caps, seed=seed, mode="sum")
        assert first.rep == second.rep and first.key == second.key
        assert canonical_json(_rep_record(first.rep)) \
            == canonical_json(_rep_record(second.rep))
        assert decompose(first.rep) == decompose(second.rep) == first.key
    assert time.monotonic() - session_t0 < 180.0
