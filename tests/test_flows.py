import cmath
import random

import pytest

from tdr.errors import DomainMismatch, InvalidPartialFlow, NotClosed
from tdr.flows import extend_flow, verify_partial_flow
from tdr.semigraph import validate_diagram


def diag(vertices, wires):
    return validate_diagram({
        "vertices": vertices,
        "wires": [{"id": i, "tail": t, "head": h} for i, t, h in wires]})


SQUARE = diag(["v1", "v2", "v3", "v4"],
              [("e1", "v1", "v2"), ("e2", "v2", "v3"),
               ("e3", "v3", "v4"), ("e4", "v4", "v1")])


def test_verify_total_flow():
    f = {"e1": 2 + 0j, "e2": 2 + 0j, "e3": 2 + 0j, "e4": 2 + 0j}
    assert verify_partial_flow(SQUARE, f, [])
    bad = dict(f, e2=3 + 0j)
    assert not verify_partial_flow(SQUARE, bad, [])
    # masking both endpoints of the bad wire makes it pass again
    assert verify_partial_flow(SQUARE, {"e1": 2 + 0j, "e3": 2 + 0j,
                                        "e4": 2 + 0j}, ["v2", "v3"])


def test_verify_domain_discipline():
    with pytest.raises(DomainMismatch):
        verify_partial_flow(SQUARE, {"e1": 1 + 0j}, [])
    with pytest.raises(DomainMismatch):
        verify_partial_flow(SQUARE, {}, ["v9"])


def test_zero_values_fail():
    f = {"e1": 0j, "e2": 1 + 0j, "e3": 1 + 0j, "e4": 1 + 0j}
    assert not verify_partial_flow(SQUARE, f, [])


def test_extend_forced_value():
    # fix everything but the v1-v2 wire; the vertex conditions force it
    f = {"e2": 5 + 0j, "e3": 5 + 0j, "e4": 5 + 0j}
    total = extend_flow(SQUARE, f, ["v1", "v2"])
    assert abs(total["e1"] - 5) < 1e-9
    for wid in f:
        assert total[wid] == f[wid]  # untouched outside T[u]
    assert verify_partial_flow(SQUARE, total, [])


def test_extend_u_empty_returns_input():
    f = {"e1": 1j, "e2": 1j, "e3": 1j, "e4": 1j}
    assert extend_flow(SQUARE, f, []) == f


def test_extend_whole_diagram():
    total = extend_flow(SQUARE, {}, ["v1", "v2", "v3", "v4"])
    assert verify_partial_flow(SQUARE, total, [])
    assert all(abs(v) > 1e-12 for v in total.values())


def test_extend_rejects_invalid_input():
    f = {"e2": 5 + 0j, "e3": 5 + 0j, "e4": 7 + 0j}
    with pytest.raises(InvalidPartialFlow):
        extend_flow(SQUARE, f, ["v1", "v2"])


def test_extend_rejects_impossible_closure():
    # two components of T[u]: boundary products signed toward each must be 1
    path6 = diag(["v1", "v2", "v3", "v4", "v5", "v6"],
                 [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v4"),
                  ("e4", "v4", "v5"), ("e5", "v5", "v6"), ("e6", "v6", "v1")])
    # u = {v2, v5}: T[u] has no wires; every wire stays fixed, but the
    # condition at v2 and v5 is waived, so closure around each is free
    f = {"e1": 2 + 0j, "e2": 3 + 0j, "e3": 3 + 0j,
         "e4": 3 + 0j, "e5": 3 + 0j, "e6": 2 + 0j}
    with pytest.raises(InvalidPartialFlow):
        # v3, v4, v6, v1 conditions fail for this f
        extend_flow(path6, f, ["v2", "v5"])
    f2 = {"e1": 2 + 0j, "e2": 2 + 0j, "e3": 2 + 0j,
          "e4": 2 + 0j, "e5": 2 + 0j, "e6": 2 + 0j}
    out = extend_flow(path6, f2, ["v2", "v5"])
    assert out == f2
    # u = {v1, v3} on the square: v2 and v4 balance, but into v1 come 3
    # and out go 2, so its component's boundary product is 1.5
    f3 = {"e1": 2 + 0j, "e2": 2 + 0j, "e3": 3 + 0j, "e4": 3 + 0j}
    with pytest.raises(InvalidPartialFlow,
                       match=r"^boundary product \(1\.5\+0j\) at component of v1$"):
        extend_flow(SQUARE, f3, ["v1", "v3"])


def test_extend_takes_roots_on_parallel_wires():
    two = diag(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v2", "v1")])
    total = extend_flow(two, {}, ["v1", "v2"])
    assert verify_partial_flow(two, total, [])


def test_loops_inside_get_unit_value():
    d = diag(["v1", "v2"], [("e1", "v1", "v1"), ("e2", "v1", "v2"),
                            ("e3", "v2", "v1")])
    total = extend_flow(d, {}, ["v1", "v2"])
    assert verify_partial_flow(d, total, [])
    assert abs(total["e1"] - 1) < 1e-12  # loop cancels, gets 1


def test_needs_closed_diagram():
    d = diag(["v1"], [("e1", None, "v1")])
    with pytest.raises(NotClosed):
        extend_flow(d, {}, ["v1"])


def test_extension_against_random_potentials():
    rng = random.Random(31)
    for _ in range(20):
        # random flow from a cycle-space element of the square
        c = rng.uniform(-1.5, 1.5) + rng.uniform(-1.5, 1.5) * 1j
        f = {wid: cmath.exp(c) for wid in ("e1", "e2", "e3", "e4")}
        assert verify_partial_flow(SQUARE, f, [])
        u = ["v1", "v2"]
        partial = {"e2": f["e2"], "e3": f["e3"], "e4": f["e4"]}
        total = extend_flow(SQUARE, partial, u)
        assert abs(total["e1"] - f["e1"]) < 1e-9


TRIANGLE = diag(["v1", "v2", "v3"], [("e1", "v1", "v2"), ("e2", "v2", "v3"),
                                     ("e3", "v3", "v1")])
NAN = float("nan")


@pytest.mark.parametrize("tol", [NAN, float("inf"), -1e-9, "1e-9", None])
def test_tolerance_must_be_finite_and_non_negative(tol):
    # 2, 3, 5 around the cycle break every vertex condition; with a NaN
    # tolerance every comparison was false, so the check passed
    f = {"e1": 2 + 0j, "e2": 3 + 0j, "e3": 5 + 0j}
    for check in (verify_partial_flow, extend_flow):
        with pytest.raises(InvalidPartialFlow, match="tolerance"):
            check(TRIANGLE, f, [], tol)


@pytest.mark.parametrize("bad", [NAN, complex(NAN, 0), float("inf"),
                                 10 ** 400, "5", None, True],
                         ids=["nan", "complex-nan", "inf", "huge-int", "text",
                              "none", "bool"])
def test_flow_values_must_be_finite_numbers(bad):
    f = {"e2": bad, "e3": 5 + 0j}
    for check in (verify_partial_flow, extend_flow):
        with pytest.raises(InvalidPartialFlow, match="e2"):
            check(TRIANGLE, f, ["v1", "v2"])


@pytest.mark.parametrize("u", [[["v1"]], [1], [None, "v1"]])
def test_u_must_hold_vertex_ids(u):
    f = {"e2": 5 + 0j, "e3": 5 + 0j}
    for check in (verify_partial_flow, extend_flow):
        with pytest.raises(DomainMismatch, match="vertex ids"):
            check(TRIANGLE, f, u)


def test_values_past_float_range_fail_the_conditions():
    # at v3 both sides overflow to inf, and inf / inf is NaN, which failed
    # no comparison; at v2 the product underflows to 0 before its root
    d = diag(["v1", "v2", "v3"],
             [("a1", "v1", "v3"), ("a2", "v1", "v3"), ("b", "v1", "v2"),
              ("c1", "v3", "v2"), ("c2", "v3", "v2")])
    f = {w: 1e300 + 0j for w in ("a1", "a2", "c1", "c2")}
    assert not verify_partial_flow(d, f, ["v1", "v2"])
    with pytest.raises(InvalidPartialFlow):
        extend_flow(d, f, ["v1", "v2"])
    # every vertex outside u balances and so does the boundary, taken in
    # wire order, but the two values into v2 multiply past the range
    d = diag(["v1", "v2", "m1", "m2"],
             [("a1", "v1", "m1"), ("a2", "m1", "v2"), ("b1", "v1", "m2"),
              ("b2", "m2", "v2"), ("e", "v1", "v2")])
    f = {w: 1e200 + 0j for w in ("a1", "a2", "b1", "b2")}
    assert verify_partial_flow(d, f, ["v1", "v2"])
    with pytest.raises(InvalidPartialFlow,
                       match="^flow values at v2 leave the floating-point range$"):
        extend_flow(d, f, ["v1", "v2"])


def test_extend_flow_checks_its_input_once(monkeypatch):
    """extend_flow builds T[u] once: the vertex conditions are checked on
    the input it has already validated, not by a second validation."""
    import tdr.flows as flows

    calls = []

    def counted(d, u):
        calls.append(u)
        return ref(d, u)

    ref = flows.subdiagram_ref
    monkeypatch.setattr(flows, "subdiagram_ref", counted)
    extend_flow(SQUARE, {"e2": 5 + 0j, "e3": 5 + 0j, "e4": 5 + 0j}, ["v1", "v2"])
    assert len(calls) == 1
    with pytest.raises(InvalidPartialFlow):
        extend_flow(SQUARE, {"e2": 5 + 0j, "e3": 3 + 0j, "e4": 5 + 0j}, ["v1", "v2"])
    assert len(calls) == 2
    assert verify_partial_flow(SQUARE, {"e2": 5 + 0j, "e3": 5 + 0j, "e4": 5 + 0j},
                               ["v1", "v2"])
    assert len(calls) == 3


def _reference_extend_flow(d, f, u, tol=1e-9):
    """extend_flow as it was before its one-pass rewrite: per component, a
    rescan of T[u]'s wires, adjacency sets, a deque BFS and a tree dict."""
    from collections import deque

    from tdr.flows import _check_input, _condition, _holds
    from tdr.semigraph import connected_components, restrict, slots

    if not d.is_closed():
        raise NotClosed("flow extension needs a closed diagram")
    u_set, ref = _check_input(d, f, u, tol)
    if not _holds(d, f, u_set, tol):
        raise InvalidPartialFlow("input violates the partial flow condition")
    total = dict(f)
    wires = {w.id: w for w in d.wires}
    table = slots(d)

    for comp in connected_components(restrict(d, ref)):
        members = comp.vertices
        mset = set(members)
        closure = 1 + 0j
        for w in wires.values():
            if w.id in total:
                if w.head in mset and w.tail not in mset:
                    closure *= total[w.id]
                elif w.tail in mset and w.head not in mset:
                    closure /= total[w.id]
        if not abs(closure - 1) <= tol:
            raise InvalidPartialFlow(
                f"boundary product {closure} at component of {members[0]}")

        classes = {}
        for wid in ref.wires:
            w = wires[wid]
            if w.tail in mset:
                if w.is_loop():
                    total[wid] = 1 + 0j
                else:
                    classes.setdefault(
                        frozenset((w.tail, w.head)), []).append(wid)

        root = members[0]
        depth = {root: 0}
        tree = {}
        queue = deque([root])
        adj = {v: set() for v in mset}
        for key in classes:
            x, y = sorted(key)
            adj[x].add(y)
            adj[y].add(x)
        while queue:
            x = queue.popleft()
            for y in sorted(adj[x]):
                if y not in depth:
                    depth[y] = depth[x] + 1
                    tree[y] = (x, frozenset((x, y)))
                    queue.append(y)
        tree_keys = {key for _, key in tree.values()}
        for key, wids in classes.items():
            if key not in tree_keys:
                for wid in wids:
                    total[wid] = 1 + 0j

        for v in sorted(mset, key=lambda x: (-depth[x], x)):
            if v == root:
                continue
            _, key = tree[v]
            group = classes[key]
            prod = _condition(table[v], total)
            if not (prod and cmath.isfinite(prod) and cmath.isfinite(1 / prod)):
                raise InvalidPartialFlow(
                    f"flow values at {v} leave the floating-point range")
            k = len(group)
            z = cmath.exp(cmath.log(1 / prod) / k)
            for wid in group:
                w = wires[wid]
                total[wid] = z if w.tail == v else 1 / z
    return total


def _log_flow(rng, vs, wires, demand, scale):
    """Log-values x on the wires whose net (out minus in) at each vertex v
    is demand[v], the demands of each component summing to 0: random on
    the wires off a BFS forest, then solved on the tree wires leaves first."""
    x = {w[0]: complex(rng.uniform(-scale, scale), rng.uniform(-3, 3))
         for w in wires}
    adj = {v: [] for v in vs}
    for w in wires:
        if w[1] != w[2]:
            adj[w[1]].append((w, w[2]))
            adj[w[2]].append((w, w[1]))
    seen, order, parent = set(), [], {}
    for root in vs:
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for v in comp:
            for w, y in adj[v]:
                if y not in seen:
                    seen.add(y)
                    parent[y] = w
                    comp.append(y)
        demand[root] = -sum(demand[v] for v in comp[1:])
        order += comp
    for v in reversed(order):
        if v in parent:
            pw = parent[v]
            net = sum(x[w[0]] * ((w[1] == v) - (w[2] == v))
                      for w in wires if w is not pw)
            x[pw[0]] = (demand[v] - net) if pw[1] == v else (net - demand[v])
    return x


def test_extend_flow_agrees_with_its_reference():
    """2400 seeded closed diagrams, with loops and parallel classes, u of
    any size (T[u] often of several components), flows valid, off by a
    little or a lot, with boundary products that are not 1, values near
    the ends of the floating-point range, and other tolerances: the same
    dict, key order included, or the same error class and message."""
    rng = random.Random(3434)
    seen = set()
    for case in range(2400):
        nv = rng.randint(1, 7)
        vs = rng.sample([f"{c}{i}" for c in "abv" for i in range(1, 5)], nv)
        ids = rng.sample([f"w{i:02d}" for i in range(40)], rng.randint(0, 2 * nv + 3))
        wires = []
        for wid in ids:
            r = rng.random()
            if r < 0.15:
                t = h = rng.choice(vs)
            elif r < 0.4 and wires:
                _, t, h = rng.choice(wires)   # parallel, either way round
                if rng.random() < 0.5:
                    t, h = h, t
            else:
                t, h = rng.choice(vs), rng.choice(vs)
            wires.append((wid, t, h))
        d = diag(vs, wires)
        u = rng.sample(vs, rng.randint(0, nv))
        demand = {v: 0j for v in vs}
        if rng.random() < 0.3:   # sources and sinks inside u only
            for v in u:
                demand[v] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        scale = rng.choice((2.0,) * 8 + (250.0, 400.0))
        x = _log_flow(rng, vs, wires, demand, scale)
        inner = {w[0] for w in wires if w[1] in u and w[2] in u}
        f = {}
        for wid, z in x.items():
            if wid not in inner:
                try:
                    f[wid] = cmath.exp(z)
                except OverflowError:
                    f[wid] = complex(1e308, 0)
        r = rng.random()
        if r < 0.1 and f:
            wid = rng.choice(sorted(f))
            f[wid] *= 1 + rng.choice((1e-12, 1e-6, 1e-2))
        elif r < 0.13 and f:
            del f[rng.choice(sorted(f))]
        tol = rng.choice((1e-9, 1e-9, 1e-9, 0.0, 1e-3))
        if rng.random() < 0.05:
            d, f, u, wires, inner = _range_gadget(rng)
        try:
            want = ("ok", list(_reference_extend_flow(d, f, u, tol).items()))
        except Exception as exc:
            want = (type(exc), str(exc))
        try:
            got = ("ok", list(extend_flow(d, f, u, tol).items()))
        except Exception as exc:
            got = (type(exc), str(exc))
        assert got == want, (case, d, f, u, tol)

        sub = [w for w in wires if w[0] in inner]
        if want[0] == "ok":
            seen.add("extended")
            if any(t == h for _, t, h in sub):
                seen.add("loop in T[u]")
            pairs = [frozenset((t, h)) for _, t, h in sub if t != h]
            if len(pairs) > len(set(pairs)):
                seen.add("parallel class in T[u]")
            comps = _component_count(u, sub)
            if comps >= 2:
                seen.add("T[u] of two or more components")
            if len(set(pairs)) > len(u) - comps:
                seen.add("class off the tree")
        else:
            seen.add(next(r for r in _REFUSALS if want[1].startswith(r)))
    assert seen == {
        "extended", "loop in T[u]", "parallel class in T[u]",
        "T[u] of two or more components", "class off the tree",
        *_REFUSALS}, seen


_REFUSALS = ("input violates", "flow domain mismatch", "boundary product",
             "flow values at")


def _range_gadget(rng):
    """u = {p, q} joined by a class of 1-3 wires, and 2-4 outside paths
    p -> m_i -> q carrying values near 1e±150: each outside vertex balances,
    but the products at q, and the boundary product taken in wire order,
    may leave the floating-point range."""
    k = rng.randint(2, 4)
    vs = ["p", "q"] + [f"m{i}" for i in range(k)]
    ids = rng.sample([f"w{i:02d}" for i in range(20)], 2 * k + 3)
    wires, f = [], {}
    for i in range(k):
        z = complex(10.0 ** rng.choice((-150, 150, 150)), 0)
        wires += [(ids[2 * i], "p", f"m{i}"), (ids[2 * i + 1], f"m{i}", "q")]
        f[ids[2 * i]] = f[ids[2 * i + 1]] = z
    inner = ids[2 * k:2 * k + rng.randint(1, 3)]
    wires += [(wid, *rng.choice((("p", "q"), ("q", "p")))) for wid in inner]
    rng.shuffle(wires)
    return diag(vs, wires), f, ["p", "q"], wires, set(inner)


def _component_count(vertices, wires):
    """Number of connected components of the graph on vertices and wires."""
    comp = {v: v for v in vertices}

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    for _, t, h in wires:
        comp[find(t)] = find(h)
    return len({find(v) for v in vertices})
