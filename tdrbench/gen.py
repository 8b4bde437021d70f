"""Seeded inputs for every workload, built with the stdlib and fractions only.

Each generator returns a JSON-able dict holding the program's inputs and
the expected answers, which are known from the construction: planted
block multisets, an independent contraction, or a property the method
must have.  Nothing here imports tdr.
"""

import cmath
import json
import os
import random

from qla import (
    F, ONE, base_change, block_diag, companion, contract_value, flat_from,
    fmt_q, identity, inverse, is_irreducible, matmul, poly_pow, prod,
    rand_invertible, rand_nonzero_q, rand_q, rep_record, slots_of, zeros,
)

# distinct inputs per round; a run repeats whole rounds of them
POOL = {
    "tame-cycles": 144,
    "open-paths": 60,
    "closed-contract": 240,
}


def rng_for(workload, seed):
    return random.Random(f"tdrbench:{workload}:{seed}")


def template_rng(workload):
    """Shapes, block types and sizes come from a fixed stream, so that every
    seed gives a round of the same make-up; the seed draws the values."""
    return random.Random(f"tdrbench:{workload}:templates")


# ---------------------------------------------------------------------------
# blocks on cycles and closed paths

def rand_irreducible(rng, deg):
    """Monic irreducible with nonzero constant term, checked apart from tdr."""
    if deg == 1:
        return [-rand_nonzero_q(rng, -4, 4, (1, 2)), ONE]
    if deg == 4:
        prime = rng.choice((2, 3))
        while True:
            low = [F(prime * rng.randint(-2, 2)) for _ in range(3)]
            a0 = F(prime * rng.choice((-2, -1, 1, 2)))
            p = [a0] + low + [ONE]
            if is_irreducible(p):
                return p
    while True:
        p = ([rand_nonzero_q(rng, -3, 3, (1,))]
             + [rand_q(rng, -3, 3, (1,)) for _ in range(deg - 1)] + [ONE])
        if is_irreducible(p):
            return p


def string_grades(start, length, n):
    """0-based grade of each chain vector of String(start, length) on n grades."""
    return [(start - 1 + j) % n for j in range(length)]


def block_grade_dims(block, n):
    if block[0] == "band":
        deg = block[1] if isinstance(block[1], int) else len(block[1]) - 1
        return [deg * block[2]] * n
    dims = [0] * n
    for g in string_grades(block[1], block[2], n):
        dims[g] += 1
    return dims


def block_arcs(block, n):
    """Per-grade dims and arcs (grade g -> g+1 mod n) of one cycle block."""
    dims = block_grade_dims(block, n)
    if block[0] == "band":
        c = companion(poly_pow(block[1], block[2]))
        m = len(c)
        arcs = [identity(m) for _ in range(n - 1)] + [c]
        return dims, arcs
    grades = string_grades(block[1], block[2], n)
    index, seen = [], [0] * n
    for g in grades:
        index.append(seen[g])
        seen[g] += 1
    arcs = [zeros(dims[(g + 1) % n], dims[g]) for g in range(n)]
    for j in range(len(grades) - 1):
        g = grades[j]
        arcs[g][index[j + 1]][index[j]] = ONE
    return dims, arcs


def cycle_diagram(family, n):
    vs = [f"v{i}" for i in range(1, n + 1)]
    if family == "J":
        wires = [{"id": f"e{i}", "tail": vs[i - 1], "head": vs[i % n]}
                 for i in range(1, n + 1)]
    else:
        wires = [{"id": f"e{i}", "tail": vs[i - 1], "head": vs[i]}
                 for i in range(1, n)]
    return vs, wires


def cycle_rep(family, n, blocks, rng):
    """Record of the direct sum of cycle blocks under a random base change.

    On P the last grade is the pinned scalar slot: it carries dimension 1,
    from the one block covering it or else from the zero simple there.
    """
    parts = [block_arcs(b, n) for b in blocks]
    dims = [sum(p[0][g] for p in parts) for g in range(n)]
    if family == "P" and dims[n - 1] == 0:
        pd = [0] * (n - 1) + [1]
        parts.append((pd, [zeros(pd[(g + 1) % n], pd[g]) for g in range(n)]))
        dims[n - 1] = 1
    arcs = [block_diag([(p[1][g], p[0][(g + 1) % n], p[0][g]) for p in parts],
                       dims[(g + 1) % n], dims[g]) for g in range(n)]
    vs, wires = cycle_diagram(family, n)
    if family == "J":
        tensors = {vs[(g + 1) % n]: arcs[g] for g in range(n)}
    else:
        tensors = {vs[g + 1]: arcs[g] for g in range(n - 1)}
        tensors[vs[0]] = arcs[n - 1]
    wdims = {w["id"]: dims[k] for k, w in enumerate(wires)}
    flat = {v: [x for row in m for x in row] for v, m in tensors.items()}
    gs = {wid: rand_invertible(rng, d) for wid, d in wdims.items()}
    flat = base_change(wires, wdims, flat, gs)
    return rep_record(vs, wires, wdims, flat)


def block_answer(block):
    if block[0] == "band":
        return ["band", [fmt_q(c) for c in block[1]], block[2]]
    if block[0] == "string":
        return ["string", block[1], block[2]]
    return ["interval", block[1], block[2]]


def answer(blocks):
    """Planted multiset as sorted [descriptor, multiplicity] pairs."""
    counts = {}
    for b in blocks:
        key = json.dumps(block_answer(b))
        counts[key] = counts.get(key, 0) + 1
    return sorted([json.loads(k), m] for k, m in counts.items())


def draw_cycle_blocks(trng, rng, family, n, cap):
    """Bands and strings whose dims stay within cap on every wire.

    trng picks the block types and sizes, rng the band polynomials.
    """
    return [("band", rand_irreducible(rng, b[1]), b[2]) if b[0] == "band" else b
            for b in _cycle_templates(trng, family, n, cap)]


def _cycle_templates(rng, family, n, cap):
    """Block templates: ("band", degree, power) or ("string", start, length)."""
    room = [cap] * n
    blocks = []
    if family == "P":
        room[n - 1] = 1
        pin = rng.choice(("band", "string", "none"))
        if pin == "band":
            blocks.append(("band", 1, 1))
        elif pin == "string":
            for _ in range(20):
                b = ("string", rng.randint(1, n), rng.randint(1, 2 * n - 1))
                if block_grade_dims(b, n)[n - 1] == 1 and b != ("string", n, 1):
                    blocks.append(b)
                    break
        for b in blocks:
            room = [r - x for r, x in zip(room, block_grade_dims(b, n))]
        room[n - 1] = 0
        tries = 0
        while tries < 30 and n > 1:
            tries += 1
            b = ("string", rng.randint(1, n - 1), rng.randint(1, n - 1))
            need = block_grade_dims(b, n)
            if all(x <= r for x, r in zip(need, room)):
                blocks.append(b)
                room = [r - x for r, x in zip(room, need)]
        return blocks
    misses = 0
    while misses < 12:
        if rng.random() < 0.55:
            deg = rng.choice((1, 1, 2, 2, 3, 4))
            b = ("band", deg, rng.randint(1, 3))
        else:
            b = ("string", rng.randint(1, n), rng.randint(1, 2 * n))
        need = block_grade_dims(b, n)
        if all(x <= r for x, r in zip(need, room)):
            blocks.append(b)
            room = [r - x for r, x in zip(room, need)]
            misses = 0
        else:
            misses += 1
    return blocks


def gen_tame_cycles(seed, pool):
    rng, trng = rng_for("tame-cycles", seed), template_rng("tame-cycles")
    cases = []
    shapes = [("J", n) for n in range(1, 6)] + [("P", n) for n in range(2, 6)]
    for k in range(pool):
        family, n = shapes[k % len(shapes)]
        blocks = draw_cycle_blocks(trng, rng, family, n, 7)
        cases.append({"rep": cycle_rep(family, n, blocks, rng),
                      "family": family, "n": n, "expect": answer(blocks)})
    return {"cases": cases}


# ---------------------------------------------------------------------------
# open paths

def path_rep(family, n, intervals, rng):
    """Record of an interval sum on A0_n / A1_n, base-changed and with each
    wire reversed with probability one half."""
    m = n + 1
    dims = [sum(1 for a, b in intervals if a <= p <= b) for p in range(1, m + 1)]
    if family == "A1" and dims[m - 1] == 0:
        dims[m - 1] = 1
        intervals = intervals + [(m, m)]
    # arcs[i] maps position i+1 to i+2 (1-based positions)
    arcs = []
    for i in range(1, m):
        a = zeros(dims[i], dims[i - 1])
        src = [k for k, (lo, hi) in enumerate(intervals) if lo <= i <= hi]
        dst = [k for k, (lo, hi) in enumerate(intervals) if lo <= i + 1 <= hi]
        for c, k in enumerate(src):
            if k in dst:
                a[dst.index(k)][c] = ONE
        arcs.append(a)
    vs = [f"v{i:02d}" for i in range(1, n + 1)]
    nw = m if family == "A0" else n
    es = [f"e{i:02d}" for i in range(1, nw + 1)]
    wires = []
    for i, e in enumerate(es):
        tail = vs[i - 1] if i > 0 else None
        head = vs[i] if i < n else None
        wires.append({"id": e, "tail": tail, "head": head})
    wdims = {e: dims[i] for i, e in enumerate(es)}
    gs = {e: rand_invertible(rng, d) for e, d in wdims.items()}
    # co-oriented, v_i's tensor is arc i: rows the wire after v_i, cols the one before
    logical = {v: [x for row in arcs[i] for x in row] for i, v in enumerate(vs)}
    logical = base_change(wires, wdims, logical, gs)
    flipped = [{"id": w["id"], "tail": w["head"], "head": w["tail"]}
               if rng.random() < 0.5 else w for w in wires]
    tensors = {}
    for i, v in enumerate(vs):
        after = es[i + 1] if i + 1 < nw else None
        out_ids, in_ids = slots_of(flipped, v)
        tensors[v] = flat_from(out_ids, in_ids, wdims, _arc_entry(
            logical[v], dims[i], out_ids, in_ids, es[i], after))
    return rep_record(vs, flipped, wdims, tensors)


def _arc_entry(flat, cols, out_ids, in_ids, before, after):
    """Entry of a path arc at a slot assignment, whichever way its wires
    point: reversing a wire moves entries, never changes them."""
    def value(ri, ci):
        idx = dict(zip(out_ids, ri))
        idx.update(zip(in_ids, ci))
        row = idx[after] if after is not None else 0
        return flat[row * cols + idx[before]]
    return value


def draw_intervals(rng, family, n, cap):
    m = n + 1
    room = [cap] * m
    if family == "A1":
        room[m - 1] = 1
    out = []
    misses = 0
    while misses < 10:
        a = rng.randint(1, m)
        b = rng.randint(a, m)
        if family == "A1" and (a, b) == (m, m):
            misses += 1
            continue
        if all(room[p - 1] >= 1 for p in range(a, b + 1)):
            out.append((a, b))
            for p in range(a, b + 1):
                room[p - 1] -= 1
            misses = 0
        else:
            misses += 1
    return out


def gen_open_paths(seed, pool):
    rng, trng = rng_for("open-paths", seed), template_rng("open-paths")
    cases = []
    sizes = [8, 9, 10, 11, 12]
    for k in range(pool):
        family = "A0" if k % 2 == 0 else "A1"
        n = sizes[(k // 2) % len(sizes)]
        ivs = draw_intervals(trng, family, n, 5)
        blocks = [("interval", a, b) for a, b in ivs]
        cases.append({"rep": path_rep(family, n, ivs, rng),
                      "family": family, "n": n, "expect": answer(blocks)})
    return {"cases": cases}


# ---------------------------------------------------------------------------
# closed networks

def rand_network(rng, nv):
    """Connected closed multigraph; degrees 2-4 (mostly 3-4), loops allowed."""
    while True:
        vs = [f"v{i}" for i in range(1, nv + 1)]
        degs = [rng.choice((2, 3, 3, 4, 4)) for _ in vs]
        if sum(degs) % 2:
            degs[0] += 1 if degs[0] < 4 else -1
        stubs = [v for v, d in zip(vs, degs) for _ in range(d)]
        rng.shuffle(stubs)
        wires = []
        for k in range(0, len(stubs), 2):
            a, b = stubs[k], stubs[k + 1]
            if rng.random() < 0.5:
                a, b = b, a
            wires.append({"id": f"w{k // 2 + 1:02d}", "tail": a, "head": b})
        parent = {v: v for v in vs}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for w in wires:
            parent[find(w["tail"])] = find(w["head"])
        if len({find(v) for v in vs}) == 1:
            return vs, wires


def _max_frontier(vs, wires, dims):
    """Largest product of open-wire dims while absorbing vertices in name
    order: a cap on what the benchmark's own contraction has to hold."""
    seen = set()
    worst = 1
    for v in vs:
        seen.add(v)
        open_dims = [dims[w["id"]] for w in wires
                     if (w["tail"] in seen) != (w["head"] in seen)]
        worst = max(worst, prod(open_dims))
    return worst


def gen_closed_contract(seed, pool):
    """Half the pool are networks; the other half the same networks after a
    random base change, which must contract to the same value."""
    rng, trng = rng_for("closed-contract", seed), template_rng("closed-contract")
    cases = []
    for k in range(pool // 2):
        nv = 4 + k % 5
        while True:
            vs, wires = rand_network(trng, nv)
            dims = {w["id"]: trng.choice((2, 2, 3, 3, 4)) for w in wires}
            sizes = [prod(dims[w] for w in sum(slots_of(wires, v), []))
                     for v in vs]
            if max(sizes) <= 256 and _max_frontier(vs, wires, dims) <= 4096:
                break
        tensors = {}
        for v, size in zip(vs, sizes):
            tensors[v] = [rand_q(rng, -3, 3, (1, 1, 2)) for _ in range(size)]
        value = contract_value(vs, wires, dims, tensors)
        gs = {wid: rand_invertible(rng, d) for wid, d in dims.items()}
        moved = base_change(wires, dims, tensors, gs)
        for t in (tensors, moved):
            cases.append({"rep": rep_record(vs, wires, dims, t),
                          "expect": fmt_q(value)})
    return {"cases": cases}


# ---------------------------------------------------------------------------
# CLI session

def canonical_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def alias(family, n, block):
    if family != "P":
        return None
    if block[0] == "band" and len(block[1]) == 2 and block[2] == 1:
        return f"V({fmt_q(-block[1][0])})"
    if block[0] == "string":
        start, length = block[1], block[2]
        if length == 1 and start <= n - 1:
            return f"V0({start})"
        if start == 1 and n < length <= 2 * n - 1:
            return f"W({length - n})"
    return None


def _sort_key(block):
    if block[0] == "interval":
        return (0, block[1], block[2])
    if block[0] == "band":
        return (1, len(block[1]) - 1, tuple(block[1]), block[2])
    return (2, block[1], block[2])


def decomposition_record(family, n, blocks):
    """The documented `tdr decompose` output for a planted multiset."""
    counts = {}
    order = []
    for b in blocks:
        key = json.dumps(block_answer(b))
        if key not in counts:
            order.append(b)
        counts[key] = counts.get(key, 0) + 1
    out = []
    for b in sorted(order, key=_sort_key):
        mult = counts[json.dumps(block_answer(b))]
        if b[0] == "interval":
            entry = {"type": "interval", "a": b[1], "b": b[2], "mult": mult}
        elif b[0] == "band":
            entry = {"type": "band", "poly": [fmt_q(c) for c in b[1]],
                     "power": b[2], "mult": mult, "field": "Q"}
        else:
            entry = {"type": "string", "start": b[1], "len": b[2], "mult": mult}
        a = alias(family, n, b)
        if a is not None:
            entry["alias"] = a
        out.append(entry)
    return out


def classify_record(vertices, wires):
    """Expected `tdr classify` output from the slot-degree rule and an own
    walk that tells paths from cycles."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for w in wires:
        if w["tail"] is not None and w["head"] is not None:
            ra, rb = find(w["tail"]), find(w["head"])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for v in sorted(vertices):
        groups.setdefault(find(v), []).append(v)
    comps = []
    for members in groups.values():
        mset = set(members)
        cw = sorted(w["id"] for w in wires
                    if w["tail"] in mset or w["head"] in mset)
        comps.append((sorted(members), cw))
    comps.sort(key=lambda c: tuple(c[0] + c[1]))
    by_id = {w["id"]: w for w in wires}
    out = []
    for members, cw in comps:
        entry = {"component": members + cw}
        witness = None
        for v in members:
            loops = sorted(x for x in cw if by_id[x]["tail"] == v == by_id[x]["head"])
            plain = sorted([x for x in cw if by_id[x]["tail"] == v
                            and by_id[x]["head"] != v]
                           + [x for x in cw if by_id[x]["head"] == v
                              and by_id[x]["tail"] != v])
            if 2 * len(loops) + len(plain) >= 3:
                if len(loops) >= 2:
                    witness = ("figure-eight", v, loops[:2])
                elif loops:
                    witness = ("needle", v, [loops[0], plain[0]])
                else:
                    witness = ("open-claw", v, plain[:3])
                break
        if witness is not None:
            entry["class"] = "wild"
            entry["witness"] = {"kind": witness[0], "vertex": witness[1],
                                "wires": witness[2]}
        else:
            entry.update(_path_or_cycle(members, [by_id[x] for x in cw]))
        out.append(entry)
    return {"components": out}


def _path_or_cycle(members, cwires):
    """Walk a component whose vertices carry at most two slots each."""
    dangling = [w for w in cwires if (w["tail"] is None) != (w["head"] is None)]
    n = len(members)
    if dangling:
        return {"class": "finite", "family": "A0" if len(dangling) == 2 else "A1",
                "n": n}
    # closed: a cycle when walking from any vertex returns to it
    if not cwires:
        return {"class": "tame", "family": "P", "n": n}
    start = members[0]
    prev = None
    v = start
    for _ in range(len(cwires) + 1):
        nxt = [w for w in cwires if v in (w["tail"], w["head"])
               and w is not prev]
        if not nxt:
            return {"class": "tame", "family": "P", "n": n}
        prev = nxt[0]
        v = prev["head"] if prev["tail"] == v else prev["tail"]
        if v == start:
            return {"class": "tame", "family": "J", "n": n}
    return {"class": "tame", "family": "P", "n": n}


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _multi_diagram(trng, rng):
    """A path, a closed path, a cycle, an isolated vertex and a wild piece."""
    vs, ws = [], []
    n = trng.randint(2, 4)
    pv = [f"a{i}" for i in range(n)]
    vs += pv
    ws.append({"id": "a_in", "tail": None, "head": pv[0]})
    ws += [{"id": f"a{i}", "tail": pv[i - 1], "head": pv[i]} for i in range(1, n)]
    if trng.random() < 0.5:
        ws.append({"id": "a_out", "tail": pv[-1], "head": None})
    k = trng.randint(1, 4)
    cv = [f"c{i}" for i in range(k)]
    vs += cv
    ws += [{"id": f"c{i}", "tail": cv[i], "head": cv[(i + 1) % k]}
           for i in range(k)]
    m = trng.randint(2, 4)
    qv = [f"p{i}" for i in range(m)]
    vs += qv
    ws += [{"id": f"p{i}", "tail": qv[i], "head": qv[i + 1]} for i in range(m - 1)]
    vs.append("z0")
    vs.append("w0")
    ws.extend(_wild_star(trng, "w0", "w"))
    for w in ws:
        if w["tail"] is not None and w["head"] is not None and rng.random() < 0.3:
            w["tail"], w["head"] = w["head"], w["tail"]
    rng.shuffle(ws)
    rng.shuffle(vs)
    return {"vertices": vs, "wires": ws}


def _wild_star(rng, v, prefix):
    kind = rng.choice(("claw", "needle", "eight"))
    if kind == "claw":
        return [{"id": f"{prefix}{i}", "tail": v if i % 2 else None,
                 "head": None if i % 2 else v} for i in range(rng.randint(3, 4))]
    if kind == "needle":
        return [{"id": f"{prefix}0", "tail": v, "head": v},
                {"id": f"{prefix}1", "tail": None, "head": v}]
    return [{"id": f"{prefix}0", "tail": v, "head": v},
            {"id": f"{prefix}1", "tail": v, "head": v}]


def _wild_diagram(rng):
    vs, ws = [], []
    for k in range(3):
        v = f"x{k}"
        vs.append(v)
        ws.extend(_wild_star(rng, v, f"x{k}_"))
    return {"vertices": vs, "wires": ws}


def _circulation(rng, vs, wires):
    """Multiplicative flow: exp of a random circulation on fundamental cycles."""
    tree_parent = {vs[0]: None}
    order = [vs[0]]
    tree_wires = set()
    for v in order:
        for w in wires:
            for a, b in ((w["tail"], w["head"]), (w["head"], w["tail"])):
                if a == v and b not in tree_parent:
                    tree_parent[b] = (v, w)
                    tree_wires.add(w["id"])
                    order.append(b)
    x = {w["id"]: 0j for w in wires}

    def path_to_root(v):
        out = []
        while tree_parent[v] is not None:
            p, w = tree_parent[v]
            out.append((w, v))
            v = p
        return out

    for w in wires:
        if w["id"] in tree_wires:
            continue
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-2.5, 2.5))
        x[w["id"]] += z
        if w["tail"] == w["head"]:
            continue
        # close the cycle: from head back to tail through the tree
        for tw, child in path_to_root(w["head"]):
            x[tw["id"]] += z if tw["tail"] == child else -z
        for tw, child in path_to_root(w["tail"]):
            x[tw["id"]] += z if tw["head"] == child else -z
    return {wid: cmath.exp(val) for wid, val in x.items()}


def _flow_case(trng, rng):
    nv = trng.randint(4, 6)
    vs = [f"u{i}" for i in range(nv)]
    wires = []
    for i in range(1, nv):
        wires.append({"id": f"f{len(wires):02d}", "tail": vs[trng.randrange(i)],
                      "head": vs[i]})
    for _ in range(trng.randint(2, 4)):
        a, b = trng.choice(vs), trng.choice(vs)
        wires.append({"id": f"f{len(wires):02d}", "tail": a, "head": b})
    for w in wires:
        if rng.random() < 0.5:
            w["tail"], w["head"] = w["head"], w["tail"]
    flow = _circulation(rng, vs, wires)
    u = sorted(trng.sample(vs, trng.randint(1, 3)))
    inner = {w["id"] for w in wires if w["tail"] in u and w["head"] in u}
    fixed = {wid: [z.real, z.imag] for wid, z in flow.items() if wid not in inner}
    return {"vertices": vs, "wires": wires}, {"wires": fixed, "u": u}


def _int_matrix(rng, n):
    return [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]


def gen_cli_session(seed, workdir, sessions=4):
    """Writes the request files into workdir; returns the request list.

    A round is `sessions` runs of the same 17 kinds of request, each on its
    own files.  Each request carries its argv and what its check needs.
    """
    rng, trng = rng_for("cli-session", seed), template_rng("cli-session")
    reqs = []
    for k in range(sessions):
        reqs += _cli_requests(trng, rng, os.path.join(workdir, f"s{k}_"))
    return {"requests": reqs}


def _cli_requests(trng, rng, prefix):
    reqs = []

    def path(name):
        return prefix + name

    d = _multi_diagram(trng, rng)
    _write(path("multi.json"), d)
    reqs.append({"argv": ["classify", path("multi.json")], "check": "json",
                 "code": 0, "expect": classify_record(d["vertices"], d["wires"])})
    d = _wild_diagram(trng)
    _write(path("wild.json"), d)
    reqs.append({"argv": ["classify", path("wild.json")], "check": "json",
                 "code": 0, "expect": classify_record(d["vertices"], d["wires"])})

    planted = {}
    for family, n in (("A0", trng.randint(3, 6)), ("A1", trng.randint(3, 6)),
                      ("P", trng.randint(2, 4)), ("J", trng.randint(2, 4))):
        if family in ("A0", "A1"):
            ivs = draw_intervals(trng, family, n, 3)
            rec = path_rep(family, n, ivs, rng)
            blocks = [("interval", a, b) for a, b in ivs]
        else:
            blocks = draw_cycle_blocks(trng, rng, family, n, 4)
            if family == "J" and not any(b[0] == "band" for b in blocks):
                blocks[0:0] = [("band", rand_irreducible(rng, 1), 1)]
            rec = cycle_rep(family, n, blocks, rng)
        planted[family] = (n, blocks, rec)
        name = f"dec_{family}.json"
        _write(path(name), rec)
        reqs.append({"argv": ["decompose", path(name)], "check": "json",
                     "code": 0, "expect": decomposition_record(family, n, blocks)})

    # a wild representation: v1 carries a loop and two wires to v2
    vs = ["v1", "v2"]
    wires = [{"id": "w1", "tail": "v1", "head": "v1"},
             {"id": "w2", "tail": "v1", "head": "v2"},
             {"id": "w3", "tail": "v2", "head": "v1"}]
    dims = {w["id"]: trng.randint(1, 2) for w in wires}
    tensors = {v: [rand_q(rng) for _ in range(
        prod(dims[w] for w in sum(slots_of(wires, v), [])))] for v in vs}
    _write(path("wild_rep.json"), rep_record(vs, wires, dims, tensors))
    reqs.append({"argv": ["decompose", path("wild_rep.json")], "check": "json",
                 "code": 2, "expect": {"error": "wild"}})

    # isotest: same blocks under another base change, and a changed band
    n, blocks, rec = planted["J"]
    _write(path("iso_same.json"), cycle_rep("J", n, blocks, rng))
    k = next(i for i, b in enumerate(blocks) if b[0] == "band")
    band = blocks[k]
    while True:
        other = rand_irreducible(rng, len(band[1]) - 1)
        if other != band[1]:
            break
    changed = blocks[:k] + [("band", other, band[2])] + blocks[k + 1:]
    _write(path("iso_other.json"), cycle_rep("J", n, changed, rng))
    reqs.append({"argv": ["isotest", path("dec_J.json"), path("iso_same.json")],
                 "check": "json", "code": 0, "expect": {"isomorphic": True}})
    reqs.append({"argv": ["isotest", path("dec_J.json"), path("iso_other.json")],
                 "check": "json", "code": 0, "expect": {"isomorphic": False}})

    vs, wires = rand_network(trng, 4)
    dims = {w["id"]: trng.choice((1, 2, 2, 3)) for w in wires}
    tensors = {v: [rand_q(rng, -3, 3, (1, 1, 2)) for _ in range(
        prod(dims[w] for w in sum(slots_of(wires, v), [])))] for v in vs}
    _write(path("contract.json"), rep_record(vs, wires, dims, tensors))
    reqs.append({"argv": ["contract", path("contract.json")], "check": "json",
                 "code": 0,
                 "expect": {"value": fmt_q(contract_value(vs, wires, dims, tensors))}})

    # gen-random: generic on a wild diagram, sum mode on J and A1 with keys;
    # its own --seed sets which blocks it draws, so it is part of the make-up
    d = _wild_diagram(trng)
    _write(path("gen_wild.json"), d)
    gdims = {w["id"]: trng.randint(1, 2) for w in d["wires"]}
    reqs.append({"argv": ["gen-random", path("gen_wild.json"), "--dims",
                          json.dumps(gdims), "--seed", str(trng.randrange(1 << 30))],
                 "check": "generic", "code": 0, "diagram": d, "dims": gdims})
    for family, n in (("J", trng.randint(2, 4)), ("A1", trng.randint(3, 6))):
        if family == "J":
            vs, wires = cycle_diagram("J", n)
        else:
            vs = [f"v{i:02d}" for i in range(1, n + 1)]
            wires = [{"id": f"e{i + 1:02d}", "tail": vs[i - 1] if i else None,
                      "head": vs[i]} for i in range(n)]
        d = {"vertices": vs, "wires": wires}
        name = f"gen_{family}.json"
        _write(path(name), d)
        caps = {w["id"]: trng.randint(2, 4) for w in wires}
        key = path(f"key_{family}.json")
        reqs.append({"argv": ["gen-random", path(name), "--dims", json.dumps(caps),
                              "--seed", str(trng.randrange(1 << 30)),
                              "--mode", "sum", "--key-out", key],
                     "check": "sum", "code": 0, "family": family, "n": n,
                     "caps": caps, "key": key,
                     "positions": [w["id"] for w in wires]})

    # fmt: a scrambled representation, then its own output again
    n, blocks, rec = planted["A0"]
    canon = json.loads(json.dumps(rec))
    raw = json.loads(json.dumps(rec))
    raw["diagram"]["wires"].reverse()
    raw["diagram"]["vertices"].reverse()
    for cell in raw["vertices"].values():
        cell["entries"] = [[_unreduced(rng, x) for x in row] for row in cell["entries"]]
    canon["diagram"]["wires"].sort(key=lambda w: w["id"])
    canon["diagram"]["vertices"].sort()
    _write(path("fmt_raw.json"), raw)
    once = path("fmt_once.json")
    reqs.append({"argv": ["fmt", path("fmt_raw.json"), "--out", once],
                 "check": "fmt-out", "code": 0, "out": once,
                 "expect": canonical_json(canon)})
    reqs.append({"argv": ["fmt", once], "check": "fmt-again", "code": 0,
                 "out": once})

    d, flow = _flow_case(trng, rng)
    _write(path("flow_diag.json"), d)
    _write(path("flow.json"), flow)
    reqs.append({"argv": ["flow-extend", path("flow_diag.json"), path("flow.json")],
                 "check": "flow", "code": 0, "diagram": d, "fixed": flow["wires"]})

    size = trng.randint(2, 3)
    a1, b1 = _int_matrix(rng, size), _int_matrix(rng, size)
    p = rand_invertible(rng, size)
    pinv = inverse(p)
    a2 = matmul(matmul(p, a1), pinv)
    b2 = matmul(matmul(p, b1), pinv)
    grid = lambda m: [[fmt_q(x) for x in row] for row in m]
    _write(path("pairs.json"), {"A1": grid(a1), "B1": grid(b1),
                                "A2": grid(a2), "B2": grid(b2)})
    outdir = path("needles")
    reqs.append({"argv": ["wild-embed", path("pairs.json"), "--out", outdir],
                 "check": "wild-embed", "code": 0, "outdir": outdir,
                 "pairs": {"A1": grid(a1), "B1": grid(b1),
                           "A2": grid(a2), "B2": grid(b2)}})
    return reqs


def _unreduced(rng, s):
    """The same rational written unreduced, or as a JSON integer."""
    x = F(s)
    k = rng.randint(1, 3)
    if x.denominator == 1 and rng.random() < 0.5:
        return int(x)
    return f"{x.numerator * k}/{x.denominator * k}"


def generate(workload, seed, workdir, scale=1.0):
    """Inputs and expected answers of one workload; scale shrinks the pools
    (cli-session has a fixed list of requests)."""
    if workload == "cli-session":
        return gen_cli_session(seed, workdir)
    pool = max(2, int(POOL[workload] * scale)) // 2 * 2
    return {"tame-cycles": gen_tame_cycles, "open-paths": gen_open_paths,
            "closed-contract": gen_closed_contract}[workload](seed, pool)
