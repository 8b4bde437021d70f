"""Id checks: every vertex, wire or slot id a caller passes is looked up by
hash (semigraph.known_ids), so each check is one pass, and it answers
exactly as a linear search of the diagram's ids did."""

import random
import sys

import pytest

from tdr.decompose import monodromy
from tdr.errors import TdrError
from tdr.flows import extend_flow, verify_partial_flow
from tdr.generate import gen_random
from tdr.representation import reverse_wire_rep, validate_representation
from tdr.semigraph import (
    SubdiagramRef,
    TensorDiagram,
    Wire,
    degree,
    isolate_subdiagram,
    known_ids,
    neighborhood,
    restrict,
    reverse_wire,
    slot_keys,
    slots,
    split_vertex,
    subdiagram_ref,
    validate_diagram,
)


class _Counted(str):
    """An id that counts its equality tests; hashed as the str it equals."""
    eqs = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        _Counted.eqs += 1
        return str.__eq__(self, other)


class _Sub(str):
    """A plain str subclass: equal to, and hashed as, its str."""


def _counted_cycle(n):
    """The directed n-cycle v0 -> v1 -> ... -> v0 on _Counted ids."""
    vs = [_Counted(f"v{i}") for i in range(n)]
    return validate_diagram(TensorDiagram(tuple(vs), tuple(
        Wire(_Counted(f"w{i}"), vs[i], vs[(i + 1) % n]) for i in range(n))))


def test_id_checks_compare_each_id_a_bounded_number_of_times():
    """At n = 400 each call makes at most 10n id comparisons, the passed
    ids being equal copies of the diagram's, not the same objects; a
    linear search of the ids made 81,400 to 239,800."""
    n = 400
    d = _counted_cycle(n)
    vs = [_Counted(str(v)) for v in d.vertices]
    ws = [_Counted(w.id) for w in d.wires]
    # every other vertex around the cycle, so T[u] has no wires
    u = [_Counted(f"v{i}") for i in range(0, n, 2)]
    calls = {
        "reverse_wire": lambda: reverse_wire(d, *ws),
        "subdiagram_ref": lambda: subdiagram_ref(d, u),
        "restrict": lambda: restrict(d, SubdiagramRef(tuple(vs), tuple(ws))),
        "extend_flow": lambda: extend_flow(d, {w: 1 for w in ws}, u),
    }
    counts = {}
    for name, call in calls.items():
        _Counted.eqs = 0
        out = call()
        counts[name] = _Counted.eqs
        assert out is not None
    assert max(counts.values()) <= 10 * n, counts


def _linear_known_ids(pool, ids, error, what):
    """known_ids as a linear search of pool, the reference: an id is known
    when it equals one in pool.  It returns a set, as its callers read it."""
    pool = list(pool)
    try:
        ids = list(ids)
    except TypeError:
        raise error(f"{ids!r} is not a collection of {what}") from None
    for i in ids:
        if i not in pool:
            raise error(f"{i!r} is not among the {what}")
    return set(ids)


def _outcome(call):
    """("value", the value) or (error class, message); a Representation is
    read as its fields."""
    try:
        out = call()
    except TdrError as exc:
        return type(exc), str(exc)
    if hasattr(out, "tensors"):
        out = (out.diagram, dict(out.dims), dict(out.tensors))
    return "value", out


# a path with a loop, a dangling end and an endpointless wire; a closed
# diagram with a loop and parallel wires; the 3-cycle, for monodromy
_OPEN = validate_diagram({"vertices": ["a", "b", "c"], "wires": [
    {"id": "e0", "tail": None, "head": "a"},
    {"id": "e1", "tail": "a", "head": "b"},
    {"id": "e2", "tail": "b", "head": "c"},
    {"id": "l", "tail": "b", "head": "b"},
    {"id": "z", "tail": None, "head": None}]})
_CLOSED = validate_diagram({"vertices": ["a", "b", "c"], "wires": [
    {"id": "e1", "tail": "a", "head": "b"},
    {"id": "e2", "tail": "b", "head": "a"},
    {"id": "e3", "tail": "b", "head": "c"},
    {"id": "e4", "tail": "c", "head": "a"},
    {"id": "l", "tail": "c", "head": "c"}]})
_CYCLE = validate_diagram({"vertices": ["v1", "v2", "v3"], "wires": [
    {"id": "e1", "tail": "v1", "head": "v2"},
    {"id": "e2", "tail": "v2", "head": "v3"},
    {"id": "e3", "tail": "v3", "head": "v1"}]})


def _one_id(rng, known):
    """A known id (maybe as a str subclass), an unknown one, an unhashable
    one, or one of another type."""
    k = rng.choice(known)
    return rng.choice([
        k, k, k, _Sub(k), _Counted(k), k + "x", "", "zz", "a·1",
        [k], {k: 1}, {k}, (k,), 1, None, 1.5, True, frozenset([k])])


def _ids(rng, known):
    """A factory of an id collection: known ids, some repeated, mixed with
    the cases of _one_id, in a list, tuple, set, dict, generator or str,
    or something that is not a collection at all."""
    k = rng.randrange(4)
    items = [rng.choice(known) if rng.random() < 0.7 else _one_id(rng, known)
             for _ in range(k)]
    kind, junk = rng.randrange(9), rng.choice([None, 5, 1.5, True])
    if kind == 0:
        return lambda: junk
    if kind == 1:
        return lambda: known[0]   # a str: its characters
    if kind == 2:
        return lambda: (i for i in items)
    if kind == 3:
        return lambda: {i: 0 for i in items if _hashable(i)}
    if kind == 4:
        return lambda: {i for i in items if _hashable(i)}
    if kind == 5:
        return lambda: tuple(items)
    return lambda: list(items)


def _hashable(x):
    try:
        hash(x)
    except TypeError:
        return False
    return True


def _part_pair(rng, d, v):
    """Two parts of v's slots: a partition, each slot maybe named by its
    wire id, or with a slot moved, dropped or replaced by junk."""
    keys = slot_keys(slots(d)[v])
    parts = ([], [])
    for key in keys:
        parts[rng.randrange(2)].append(key[0] if rng.random() < 0.3 else key)
    if rng.random() < 0.4:
        junk = rng.choice([(keys[0][0], "side") if keys else ("e1", "tail"),
                           "zz", [keys[0][0]] if keys else ["a"], None, 3,
                           _Sub(keys[0][0]) if keys else "q"])
        parts[rng.randrange(2)].append(junk)
    if rng.random() < 0.1:
        return parts[0], 7
    return parts


def _cases(rng):
    """(entry point, thunk) pairs over the three diagrams."""
    out = []
    reps = {"open": gen_random(_OPEN, {"e0": 1, "e1": 2, "e2": 1, "l": 2,
                                       "z": 1}, 3).rep,
            "cycle": gen_random(_CYCLE, {"e1": 2, "e2": 2, "e3": 2}, 5).rep}
    for _ in range(60):
        for d in (_OPEN, _CLOSED):
            vids = list(d.vertices)
            wids = [w.id for w in d.wires]
            v, w = _one_id(rng, vids), _one_id(rng, wids)
            out += [("wire", lambda d=d, w=w: d.wire(w)),
                    ("neighborhood", lambda d=d, v=v: neighborhood(d, v)),
                    ("degree", lambda d=d, v=v: degree(d, v))]
            ws = _ids(rng, wids)
            out.append(("reverse_wire",
                        lambda d=d, ws=ws: reverse_wire(d, *_star(ws()))))
            vs = _ids(rng, vids)
            out.append(("subdiagram_ref",
                        lambda d=d, vs=vs: subdiagram_ref(d, vs())))
            sv = rng.choice(vids) if rng.random() < 0.8 else v
            p1, p2 = _part_pair(rng, d, sv if sv in vids else "a")
            out.append(("split_vertex", lambda d=d, sv=sv, p1=p1, p2=p2:
                        split_vertex(d, sv, p1, p2)))
            if rng.random() < 0.5:
                ref_ws = lambda d=d, vs=vs: _induced(d, vs())
            else:
                ref_ws = _ids(rng, wids)
            for name, f in (("restrict", restrict),
                            ("isolate_subdiagram", isolate_subdiagram)):
                out.append((name, lambda d=d, f=f, vs=vs, ws=ref_ws:
                            f(d, SubdiagramRef(vs(), ws()))))
        us = _ids(rng, list(_CLOSED.vertices))
        for name, f in (("extend_flow", extend_flow),
                        ("verify_partial_flow", verify_partial_flow)):
            out.append((name, lambda f=f, us=us: f(_CLOSED, _ones(us()), us())))
        ws = _ids(rng, [w.id for w in _OPEN.wires])
        out.append(("reverse_wire_rep", lambda ws=ws: reverse_wire_rep(
            reps["open"], *_star(ws()))))
        base = _one_id(rng, ["e1", "e2", "e3"])
        out.append(("monodromy", lambda b=base: monodromy(reps["cycle"], b)))
        key = rng.choice(["zz", "a·1", "a", _Sub("a"), _Counted("q"), 1, None,
                          ("a",), frozenset("a")])
        out.append(("tensor at an unknown vertex",
                     lambda key=key: validate_representation(
                         _OPEN, reps["open"].dims,
                         {**reps["open"].tensors, key: reps["open"].tensors["a"]})))
    return out


def _star(ids):
    """ids spread as positional ids; a non-iterable one stays one id."""
    try:
        return list(ids)
    except TypeError:
        return [ids]


def _induced(d, vs):
    try:
        return subdiagram_ref(d, vs).wires
    except TdrError:
        return ()


def _ones(us):
    """The all-ones flow outside T[us] on _CLOSED, or none when us is bad."""
    try:
        ref = subdiagram_ref(_CLOSED, us)
    except TdrError:
        return {}
    return {w.id: 1 for w in _CLOSED.wires if w.id not in ref.wires}


def test_hashed_id_checks_agree_with_the_linear_search(monkeypatch):
    """Every id-checking entry point, on seeded known, unknown, repeated,
    unhashable and str-subclass ids and on collections that are not
    collections, gives the same value, or the same error class and
    message, as it does with the linear search patched in; the corpus
    reaches both a value and a refusal at every entry point."""
    cases = _cases(random.Random(35))
    mods = [m for name, m in list(sys.modules.items())
            if name.startswith("tdr") and getattr(m, "known_ids", None) is known_ids]
    assert len(mods) >= 4   # semigraph, flows, representation, decompose
    with monkeypatch.context() as patch:
        for m in mods:
            patch.setattr(m, "known_ids", _linear_known_ids)
        expected = [_outcome(call) for _, call in cases]
    got = [_outcome(call) for _, call in cases]
    reached = {}
    for (name, _), want, have in zip(cases, expected, got):
        assert have == want, name
        reached.setdefault(name, set()).add(have[0] == "value")
    assert {name for name, kinds in reached.items()
            if kinds != {True, False}} == set()


def test_hand_built_diagrams_with_unhashable_ids_are_refused():
    """A diagram that no check has passed, with an unhashable vertex or
    wire id, is a TdrError at each entry point that looks that id up."""
    dv = TensorDiagram(("a", ["b"]), (Wire("e", "a", "a"),))
    dw = TensorDiagram(("a",), (Wire("e", "a", None), Wire(["f"], "a", "a")))
    calls = [
        lambda: neighborhood(dv, "a"),
        lambda: degree(dv, "a"),
        lambda: split_vertex(dv, "a", ["e"], []),
        lambda: subdiagram_ref(dv, ["a"]),
        lambda: restrict(dv, SubdiagramRef(("a",), ("e",))),
        lambda: isolate_subdiagram(dv, SubdiagramRef(("a",), ("e",))),
        lambda: extend_flow(dv, {}, ["a"]),
        lambda: verify_partial_flow(dv, {}, ["a"]),
        lambda: dw.wire("e"),
        lambda: reverse_wire(dw, "e"),
        lambda: split_vertex(dw, "a", ["e"], [["f"]]),
        lambda: restrict(dw, SubdiagramRef(("a",), ("e",))),
        lambda: isolate_subdiagram(dw, SubdiagramRef(("a",), ("e",))),
    ]
    for call in calls:
        with pytest.raises(TdrError, match="cannot be hashed"):
            call()
