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
