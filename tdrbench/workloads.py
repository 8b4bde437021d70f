"""Operations of each workload, and the checks on their outputs.

ingest() turns the generated records into tdr objects and returns a list
of Op: run() calls the program once, check() judges its output against
the answer known from the construction.  Only run() is timed.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from gen import canonical_json
from qla import inverse, matmul, prod, slots_of

WORKLOADS = ("tame-cycles", "open-paths", "closed-contract", "cli-session")

# Layers a workload must never reach: kernel and factoring changes must
# show no change on open-paths and closed-contract, and contraction
# changes none on the decompose workloads.
ISOLATION = {
    "tame-cycles": ("representation.contract.calls",),
    "open-paths": ("exactalg.rref.calls", "exactalg.factor_poly.calls",
                   "representation.contract.calls"),
    "closed-contract": ("exactalg.rref.calls", "exactalg.factor_poly.calls"),
}

# Layers a workload must reach: the positive control of the check above,
# since a function the tracer failed to wrap also reads 0 calls.
REACHES = {
    "tame-cycles": ("exactalg.rref.calls", "exactalg.factor_poly.calls",
                    "exactalg.matmul.calls", "decompose.decompose.calls"),
    "open-paths": ("exactalg.matmul.calls", "exactalg.rank.calls",
                   "representation.reverse_wire_rep.calls"),
    "closed-contract": ("representation.contract.calls",),
    "cli-session": ("cli.run.calls", "generate.gen_random.calls",
                    "flows.extend_flow.calls",
                    "wildness.needle_rep_from_pair.calls",
                    "representation.direct_sum.calls",
                    "representation.apply_group_element.calls"),
}


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def load_rep(tdr, rec):
    """A representation record as a tdr Representation, through the public API."""
    q = tdr.parse_rational
    tensors = {}
    for v, cell in rec["vertices"].items():
        data = tuple(tuple(q(x) for x in row) for row in cell["entries"])
        tensors[v] = tdr.Matrix(cell["rows"], cell["cols"], data)
    return tdr.validate_representation(rec["diagram"], rec["dims"], tensors)


def decomposition_answer(tdr, dec):
    """tdr's Decomposition in the generator's [descriptor, mult] form."""
    out = []
    for desc, mult in dec.blocks:
        kind = type(desc).__name__
        if kind == "Interval":
            d = ["interval", desc.a, desc.b]
        elif kind == "Band":
            d = ["band", [tdr.format_rational(c) for c in desc.poly.coeffs],
                 desc.power]
        else:
            d = ["string", desc.start, desc.length]
        out.append([d, mult])
    return sorted(out)


def _block_kinds(expect):
    return "+".join(sorted({d[0] for d, _ in expect})) or "zero"


def ingest(tdr, workload, data):
    if workload == "cli-session":
        return [_cli_op(tdr, req) for req in data["requests"]]
    ops = []
    for case in data["cases"]:
        rep = load_rep(tdr, case["rep"])
        expect = case["expect"]
        if workload == "closed-contract":
            ops.append(Op("contract", _call(tdr, "contract", rep),
                          lambda got, e=expect: tdr.format_rational(got) == e))
        else:
            kind = f"{case['family']}:{_block_kinds(expect)}"
            ops.append(Op(kind, _call(tdr, "decompose", rep),
                          lambda got, e=expect: decomposition_answer(tdr, got) == e))
    return ops


def _call(module, name, arg):
    """Looks the function up on every call, so that a traced run sees it."""
    return lambda: getattr(module, name)(arg)


# ---------------------------------------------------------------------------
# CLI session

def _cli_op(tdr, req):
    import tdr.cli as cli
    argv = list(req["argv"])

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            report = cli.run(argv)
        return report.exit_code, out.getvalue()

    # files are named s<session>_<name>; a kind is the same request in any session
    kind = argv[0] + ":" + os.path.basename(argv[1]).partition("_")[2]
    return Op(kind, run, lambda got: check_cli(req, got))


def check_cli(req, got):
    code, text = got
    if code != req["code"]:
        return False
    how = req["check"]
    if how == "json":
        return text == canonical_json(req["expect"])
    if how == "fmt-out":
        with open(req["out"], encoding="utf-8") as fh:
            return text == "" and fh.read() == req["expect"]
    if how == "fmt-again":
        with open(req["out"], encoding="utf-8") as fh:
            return text == fh.read()
    result = json.loads(text)
    if how == "generic":
        return _check_generic(req, result)
    if how == "sum":
        return _check_sum(req, result)
    if how == "flow":
        return _check_flow(req, result)
    if how == "wild-embed":
        return _check_wild_embed(req, result)
    raise ValueError(f"unknown check {how!r}")


def _check_generic(req, rec):
    """Shapes follow the slot-degree rule; entries are p/q with |p|, q <= 9."""
    if rec["dims"] != req["dims"]:
        return False
    wires = rec["diagram"]["wires"]
    if sorted(rec["vertices"]) != sorted(req["diagram"]["vertices"]):
        return False
    for v, cell in rec["vertices"].items():
        o, i = slots_of(wires, v)
        rows, cols = prod(req["dims"][w] for w in o), prod(req["dims"][w] for w in i)
        if (cell["rows"], cell["cols"]) != (rows, cols):
            return False
        if len(cell["entries"]) != rows or any(len(r) != cols for r in cell["entries"]):
            return False
        for row in cell["entries"]:
            for x in row:
                q = Fraction(x)
                if abs(q.numerator) > 9 or not 1 <= q.denominator <= 9:
                    return False
    return True


def _check_sum(req, rec):
    """Block dims of the emitted key, added per wire, equal the emitted dims
    and stay under the caps; at most one block covers a pinned position."""
    with open(req["key"], encoding="utf-8") as fh:
        key = json.load(fh)
    positions = req["positions"]
    n = req["n"]
    m = len(positions) + (1 if req["family"] == "A1" else 0)
    totals = [0] * m
    for entry in key:
        if entry["type"] == "interval":
            dims = [1 if entry["a"] <= p <= entry["b"] else 0 for p in range(1, m + 1)]
        elif entry["type"] == "band":
            dims = [(len(entry["poly"]) - 1) * entry["power"]] * m
        else:
            dims = [0] * m
            for j in range(entry["len"]):
                dims[(entry["start"] - 1 + j) % n] += 1
        totals = [t + d * entry["mult"] for t, d in zip(totals, dims)]
    if req["family"] == "A1" and totals[-1] > 1:
        return False
    for wid, total in zip(positions, totals):
        if rec["dims"][wid] != total or total > req["caps"][wid]:
            return False
    return True


def _check_flow(req, rec):
    """Every vertex condition holds within 1e-9; fixed wires are unchanged."""
    values = {w: complex(re, im) for w, (re, im) in rec["wires"].items()}
    wires = req["diagram"]["wires"]
    if sorted(values) != sorted(w["id"] for w in wires):
        return False
    for wid, (re, im) in req["fixed"].items():
        if values[wid] != complex(re, im):
            return False
    for v in req["diagram"]["vertices"]:
        acc = 1 + 0j
        for w in wires:
            if w["tail"] == v:
                acc *= values[w["id"]]
            if w["head"] == v:
                acc /= values[w["id"]]
        if abs(acc - 1) > 1e-9:
            return False
    return True


def _check_wild_embed(req, result):
    """The witness is verified and, checked here, intertwines both pairs."""
    outdir = req["outdir"]
    if (result["needle1"], result["needle2"]) != (
            os.path.join(outdir, "needle1.json"), os.path.join(outdir, "needle2.json")):
        return False
    w = result["witness"]
    if w is None or w["verified"] is not True:
        return False
    grid = lambda g: [[Fraction(x) for x in row] for row in g]
    p = grid(w["P"])
    pairs = {k: grid(v) for k, v in req["pairs"].items()}
    try:
        inverse(p)
    except ValueError:
        return False
    return (matmul(p, pairs["A1"]) == matmul(pairs["A2"], p)
            and matmul(p, pairs["B1"]) == matmul(pairs["B2"], p))
