"""Command line interface.

JSON is the single interchange format; rationals are strings ("p/q" or
"p") so no value ever passes through floats.  Output is canonical JSON
(sorted keys, two-space indent, trailing newline), so identical inputs
and seeds produce byte-identical output.  canonical_json writes it
itself, byte for byte what json.dumps(obj, indent=2, sort_keys=True)
writes of every value a command returns, and matrix grids are written
from a Matrix's integer rows.

Exit codes: 0 ok; 1 invalid input (message on stderr); 2 for operations
that are undecidable or unsupported on wild diagrams, with
{"error": "wild"} on stdout.
"""

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .classify import classify_diagram
from .decompose import Band, Interval, block_alias, decompose, isomorphic, shape_of
from .errors import (
    NotDecidableWild,
    NotDecomposable,
    ParseError,
    ShapeMismatch,
    TdrError,
    UnknownCommand,
)
from .exactalg import Matrix, typed_record
from .flows import extend_flow, flow_value
from .generate import gen_random
from .rational import format_ratio, format_rational, parse_rational
from .representation import Representation, contract, is_morphism
from .semigraph import diagram_to_record, validate_diagram
from .wildness import (
    MatrixPair,
    iso_from_similarity,
    needle_rep_from_pair,
    sim_similarity_solve,
)


@typed_record
class CommandReport(NamedTuple):
    exit_code: int


def canonical_json(obj):
    """json.dumps(obj, indent=2, sort_keys=True) and a newline, byte for
    byte, on the values a command returns: dicts with str keys, lists,
    str, int, float, bool and None, nested at most 100 levels deep.
    json's indented encoder is pure Python, so _json writes them itself,
    each list of strings in one join over the C string encoder.  Any
    other value is a TypeError, and one nested deeper (a circular one
    among them) a ValueError."""
    return _json(obj, "\n") + "\n"


def _json(x, nl):
    """x as json.dumps(x, indent=2, sort_keys=True) writes it on a line
    that nl (a newline and the line's indent) ends."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is list or t is dict:
        if not x:
            return "[]" if t is list else "{}"
        if len(nl) > 200:
            raise ValueError("value nested past 100 levels, or circular")
        inner = nl + "  "
        if t is dict:
            for k in x:
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
            items = [encode_basestring_ascii(k) + ": " + _json(x[k], inner)
                     for k in sorted(x)]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        if all(type(v) is str for v in x):
            items = map(encode_basestring_ascii, x)
        else:
            items = [_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is int:
        return int.__repr__(x)
    if t is float:
        return json.dumps(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _grid(m):
    """The entries of a Matrix as rational strings, read off its integer
    rows over m.den without a Fraction per entry."""
    den = m.den
    return [[format_ratio(x, den) for x in row] for row in m.nums]


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON or too deep
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def _load_diagram(path):
    return validate_diagram(_load_json(path))


def _matrix_from_grid(grid, what, shape=None):
    """The matrix of a grid of rationals, of the declared (rows, cols) or
    else of the grid's own."""
    if not isinstance(grid, list) or any(not isinstance(r, list) for r in grid):
        raise ParseError(f"{what}: expected a list of rows")
    rows, cols = shape or (len(grid), len(grid[0]) if grid else 0)
    try:
        return Matrix(rows, cols, [[parse_rational(x) for x in row] for row in grid])
    except ShapeMismatch as exc:
        raise ParseError(f"{what}: {exc}") from None


def _load_rep(path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: representation must be a JSON object")
    return _rep_from_record(obj, os.path.dirname(os.path.abspath(path)))


def _rep_from_record(obj, base_dir):
    """The record's Representation, checked by its constructor."""
    for key in ("diagram", "dims", "vertices"):
        if key not in obj:
            raise ParseError(f"representation is missing {key!r}")
    diag = obj["diagram"]
    if isinstance(diag, str):
        path = diag if os.path.isabs(diag) else os.path.join(base_dir, diag)
        diag = _load_json(path)
    if not isinstance(obj["vertices"], dict):
        raise ParseError("vertices must be an object")
    tensors = {}
    for v, cell in obj["vertices"].items():
        if not isinstance(cell, dict) or not {"rows", "cols", "entries"} <= set(cell):
            raise ParseError(f"vertex {v}: need rows, cols, entries")
        tensors[v] = _matrix_from_grid(cell["entries"], f"vertex {v}",
                                       (cell["rows"], cell["cols"]))
    return Representation(diag, obj["dims"], tensors)


def _rep_record(r):
    return {
        "diagram": diagram_to_record(r.diagram),
        "dims": dict(r.dims),
        "vertices": {
            v: {"rows": m.rows, "cols": m.cols, "entries": _grid(m)}
            for v, m in r.tensors.items()
        },
    }


def _decomposition_record(dec, shape):
    out = []
    for desc, mult in dec.blocks:
        if isinstance(desc, Interval):
            entry = {"type": "interval", "a": desc.a, "b": desc.b, "mult": mult}
        elif isinstance(desc, Band):
            entry = {"type": "band",
                     "poly": [format_rational(c) for c in desc.poly.coeffs],
                     "power": desc.power, "mult": mult, "field": "Q"}
        else:
            entry = {"type": "string", "start": desc.start,
                     "len": desc.length, "mult": mult}
        alias = block_alias(shape.family, shape.n, desc)
        if alias is not None:
            entry["alias"] = alias
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# command handlers

def _cmd_classify(ns):
    d = _load_diagram(ns.diagram)
    entries = []
    for ref, cls in classify_diagram(d):
        entry = {"component": list(ref.vertices) + list(ref.wires),
                 "class": cls.kind}
        if cls.family is not None:
            entry["family"] = cls.family
            entry["n"] = cls.n
        if cls.witness is not None:
            entry["witness"] = {"kind": cls.witness.kind,
                                "vertex": cls.witness.vertex,
                                "wires": list(cls.witness.wires)}
        entries.append(entry)
    return {"components": entries}


def _cmd_decompose(ns):
    r = _load_rep(ns.rep)
    return _decomposition_record(decompose(r), shape_of(r.diagram))


def _cmd_isotest(ns):
    r1 = _load_rep(ns.rep1)
    r2 = _load_rep(ns.rep2)
    return {"isomorphic": isomorphic(r1, r2)}


def _cmd_contract(ns):
    return {"value": format_rational(contract(_load_rep(ns.rep)))}


def _cmd_flow_extend(ns):
    d = _load_diagram(ns.diagram)
    obj = _load_json(ns.flow)
    if not isinstance(obj, dict) or not isinstance(obj.get("wires"), dict):
        raise ParseError("flow file needs a \"wires\" object")
    f = {}
    for wid, pair in obj["wires"].items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"wire {wid}: flow value must be [re, im]")
        f[wid] = flow_value(wid, *pair)
    u = obj.get("u", [])
    if not isinstance(u, list):
        raise ParseError("\"u\" must be a list of vertex ids")
    total = extend_flow(d, f, u, tol=ns.tol)
    return {"wires": {wid: [z.real, z.imag] for wid, z in total.items()}}


def _cmd_wild_embed(ns):
    obj = _load_json(ns.pairs)
    if not isinstance(obj, dict):
        raise ParseError("pairs file must be a JSON object")
    mats = {}
    for key in ("A1", "B1", "A2", "B2"):
        if key not in obj:
            raise ParseError(f"pairs file is missing {key!r}")
        mats[key] = _matrix_from_grid(obj[key], key)
    pair1 = MatrixPair(mats["A1"], mats["B1"])
    pair2 = MatrixPair(mats["A2"], mats["B2"])
    r1 = needle_rep_from_pair(pair1)
    r2 = needle_rep_from_pair(pair2)
    outdir = ns.out or "."
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, rep in (("needle1", r1), ("needle2", r2)):
        path = os.path.join(outdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(_rep_record(rep)))
        paths[name] = path
    p = sim_similarity_solve(pair1, pair2)
    witness = None
    if p is not None:
        g = iso_from_similarity(p, pair1, pair2)
        witness = {"P": _grid(p), "verified": is_morphism(g, r1, r2)}
    return {"needle1": paths["needle1"], "needle2": paths["needle2"],
            "witness": witness}


def _cmd_gen_random(ns):
    d = _load_diagram(ns.diagram)
    try:
        dims = json.loads(ns.dims)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"--dims: invalid JSON: {exc}") from None
    res = gen_random(d, dims, ns.seed, ns.mode)
    if ns.key_out and res.key is not None:
        with open(ns.key_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(_decomposition_record(res.key, shape_of(d))))
    return _rep_record(res.rep)


def _cmd_fmt(ns):
    obj = _load_json(ns.file)
    if not isinstance(obj, dict):
        raise ParseError(f"{ns.file}: expected a JSON object")
    if "dims" in obj:
        return _rep_record(
            _rep_from_record(obj, os.path.dirname(os.path.abspath(ns.file))))
    return diagram_to_record(validate_diagram(obj))


# ---------------------------------------------------------------------------
# dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UnknownCommand(message)


@cache
def _build_parser():
    """The one parser of the process: parse_args keeps no state between
    calls, since each call fills a fresh namespace from the defaults."""
    parser = _Parser(prog="tdr", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, handler, *file_args):
        p = sub.add_parser(name)
        for arg in file_args:
            p.add_argument(arg)
        p.add_argument("--out", default=None)
        p.set_defaults(handler=handler)
        return p

    add("classify", _cmd_classify, "diagram")
    add("decompose", _cmd_decompose, "rep")
    add("isotest", _cmd_isotest, "rep1", "rep2")
    add("contract", _cmd_contract, "rep")
    p = add("flow-extend", _cmd_flow_extend, "diagram", "flow")
    p.add_argument("--tol", type=float, default=1e-9)
    add("wild-embed", _cmd_wild_embed, "pairs")
    p = add("gen-random", _cmd_gen_random, "diagram")
    p.add_argument("--dims", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="generic")
    p.add_argument("--key-out", dest="key_out", default=None)
    add("fmt", _cmd_fmt, "file")
    return parser


def run(argv):
    """Parse argv, dispatch, write canonical JSON, return a CommandReport."""
    try:
        ns = _build_parser().parse_args(argv)
        if ns.command is None:
            raise UnknownCommand("no command given")
    except UnknownCommand as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CommandReport(1)

    try:
        result = ns.handler(ns)
    except (NotDecomposable, NotDecidableWild):
        sys.stdout.write(canonical_json({"error": "wild"}))
        return CommandReport(2)
    except (TdrError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CommandReport(1)

    text = canonical_json(result)
    if ns.command != "wild-embed" and ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return CommandReport(0)


def main():
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
