import json
import random
import sys
import tracemalloc
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from tdr.cli import _grid, canonical_json, run
from tdr.exactalg import Matrix
from tdr.errors import ParseError
from tdr.rational import Q, format_rational, parse_rational

DIAGRAM = {
    "vertices": ["v1", "v2"],
    "wires": [
        {"id": "e1", "tail": None, "head": "v1"},
        {"id": "e2", "tail": "v1", "head": "v2"},
        {"id": "e3", "tail": "v2", "head": None},
    ],
}
REP = {
    "diagram": DIAGRAM,
    "dims": {"e1": 1, "e2": 1, "e3": 0},
    "vertices": {
        "v1": {"rows": 1, "cols": 1, "entries": [["1"]]},
        "v2": {"rows": 0, "cols": 1, "entries": []},
    },
}
WILD = {
    "vertices": ["v1"],
    "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None},
    ],
}
J1_REP = {
    "diagram": {"vertices": ["v1"],
                "wires": [{"id": "e1", "tail": "v1", "head": "v1"}]},
    "dims": {"e1": 2},
    "vertices": {"v1": {"rows": 2, "cols": 2,
                        "entries": [["1", "2"], ["3", "4"]]}},
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_classify_command(tmp_path, capsys):
    path = write(tmp_path, "d.json", DIAGRAM)
    report = run(["classify", path])
    assert report.exit_code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["components"][0]["class"] == "finite"
    assert out["components"][0]["family"] == "A0"
    assert out["components"][0]["n"] == 2


def test_classify_reports_witness(tmp_path, capsys):
    path = write(tmp_path, "w.json", WILD)
    assert run(["classify", path]).exit_code == 0
    out = json.loads(capsys.readouterr().out)
    comp = out["components"][0]
    assert comp["class"] == "wild"
    assert comp["witness"]["kind"] == "needle"


def test_decompose_command(tmp_path, capsys):
    path = write(tmp_path, "r.json", REP)
    assert run(["decompose", path]).exit_code == 0
    out = json.loads(capsys.readouterr().out)
    assert out == [{"type": "interval", "a": 1, "b": 2, "mult": 1}]


def test_decompose_reports_band_fields(tmp_path, capsys):
    path = write(tmp_path, "j1.json", J1_REP)
    assert run(["decompose", path]).exit_code == 0
    out = json.loads(capsys.readouterr().out)
    kinds = {e["type"] for e in out}
    assert kinds <= {"band", "string"}
    for e in out:
        if e["type"] == "band":
            assert e["field"] == "Q"
            assert isinstance(e["poly"], list) and e["power"] >= 1


def test_decompose_alias_on_closed_path(tmp_path, capsys):
    rep = {
        "diagram": {"vertices": ["v1", "v2"],
                    "wires": [{"id": "e1", "tail": "v1", "head": "v2"}]},
        "dims": {"e1": 1},
        "vertices": {"v1": {"rows": 1, "cols": 1, "entries": [["2"]]},
                     "v2": {"rows": 1, "cols": 1, "entries": [["1"]]}},
    }
    path = write(tmp_path, "p2.json", rep)
    assert run(["decompose", path]).exit_code == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["alias"] == "V(2)"


def test_wild_exit_code_2(tmp_path, capsys):
    rep = {
        "diagram": WILD,
        "dims": {"e1": 1, "e2": 1},
        "vertices": {"v1": {"rows": 1, "cols": 1, "entries": [["1"]]}},
    }
    path = write(tmp_path, "wr.json", rep)
    assert run(["decompose", path]).exit_code == 2
    assert json.loads(capsys.readouterr().out) == {"error": "wild"}
    assert run(["isotest", path, path]).exit_code == 2
    assert json.loads(capsys.readouterr().out) == {"error": "wild"}


def test_isotest_command(tmp_path, capsys):
    p1 = write(tmp_path, "r1.json", J1_REP)
    conj = {
        "diagram": J1_REP["diagram"],
        "dims": {"e1": 2},
        # same matrix conjugated by [[1,1],[0,1]]
        "vertices": {"v1": {"rows": 2, "cols": 2,
                            "entries": [["4", "2"], ["3", "1"]]}},
    }
    p2 = write(tmp_path, "r2.json", conj)
    assert run(["isotest", p1, p2]).exit_code == 0
    assert json.loads(capsys.readouterr().out) == {"isomorphic": True}
    other = dict(conj, vertices={"v1": {"rows": 2, "cols": 2,
                                        "entries": [["1", "0"], ["0", "1"]]}})
    p3 = write(tmp_path, "r3.json", other)
    assert run(["isotest", p1, p3]).exit_code == 0
    assert json.loads(capsys.readouterr().out) == {"isomorphic": False}


def test_contract_command(tmp_path, capsys):
    path = write(tmp_path, "j1.json", J1_REP)
    assert run(["contract", path]).exit_code == 0
    assert json.loads(capsys.readouterr().out) == {"value": "5"}


def _lifted(text):
    """int(text) with Python's int-string limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_contract_writes_a_value_past_the_int_string_limit(tmp_path, capsys):
    """Two 1x1 vertices of a J_2 hold 1/N, N the 4000-digit 33...3 (under
    the 4300-digit limit on reading), so the value is 1/N^2 and its
    denominator has 8000 digits: the command writes every one, and the
    reading side still refuses them."""
    n = "3" * 4000
    rec = {"diagram": {"vertices": ["v1", "v2"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v2"},
        {"id": "e2", "tail": "v2", "head": "v1"}]},
        "dims": {"e1": 1, "e2": 1},
        "vertices": {v: {"rows": 1, "cols": 1, "entries": [["1/" + n]]}
                     for v in ("v1", "v2")}}
    assert run(["contract", write(tmp_path, "big.json", rec)]).exit_code == 0
    num, _, den = json.loads(capsys.readouterr().out)["value"].partition("/")
    assert (num, len(den)) == ("1", 8000)
    assert _lifted(den) == _lifted(n) ** 2
    with pytest.raises(ParseError):
        parse_rational("1/" + den)


def test_grid_writes_every_digit_of_a_long_entry():
    big = 7 * 10 ** 5000 + 1
    assert _grid(Matrix.from_ints(1, 2, [[big, -big]])) == [
        ["7" + "0" * 4999 + "1", "-7" + "0" * 4999 + "1"]]
    assert _grid(Matrix.from_ints(1, 1, [[2]], big)) == [
        ["2/7" + "0" * 4999 + "1"]]


def test_contract_command_validates_its_diagram_once(tmp_path, capsys, spy):
    """On a cold cache, tdr contract checks the rep's diagram once, when
    the rep is built, and the compile of its program does not repeat it."""
    from tdr.representation import _compile
    from tdr.semigraph import validate_diagram

    path = write(tmp_path, "j1.json", J1_REP)
    _compile.cache_clear()
    calls = spy(validate_diagram)
    assert run(["contract", path]).exit_code == 0
    assert json.loads(capsys.readouterr().out) == {"value": "5"}
    assert calls == {"validate_diagram": 1}


def test_contract_over_the_cap_is_a_one_line_error(tmp_path, capsys):
    # K_8 with dimension-4 wires needs a node of at least 4^15 entries
    vs = [f"v{i}" for i in range(8)]
    rep = {"diagram": {"vertices": vs, "wires": [
        {"id": f"e{i}{j}", "tail": vs[i], "head": vs[j]}
        for i in range(8) for j in range(i + 1, 8)]},
        "dims": {f"e{i}{j}": 4 for i in range(8) for j in range(i + 1, 8)},
        "vertices": {v: {"rows": 4 ** (7 - i), "cols": 4 ** i,
                         "entries": [[1] * 4 ** i] * 4 ** (7 - i)}
                     for i, v in enumerate(vs)}}
    assert run(["contract", write(tmp_path, "k8.json", rep)]).exit_code == 1
    err = capsys.readouterr().err
    assert "over the cap" in err and err.count("\n") == 1


def test_flow_extend_command(tmp_path, capsys):
    d = {"vertices": ["v1", "v2", "v3"],
         "wires": [{"id": "e1", "tail": "v1", "head": "v2"},
                   {"id": "e2", "tail": "v2", "head": "v3"},
                   {"id": "e3", "tail": "v3", "head": "v1"}]}
    dp = write(tmp_path, "d.json", d)
    fp = write(tmp_path, "f.json",
               {"wires": {"e2": [5.0, 0.0], "e3": [5.0, 0.0]},
                "u": ["v1", "v2"]})
    assert run(["flow-extend", dp, fp]).exit_code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["wires"]["e1"][0] - 5.0) < 1e-9
    assert out["wires"]["e2"] == [5.0, 0.0]


def test_gen_random_command(tmp_path, capsys):
    dp = write(tmp_path, "d.json", DIAGRAM)
    args = ["gen-random", dp, "--dims",
            '{"e1": 2, "e2": 2, "e3": 1}', "--seed", "9"]
    assert run(args).exit_code == 0
    first = capsys.readouterr().out
    assert run(args).exit_code == 0
    assert capsys.readouterr().out == first  # byte reproducible
    rep = json.loads(first)
    assert rep["dims"] == {"e1": 2, "e2": 2, "e3": 1}


@pytest.mark.parametrize("mode", ["generic", "sum"])
def test_gen_random_over_the_cap_is_a_one_line_error(tmp_path, capsys, mode):
    # J_1's vertex would hold 10^10 entries; refused before any is drawn
    dp = write(tmp_path, "j1.json", {"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": "v1", "head": "v1"}]})
    tracemalloc.start()
    try:
        code = run(["gen-random", dp, "--dims", '{"e1": 100000}',
                    "--mode", mode]).exit_code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1 and "over the cap" in err and err.count("\n") == 1
    assert peak < 1 << 20


def test_gen_random_side_over_the_cap_is_a_one_line_error(tmp_path, capsys):
    # A0(1)'s vertex holds no entry at all, but 2^22 + 1 empty rows
    dp = write(tmp_path, "a0.json", {"vertices": ["v1"], "wires": [
        {"id": "e1", "tail": None, "head": "v1"},
        {"id": "e2", "tail": "v1", "head": None}]})
    code = run(["gen-random", dp, "--dims",
                json.dumps({"e1": 0, "e2": (1 << 22) + 1})]).exit_code
    err = capsys.readouterr().err
    assert code == 1 and "4194305 rows, over the cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["fmt", "decompose"])
def test_vertex_over_the_cap_on_nonzero_dims_is_a_one_line_error(
        tmp_path, capsys, command):
    # a 1 x 0 tensor on incoming wires of dims 2^40 and 0: decompose would
    # lay it out as a 2^40 x 0 arc
    rp = write(tmp_path, "r.json", {
        "diagram": {"vertices": ["v1"], "wires": [
            {"id": "a", "tail": None, "head": "v1"},
            {"id": "b", "tail": None, "head": "v1"}]},
        "dims": {"a": 1 << 40, "b": 0},
        "vertices": {"v1": {"rows": 1, "cols": 0, "entries": [[]]}}})
    code = run([command, rp]).exit_code
    out, err = capsys.readouterr()
    assert code == 1 and not out and "over the cap" in err
    assert err.count("\n") == 1


def test_one_parser_serves_every_call(tmp_path, capsys):
    """run reuses one parser, and no option of a call reaches the next:
    every call gives the same bytes and files in either order."""
    dp = write(tmp_path, "d.json", DIAGRAM)
    dims = ["--dims", '{"e1": 2, "e2": 2, "e3": 1}']
    out, key = tmp_path / "out.json", tmp_path / "key.json"
    calls = [
        ["gen-random", dp, *dims, "--mode", "sum", "--seed", "3",
         "--key-out", str(key), "--out", str(out)],
        ["no-such-command", dp],
        ["gen-random", dp, *dims],
        ["classify", dp, "--out", str(out)],
        ["gen-random", dp, *dims, "--mode", "sum", "--seed", "3"],
        ["classify", dp],
    ]

    def outputs(order):
        got = {}
        for i in order:
            for path in (out, key):
                path.unlink(missing_ok=True)
            code = run(calls[i]).exit_code
            std = capsys.readouterr()
            got[i] = (code, std.out, std.err, [
                path.read_text() if path.exists() else None for path in (out, key)])
        return got

    forward = outputs(range(len(calls)))
    assert outputs(reversed(range(len(calls)))) == forward
    assert [forward[i][0] for i in range(len(calls))] == [0, 1, 0, 0, 0, 0]


def test_gen_random_sum_with_key(tmp_path, capsys):
    dp = write(tmp_path, "d.json", DIAGRAM)
    key_path = tmp_path / "key.json"
    out_path = tmp_path / "rep.json"
    args = ["gen-random", dp, "--dims", '{"e1": 3, "e2": 3, "e3": 3}',
            "--seed", "4", "--mode", "sum",
            "--key-out", str(key_path), "--out", str(out_path)]
    assert run(args).exit_code == 0
    assert capsys.readouterr().out == ""
    key = json.loads(key_path.read_text())
    assert all(e["type"] == "interval" for e in key)
    # the produced rep decomposes to the emitted key
    assert run(["decompose", str(out_path)]).exit_code == 0
    assert json.loads(capsys.readouterr().out) == key


def test_fmt_idempotent(tmp_path, capsys):
    rp = write(tmp_path, "r.json", REP)
    assert run(["fmt", rp]).exit_code == 0
    once = capsys.readouterr().out
    rp2 = tmp_path / "canon.json"
    rp2.write_text(once)
    assert run(["fmt", str(rp2)]).exit_code == 0
    assert capsys.readouterr().out == once
    dp = write(tmp_path, "d.json", DIAGRAM)
    assert run(["fmt", dp]).exit_code == 0
    canon = capsys.readouterr().out
    assert json.loads(canon)["vertices"] == ["v1", "v2"]


def test_fmt_rejects_zero_denominator(tmp_path, capsys):
    bad = {
        "diagram": DIAGRAM,
        "dims": {"e1": 1, "e2": 1, "e3": 0},
        "vertices": {"v1": {"rows": 1, "cols": 1, "entries": [["1/0"]]},
                     "v2": {"rows": 0, "cols": 1, "entries": []}},
    }
    path = write(tmp_path, "bad.json", bad)
    report = run(["fmt", path])
    assert report.exit_code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_rep_diagram_by_path(tmp_path, capsys):
    dp = write(tmp_path, "d.json", DIAGRAM)
    rep = dict(REP, diagram="d.json")
    rp = write(tmp_path, "r.json", rep)
    assert run(["decompose", rp]).exit_code == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["type"] == "interval"


def test_wild_embed_command(tmp_path, capsys):
    pairs = {"A1": [["2"]], "B1": [["3"]], "A2": [["2"]], "B2": [["3"]]}
    pp = write(tmp_path, "pairs.json", pairs)
    outdir = tmp_path / "embedded"  # does not exist yet; command creates it
    report = run(["wild-embed", pp, "--out", str(outdir)])
    assert report.exit_code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["witness"]["verified"] is True
    needle = json.loads((outdir / "needle1.json").read_text())
    assert needle["dims"] == {"e1": 6, "e2": 2}
    # the emitted reps are wild: decompose must refuse them
    assert run(["decompose", str(outdir / "needle1.json")]).exit_code == 2
    capsys.readouterr()


def _similar_pairs(rng, n):
    """(A1, B1, A2, B2) as grids of text: A2 = P A1 P^-1 and B2 = P B1 P^-1
    for a seeded invertible P."""
    from tdr.exactalg import det, inverse

    def rand(n):
        return Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                                 for _ in range(n)])

    a, b = rand(n), rand(n)
    while True:
        p = rand(n)
        if not n or det(p) != 0:
            break
    a2, b2 = p @ a @ inverse(p), p @ b @ inverse(p)
    return {k: _grid(m) for k, m in zip(("A1", "B1", "A2", "B2"), (a, b, a2, b2))}


def test_wild_embed_verifies_its_witness_on_similar_pairs(tmp_path, capsys, spy):
    """On 25 seeded similar pairs of sizes 0 to 4, wild-embed finds P and
    reports it verified, with no base change of the needle rep: the
    witness is checked by is_morphism alone."""
    from tdr.representation import apply_group_element, is_morphism

    rng = random.Random(3401)
    calls = spy(apply_group_element, is_morphism)
    for case in range(25):
        pp = write(tmp_path, f"pairs{case}.json", _similar_pairs(rng, case % 5))
        assert run(["wild-embed", pp, "--out", str(tmp_path / str(case))]).exit_code == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness is not None and witness["verified"] is True, case
    assert calls == {"apply_group_element": 0, "is_morphism": 25}


def test_a_corrupted_needle_witness_is_no_morphism():
    """iso_from_similarity's g intertwines the two needle reps; one entry
    changed in either of its maps and is_morphism says no."""
    from tdr.representation import is_morphism
    from tdr.wildness import (MatrixPair, iso_from_similarity,
                              needle_rep_from_pair, sim_similarity_solve)

    rng = random.Random(3402)
    for n in (1, 2, 3, 4):
        grids = {k: Matrix.from_rows([[parse_rational(x) for x in row] for row in m])
                 for k, m in _similar_pairs(rng, n).items()}
        pair1 = MatrixPair(grids["A1"], grids["B1"])
        pair2 = MatrixPair(grids["A2"], grids["B2"])
        g = iso_from_similarity(sim_similarity_solve(pair1, pair2), pair1, pair2)
        r1, r2 = needle_rep_from_pair(pair1), needle_rep_from_pair(pair2)
        assert is_morphism(g, r1, r2)
        for wid in ("e1", "e2"):
            m = g[wid]
            i, j = rng.randrange(m.rows), rng.randrange(m.cols)
            rows = [list(row) for row in m.entries()]
            rows[i][j] += 1
            assert not is_morphism(dict(g, **{wid: Matrix.from_rows(rows)}), r1, r2)


def test_wild_embed_no_witness(tmp_path, capsys):
    pairs = {"A1": [["0"]], "B1": [["0"]], "A2": [["1"]], "B2": [["0"]]}
    pp = write(tmp_path, "pairs.json", pairs)
    assert run(["wild-embed", pp, "--out", str(tmp_path)]).exit_code == 0
    assert json.loads(capsys.readouterr().out)["witness"] is None


def test_wild_embed_over_the_cap_is_a_one_line_error(tmp_path, capsys):
    # 72 * 242^2 entries in the needle's tensor, over the cap of 2^22
    big = [["0"] * 242] * 242
    pairs = {"A1": big, "B1": big, "A2": [["0"]], "B2": [["0"]]}
    pp = write(tmp_path, "pairs.json", pairs)
    assert run(["wild-embed", pp, "--out", str(tmp_path)]).exit_code == 1
    out, err = capsys.readouterr()
    assert not out and "over the cap" in err and err.count("\n") == 1


@pytest.mark.parametrize("rows, cols, entries", [
    (1, 1, [["1", "2"]]), (2, 2, [["1", "2"]]), (1, 2, [["1", "2"], ["3"]]),
    (0, 1, [["1"]])])
def test_entries_of_another_shape_are_a_one_line_error(tmp_path, capsys,
                                                       rows, cols, entries):
    rep = {"diagram": {"vertices": ["v1"], "wires": []}, "dims": {},
           "vertices": {"v1": {"rows": rows, "cols": cols, "entries": entries}}}
    assert run(["decompose", write(tmp_path, "bad.json", rep)]).exit_code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: vertex v1: ") and err.count("\n") == 1


@pytest.mark.parametrize("diagram", [
    {"vertices": 5, "wires": []},
    {"vertices": ["a"], "wires": ["x"]},
    {"vertices": ["a"], "wires": 3},
    {"vertices": ["a"], "wires": [{"id": "e1", "tail": ["a"], "head": None}]},
])
def test_malformed_diagram_is_a_one_line_error(tmp_path, capsys, diagram):
    path = write(tmp_path, "bad.json", diagram)
    assert run(["classify", path]).exit_code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", ["x", -1, True, 1.5])
def test_malformed_vertex_shape_is_a_one_line_error(tmp_path, capsys, field, value):
    cell = {"rows": 0, "cols": 0, "entries": [], field: value}
    rep = {"diagram": {"vertices": ["a"], "wires": []}, "dims": {},
           "vertices": {"a": cell}}
    path = write(tmp_path, "bad.json", rep)
    assert run(["decompose", path]).exit_code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_error_paths(tmp_path, capsys):
    assert run(["no-such-command"]).exit_code == 1
    capsys.readouterr()
    assert run([]).exit_code == 1
    capsys.readouterr()
    missing = str(tmp_path / "nope.json")
    assert run(["classify", missing]).exit_code == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["classify", str(bad)]).exit_code == 1
    capsys.readouterr()
    dp = write(tmp_path, "d.json", DIAGRAM)
    assert run(["gen-random", dp, "--dims", "[1,2]"]).exit_code == 1
    capsys.readouterr()
    assert run(["gen-random", dp, "--dims", '{"e1": 1}']).exit_code == 1
    capsys.readouterr()
    for cell in ({"rows": 0, "cols": 0}, [0, 0, []]):
        rep = {"diagram": {"vertices": ["v1"], "wires": []}, "dims": {},
               "vertices": {"v1": cell}}
        assert run(["decompose", write(tmp_path, "cell.json", rep)]).exit_code == 1
        assert capsys.readouterr().err == "error: vertex v1: need rows, cols, entries\n"


def test_a_file_that_is_not_utf8_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"vertices": ["v\xff"], "wires": []}')
    assert run(["classify", str(path)]).exit_code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_json_nested_past_the_recursion_limit_is_a_one_line_error(tmp_path, capsys):
    """In a file and in --dims: the decoder's RecursionError is a ParseError."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    dp = write(tmp_path, "d.json", DIAGRAM)
    for argv in (["classify", str(path)],
                 ["gen-random", dp, "--dims", "[" * 5000 + "]" * 5000]):
        assert run(argv).exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3),
    st.floats(-2, 2, allow_nan=False), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))
_ENTRY = st.one_of(st.sampled_from(["0", "1", "-2/3", " 5 ", 2]), _JUNK)


@st.composite
def _rep_records(draw):
    """Rep records, well formed or with one part broken."""
    vs = draw(st.lists(st.sampled_from("abcd"), max_size=4, unique=True))
    end = st.sampled_from(vs or [None])
    wires = [{"id": f"e{i}", "tail": draw(end), "head": draw(end)}
             for i in range(draw(st.integers(0, 4)))]
    dims = {w["id"]: draw(st.integers(0, 2)) for w in wires}
    fill = draw(st.lists(st.sampled_from(["0", "1", "-2/3", "7/2"]),
                         min_size=1, max_size=4))
    vertices = {}
    for v in vs:
        rows = prod(dims[w["id"]] for w in wires if w["tail"] == v)
        cols = prod(dims[w["id"]] for w in wires if w["head"] == v)
        vertices[v] = {"rows": rows, "cols": cols, "entries": [
            [fill[(i * cols + j) % len(fill)] for j in range(cols)]
            for i in range(rows)]}
    rec = {"diagram": {"vertices": vs, "wires": wires}, "dims": dims,
           "vertices": vertices}
    broken = draw(st.sampled_from(
        ["none", "none", "dim", "shape", "entry", "ragged", "key", "part",
         "endpoint", "whole"]))
    if broken == "dim" and dims:
        dims[draw(st.sampled_from(sorted(dims)))] = draw(_JUNK)
    elif broken in ("shape", "entry", "ragged") and vertices:
        cell = vertices[draw(st.sampled_from(sorted(vertices)))]
        if broken == "shape":
            cell[draw(st.sampled_from(["rows", "cols"]))] = draw(_JUNK)
        elif cell["entries"] and cell["entries"][0]:
            row = cell["entries"][0]
            if broken == "entry":
                row[0] = draw(_ENTRY)
            else:
                row.append("1")
    elif broken == "key":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif broken == "part":
        rec[draw(st.sampled_from(sorted(rec)))] = draw(_JUNK)
    elif broken == "endpoint" and wires:
        wires[0][draw(st.sampled_from(["id", "tail", "head"]))] = draw(_JUNK)
    elif broken == "whole":
        rec = draw(_JUNK)
    return rec


def test_contract_fuzzed_records_never_trace_back(tmp_path, capsys):
    """Any rep record: either a value, or exit 1 or 2 with one stderr line."""
    path = tmp_path / "rep.json"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_rep_records())
    def check(rec):
        path.write_text(json.dumps(rec))
        code = run(["contract", str(path)]).exit_code
        out, err = capsys.readouterr()
        if code == 0:
            assert set(json.loads(out)) == {"value"} and not err
        else:
            assert code in (1, 2), code
            assert err.startswith("error: ") and err.count("\n") == 1, err

    check()


@pytest.mark.parametrize("command", ["decompose", "isotest", "fmt"])
def test_rep_commands_fuzzed_records_end_cleanly(tmp_path, capsys, command):
    """Any rep record, given twice to isotest: exit 0 with empty stderr (a
    rep is isomorphic to itself), exit 2 with {"error": "wild"} on stdout,
    or exit 1 with one stderr line."""
    path = tmp_path / "rep.json"
    files = [str(path)] * (2 if command == "isotest" else 1)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_rep_records())
    def check(rec):
        path.write_text(json.dumps(rec))
        code = run([command, *files]).exit_code
        out, err = capsys.readouterr()
        if code == 0:
            got = json.loads(out)
            assert not err and (command != "isotest" or got == {"isomorphic": True})
        elif code == 2:
            assert command != "fmt" and json.loads(out) == {"error": "wild"} and not err
        else:
            assert code == 1 and not out, code
            assert err.startswith("error: ") and err.count("\n") == 1, err

    check()


TRIANGLE = {"vertices": ["v1", "v2", "v3"],
            "wires": [{"id": "e1", "tail": "v1", "head": "v2"},
                      {"id": "e2", "tail": "v2", "head": "v3"},
                      {"id": "e3", "tail": "v3", "head": "v1"}]}


def _flow_extend_fails_cleanly(tmp_path, capsys, flow, *options):
    dp = write(tmp_path, "d.json", TRIANGLE)
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(flow))   # writes NaN for float("nan")
    assert run(["flow-extend", dp, str(fp), *options]).exit_code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return err


def test_flow_extend_refuses_a_nan_tolerance(tmp_path, capsys):
    # 2, 3, 5 around the cycle break the condition at every vertex
    flow = {"wires": {"e1": [2, 0], "e2": [3, 0], "e3": [5, 0]}, "u": []}
    assert "tolerance" in _flow_extend_fails_cleanly(
        tmp_path, capsys, flow, "--tol", "nan")


def test_flow_extend_refuses_nan_values(tmp_path, capsys):
    flow = {"wires": {"e2": [float("nan"), 0], "e3": [5, 0]}, "u": ["v1", "v2"]}
    assert "e2" in _flow_extend_fails_cleanly(tmp_path, capsys, flow)


def test_flow_extend_refuses_values_past_float_range(tmp_path, capsys):
    flow = {"wires": {"e2": [10 ** 400, 0], "e3": [5, 0]}, "u": ["v1", "v2"]}
    assert "e2" in _flow_extend_fails_cleanly(tmp_path, capsys, flow)


def test_flow_extend_refuses_a_u_of_non_ids(tmp_path, capsys):
    flow = {"wires": {"e2": [5, 0], "e3": [5, 0]}, "u": [["a"]]}
    assert "vertex ids" in _flow_extend_fails_cleanly(tmp_path, capsys, flow)


_FLOW_PART = st.one_of(
    st.sampled_from([1, -1, 2, 0.5, 0]), st.floats(), _JUNK,
    st.integers(-(10 ** 400), 10 ** 400))


@st.composite
def _flow_cases(draw):
    """A diagram, a flow record for it (well formed or with one part
    broken) and a --tol value."""
    vs = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4,
                       unique=True))
    end = st.sampled_from(vs + vs + [None])
    wires = [{"id": f"e{i}", "tail": draw(end), "head": draw(end)}
             for i in range(draw(st.integers(0, 5)))]
    u = draw(st.lists(st.sampled_from(vs), unique=True))
    inner = {w["id"] for w in wires
             if {w["tail"], w["head"]} - {None} <= set(u)}
    flow = {w["id"]: [draw(_FLOW_PART), draw(_FLOW_PART)]
            for w in wires if w["id"] not in inner}
    rec = {"wires": flow, "u": u}
    broken = draw(st.sampled_from(
        ["none", "none", "value", "u", "key", "extra", "whole"]))
    if broken == "value" and flow:
        flow[draw(st.sampled_from(sorted(flow)))] = draw(_JUNK)
    elif broken == "u":
        rec["u"] = draw(st.one_of(_JUNK, st.lists(_JUNK, max_size=2)))
    elif broken == "key":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif broken == "extra":
        flow["zz"] = [1, 0]
    elif broken == "whole":
        rec = draw(_JUNK)
    tol = draw(st.sampled_from(["1e-9", "0", "0.5", "1e300", "nan", "inf",
                                "-1", "x"]))
    return {"vertices": vs, "wires": wires}, rec, tol


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


def test_flow_extend_fuzzed_records_never_trace_back(tmp_path, capsys):
    """Any flow record: either valid JSON of finite values, or exit 1 with
    one stderr line."""
    dp, fp = tmp_path / "d.json", tmp_path / "f.json"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_flow_cases())
    def check(case):
        diagram, rec, tol = case
        dp.write_text(json.dumps(diagram))
        fp.write_text(json.dumps(rec))
        code = run(["flow-extend", str(dp), str(fp), "--tol", tol]).exit_code
        out, err = capsys.readouterr()
        if code == 0:
            got = json.loads(out, parse_constant=_no_constants)
            assert set(got) == {"wires"} and not err
        else:
            assert code == 1, code
            assert err.startswith("error: ") and err.count("\n") == 1, err

    check()


def _ends_cleanly(code, out, err):
    """Exit 0 with empty stderr, exit 2 with {"error": "wild"} on stdout,
    or exit 1 with one stderr line."""
    if code == 0:
        assert not err, err
    elif code == 2:
        assert json.loads(out) == {"error": "wild"} and not err
    else:
        assert code == 1 and not out, code
        assert err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def _diagram_records(draw):
    """Diagram records with loops and dangling wires, well formed or with
    one part broken."""
    vs = draw(st.lists(st.sampled_from("abcd"), max_size=4, unique=True))
    end = st.sampled_from(vs + [None])
    wires = [{"id": f"e{i}", "tail": draw(end), "head": draw(end)}
             for i in range(draw(st.integers(0, 4)))]
    rec = {"vertices": vs, "wires": wires}
    broken = draw(st.sampled_from(["none", "none", "none", "endpoint",
                                   "vertex twice", "wire twice", "part", "key",
                                   "whole"]))
    if broken == "endpoint" and wires:
        wires[0][draw(st.sampled_from(["id", "tail", "head"]))] = draw(_JUNK)
    elif broken == "vertex twice" and vs:
        vs.append(vs[0])
    elif broken == "wire twice" and wires:
        wires.append(dict(wires[0]))
    elif broken == "part":
        rec[draw(st.sampled_from(sorted(rec)))] = draw(_JUNK)
    elif broken == "key":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif broken == "whole":
        rec = draw(_JUNK)
    return rec


def test_classify_fuzzed_diagrams_end_cleanly(tmp_path, capsys):
    path = tmp_path / "d.json"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_diagram_records())
    def check(rec):
        path.write_text(json.dumps(rec))
        code = run(["classify", str(path)]).exit_code
        out, err = capsys.readouterr()
        _ends_cleanly(code, out, err)
        if code == 0:
            assert set(json.loads(out)) == {"components"}

    check()


@st.composite
def _gen_random_cases(draw):
    """A diagram record, --dims text, --seed, --mode and maybe --key-out."""
    rec = draw(_diagram_records())
    wires = rec.get("wires") if isinstance(rec, dict) else None
    ids = [w.get("id") for w in wires if isinstance(w, dict)] if isinstance(
        wires, list) else []
    dims = {i: draw(st.integers(0, 2)) for i in ids if isinstance(i, str)}
    broken = draw(st.sampled_from(
        ["none", "none", "none", "value", "missing", "extra", "whole", "text"]))
    if broken == "value" and dims:
        dims[draw(st.sampled_from(sorted(dims)))] = draw(_JUNK)
    elif broken == "missing" and dims:
        del dims[draw(st.sampled_from(sorted(dims)))]
    elif broken == "extra":
        dims["zz"] = 1
    elif broken == "whole":
        dims = draw(_JUNK)
    text = "{not json" if broken == "text" else json.dumps(dims)
    seed = draw(st.sampled_from([0, 1, 7, -3, 2 ** 64 + 1, "x"]))
    mode = draw(st.sampled_from(
        ["generic", "generic", "sum", "sum", "sum-of-indecomposables", "x"]))
    return rec, text, str(seed), mode, draw(st.booleans())


def test_gen_random_fuzzed_requests_end_cleanly(tmp_path, capsys):
    dp, kp = tmp_path / "d.json", tmp_path / "key.json"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_gen_random_cases())
    def check(case):
        rec, dims, seed, mode, key = case
        dp.write_text(json.dumps(rec))
        argv = ["gen-random", str(dp), "--dims", dims, "--seed", seed,
                "--mode", mode] + (["--key-out", str(kp)] if key else [])
        code = run(argv).exit_code
        out, err = capsys.readouterr()
        _ends_cleanly(code, out, err)
        if code == 0:
            assert set(json.loads(out)) == {"diagram", "dims", "vertices"}

    check()


@st.composite
def _pairs_records(draw):
    """Pairs files of n x n grids, n <= 3, well formed (sometimes the same
    pair twice) or with one part broken."""
    entry = st.sampled_from(["0", "1", "-2/3", "3/2", 2])

    def grid(n):
        return [[draw(entry) for _ in range(n)] for _ in range(n)]

    n = draw(st.integers(0, 3))
    rec = {"A1": grid(n), "B1": grid(n)}
    if draw(st.booleans()):
        rec.update(A2=rec["A1"], B2=rec["B1"])
    else:
        rec.update(A2=grid(n), B2=grid(n))
    broken = draw(st.sampled_from(
        ["none", "none", "none", "entry", "ragged", "size", "part", "key",
         "whole"]))
    key = draw(st.sampled_from(sorted(rec)))
    if broken == "entry" and n:
        rec[key] = [[draw(_ENTRY)] + row[1:] for row in rec[key]]
    elif broken == "ragged" and n:
        rec[key] = rec[key][:-1] + [rec[key][-1] + ["1"]]
    elif broken == "size":
        rec[key] = grid(draw(st.integers(0, 3)))
    elif broken == "part":
        rec[key] = draw(_JUNK)
    elif broken == "key":
        del rec[key]
    elif broken == "whole":
        rec = draw(_JUNK)
    return rec


def test_wild_embed_fuzzed_pairs_end_cleanly(tmp_path, capsys):
    pp = tmp_path / "pairs.json"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_pairs_records())
    def check(rec):
        pp.write_text(json.dumps(rec))
        code = run(["wild-embed", str(pp), "--out", str(tmp_path)]).exit_code
        out, err = capsys.readouterr()
        _ends_cleanly(code, out, err)
        if code == 0 and json.loads(out)["witness"] is not None:
            assert json.loads(out)["witness"]["verified"] is True

    check()


# ---------------------------------------------------------------------------
# canonical JSON: the writer against json.dumps

def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_CHARS = "az09 -/\"\\\n\t\x00\x7f\u00e9\u00ff\u2603\ud800\U0001f600"


def _json_value(rng, depth):
    kinds = ["str", "int", "float", "bool", "none"]
    if depth < 4:
        kinds += ["list", "dict", "strings"] * 2
    kind = rng.choice(kinds)
    if kind == "str":
        return _json_str(rng)
    if kind == "int":
        return rng.choice([0, -1, 7, 10 ** 30, -(2 ** 70), rng.randint(-999, 999)])
    if kind == "float":
        return rng.choice([0.0, -0.0, 5.0, 1e-9, 1e300, -2.5e-308, float("inf"),
                           float("-inf"), float("nan"), rng.uniform(-1e6, 1e6)])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "strings":   # a grid row or a list of ids
        return [_json_str(rng) for _ in range(rng.randrange(5))]
    if kind == "list":
        return [_json_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {_json_str(rng): _json_value(rng, depth + 1)
            for _ in range(rng.randrange(5))}


def _json_str(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def test_canonical_json_writes_what_json_dumps_writes():
    rng = random.Random(26)
    for _ in range(500):
        obj = _json_value(rng, 0)
        assert canonical_json(obj) == _dumps(obj)


class _Str(str):
    pass


class _Int(int):
    pass


def _nested(k):
    """k lists, each holding the next; the innermost holds 1."""
    obj = 1
    for _ in range(k):
        obj = [obj]
    return obj


_WRITTEN = [
    {}, [], "", [[]], [{}], {"a": {}}, {"a": []}, [[["x"]], ["y", 1]],
    {"k": [True, False, None]}, "\u00e9\u2603", 1.5, float("nan"), True, None,
    _nested(100), [_nested(99), {"a": _nested(98)}],
]
_REFUSED = [
    (("a", 1), TypeError), ({"a": ("b", [2])}, TypeError),
    ({1: "x", 2: "y"}, TypeError), ({"a": 1, 2: "b"}, TypeError),
    ([_Str("s")], TypeError), ({"k": _Int(5)}, TypeError),
    ({_Str("k"): 1}, TypeError), (_Int(3), TypeError),
    ({"k": {1, 2}}, TypeError), ([b"x"], TypeError), ({"a": Q(1, 2)}, TypeError),
    (_nested(101), ValueError), ({"a": _nested(100)}, ValueError),
]


@pytest.mark.parametrize("obj", _WRITTEN, ids=lambda obj: repr(obj)[:40])
def test_canonical_json_writes_what_json_dumps_writes_up_to_100_levels(obj):
    assert canonical_json(obj) == _dumps(obj)


@pytest.mark.parametrize("obj, exc", _REFUSED, ids=lambda obj: repr(obj)[:40])
def test_canonical_json_refuses_what_no_command_returns(obj, exc):
    """A tuple, a subclass, a key that is no str, a value JSON cannot hold,
    or one nested past 100 levels: no command returns one, and the writer
    refuses it instead of writing it as json.dumps might."""
    with pytest.raises(exc):
        canonical_json(obj)


def test_canonical_json_refuses_a_circular_value():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="circular"):
        canonical_json(loop)


def test_grids_are_read_off_the_integer_rows():
    rng = random.Random(5)
    for _ in range(200):
        rows, cols = rng.randrange(4), rng.randrange(4)
        m = Matrix(rows, cols, [[Q(rng.randint(-12, 12), rng.randint(1, 12))
                                 for _ in range(cols)] for _ in range(rows)])
        assert _grid(m) == [[format_rational(x) for x in row]
                            for row in m.entries()]


def test_every_command_writes_canonical_json(tmp_path, capsys):
    """Each command's output, to stdout and to files, is what json.dumps
    writes of it."""
    dp = write(tmp_path, "d.json", DIAGRAM)
    rp = write(tmp_path, "r.json", REP)
    jp = write(tmp_path, "j1.json", J1_REP)
    wp = write(tmp_path, "w.json", {
        "diagram": WILD, "dims": {"e1": 1, "e2": 1},
        "vertices": {"v1": {"rows": 1, "cols": 1, "entries": [["1/2"]]}}})
    cycle = {"vertices": ["v1", "v2", "v3"],
             "wires": [{"id": "e1", "tail": "v1", "head": "v2"},
                       {"id": "e2", "tail": "v2", "head": "v3"},
                       {"id": "e3", "tail": "v3", "head": "v1"}]}
    cp = write(tmp_path, "c.json", cycle)
    fp = write(tmp_path, "f.json", {"wires": {"e2": [5.5, -0.25], "e3": [5.5, -0.25]},
                                    "u": ["v1", "v2"]})
    pp = write(tmp_path, "pairs.json", {"A1": [["2", "1/3"], ["0", "1"]],
                                        "B1": [["3", "0"], ["1", "-1/2"]],
                                        "A2": [["2", "1/3"], ["0", "1"]],
                                        "B2": [["3", "0"], ["1", "-1/2"]]})
    key = tmp_path / "key.json"
    out = tmp_path / "out.json"
    requests = [
        (["classify", dp], 0), (["classify", cp], 0),
        (["decompose", rp], 0), (["decompose", jp], 0), (["decompose", wp], 2),
        (["isotest", jp, jp], 0), (["contract", jp], 0),
        (["flow-extend", cp, fp], 0),
        (["wild-embed", pp, "--out", str(tmp_path / "w")], 0),
        (["gen-random", cp, "--dims", '{"e1": 2, "e2": 3, "e3": 2}',
          "--seed", "4"], 0),
        (["gen-random", cp, "--dims", '{"e1": 4, "e2": 4, "e3": 4}',
          "--seed", "4", "--mode", "sum", "--key-out", str(key)], 0),
        (["fmt", rp], 0), (["fmt", jp, "--out", str(out)], 0)]
    texts = []
    for argv, code in requests:
        assert run(argv).exit_code == code, argv
        texts.append(capsys.readouterr().out)
    texts += [key.read_text(), out.read_text(),
              (tmp_path / "w" / "needle1.json").read_text(),
              (tmp_path / "w" / "needle2.json").read_text()]
    for text in texts:
        if text:
            assert text == _dumps(json.loads(text))
    assert json.loads(texts[8])["witness"]["verified"] is True
