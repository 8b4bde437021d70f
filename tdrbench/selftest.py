"""The benchmark's own tests.

    PYTHONPATH=src python3 -m unittest tdrbench/selftest.py -v

They check that a one-round run of every workload passes all its checks,
that every checker counts a deliberately wrong answer as failed, that each
workload reaches the layers it claims to and no others, that the tracer
refuses a target it cannot find, and that the command fails without
printing a result where there are no tdr sources.
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tdr  # noqa: E402
import tdr.cli  # noqa: E402,F401

import tracer  # noqa: E402

from gen import generate  # noqa: E402
from qla import (  # noqa: E402
    F, base_change, contract_value, is_irreducible, prod, rand_invertible,
)
from workloads import ISOLATION, REACHES, WORKLOADS, ingest  # noqa: E402

# pool scale for the in-process tests; the command always runs full pools
TINY = 0.1
OUT = os.path.join(HERE, "out")


def run_bench(workload, trace=0, cwd=ROOT, script=None):
    """The whole command; --seconds 0.01 makes it run one round."""
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.01",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class TinyRuns(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(sorted(res["metrics"]), sorted(
                    ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]))
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_runs_keep_to_their_layers(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(res["metrics"]), declared)
                for name in ISOLATION.get(workload, ()):
                    self.assertEqual(res["metrics"][name]["value"], 0, name)
                for name in REACHES[workload]:
                    self.assertGreater(res["metrics"][name]["value"], 0, name)
                self.assertIn("layer isolation: ok", proc.stderr)
                self.assertIn("layers reached: ok", proc.stderr)

    def test_tracer_refuses_a_missing_target(self):
        targets = tracer.TARGETS + [("exactalg", "no_such_function")]
        with mock.patch.object(tracer, "TARGETS", targets):
            t = tracer.Tracer()
            with self.assertRaises(LookupError):
                t.install()
        # the targets wrapped before the failure are put back
        self.assertFalse(hasattr(tdr.exactalg.rref, "__wrapped__"))
        self.assertFalse(hasattr(tdr.Matrix.__matmul__, "__wrapped__"))

    def test_fails_without_tdr_sources(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "tdrbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("open-paths", cwd=bare,
                             script=os.path.join(bare, "tdrbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def _wrong_decomposition(dec):
    """The same multiset with one multiplicity raised, or one block added."""
    if dec.blocks:
        (desc, mult), rest = dec.blocks[0], dec.blocks[1:]
        return tdr.Decomposition(((desc, mult + 1),) + rest)
    return tdr.Decomposition(((tdr.StringBlock(1, 1), 1),))


def _bump_first(obj):
    """Change the first number or boolean found in a JSON value."""
    if isinstance(obj, bool):
        return not obj, True
    if isinstance(obj, int):
        return obj + 1, True
    if isinstance(obj, list):
        for k, x in enumerate(obj):
            new, done = _bump_first(x)
            if done:
                return obj[:k] + [new] + obj[k + 1:], True
    if isinstance(obj, dict):
        for key in sorted(obj):
            new, done = _bump_first(obj[key])
            if done:
                return {**obj, key: new}, True
        for key in sorted(obj):
            if isinstance(obj[key], str):
                return {**obj, key: obj[key] + "x"}, True
    return obj, False


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))
    return text


class WrongAnswers(unittest.TestCase):
    """Every checker must count a wrong answer as a failed operation."""

    def setUp(self):
        self.work = os.path.join(OUT, f"selftest-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def ops(self, workload):
        return ingest(tdr, workload, generate(workload, 3, self.work, TINY))

    def test_decompose_checks(self):
        for workload in ("tame-cycles", "open-paths"):
            for op in self.ops(workload):
                got = op.run()
                self.assertTrue(op.check(got))
                self.assertFalse(op.check(_wrong_decomposition(got)))

    def test_contract_checks(self):
        for op in self.ops("closed-contract"):
            got = op.run()
            self.assertTrue(op.check(got))
            self.assertFalse(op.check(got + 1))

    def test_cli_checks(self):
        data = generate("cli-session", 3, self.work)
        ops = ingest(tdr, "cli-session", data)
        seen = set()
        for req, op in zip(data["requests"], ops):
            code, text = got = op.run()
            how = req["check"]
            seen.add(how)
            with self.subTest(argv=req["argv"][:2]):
                self.assertTrue(op.check(got))
                self.assertFalse(op.check((code + 1, text)))
                if how == "fmt-out":
                    old = _rewrite(req["out"], lambda t: tdr.cli.canonical_json(
                        _bump_first(json.loads(t))[0]))
                    self.assertFalse(op.check(got))
                    _rewrite(req["out"], lambda t: old)
                    continue
                if how == "fmt-again":
                    self.assertFalse(op.check((code, text.replace("\n", " ", 1))))
                    continue
                if how == "sum":
                    old = _rewrite(req["key"], lambda t: json.dumps(
                        [{**e, "mult": e["mult"] + 1} for e in json.loads(t)]))
                    self.assertFalse(op.check(got))
                    _rewrite(req["key"], lambda t: old)
                    continue
                obj = json.loads(text)
                if how == "generic":
                    wrong = copy.deepcopy(obj)
                    cell = next(c for c in wrong["vertices"].values() if c["entries"])
                    cell["entries"][0][0] = "10"
                elif how == "flow":
                    wrong = copy.deepcopy(obj)
                    wid = sorted(set(obj["wires"]) - set(req["fixed"]))
                    wid = wid[0] if wid else sorted(obj["wires"])[0]
                    wrong["wires"][wid][0] += 1e-6
                elif how == "wild-embed":
                    wrong = copy.deepcopy(obj)
                    p = wrong["witness"]["P"]
                    p[0][0] = str(Fraction(p[0][0]) + 1)
                else:
                    wrong, _ = _bump_first(obj)
                self.assertNotEqual(wrong, obj)
                self.assertFalse(op.check((code, tdr.cli.canonical_json(wrong))))
        self.assertEqual(seen, {"json", "generic", "sum", "fmt-out", "fmt-again",
                                "flow", "wild-embed"})


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        work = os.path.join(OUT, f"gen-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            for workload in WORKLOADS:
                one = json.dumps(generate(workload, 5, work, TINY))
                two = json.dumps(generate(workload, 5, work, TINY))
                other = json.dumps(generate(workload, 6, work, TINY))
                self.assertEqual(one, two)
                self.assertNotEqual(one, other)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_irreducibility(self):
        self.assertTrue(is_irreducible([F(1), F(0), F(1)]))       # x^2 + 1
        self.assertFalse(is_irreducible([F(-1), F(0), F(1)]))     # x^2 - 1
        self.assertFalse(is_irreducible([F(-1, 4), F(0), F(1)]))  # x^2 - 1/4
        self.assertTrue(is_irreducible([F(2), F(0), F(2), F(4), F(1)]))

    def test_contraction_against_brute_force(self):
        rng = random.Random(1)
        vs = ["a", "b", "c"]
        wires = [{"id": "w1", "tail": "a", "head": "b"},
                 {"id": "w2", "tail": "b", "head": "c"},
                 {"id": "w3", "tail": "c", "head": "a"},
                 {"id": "w4", "tail": "a", "head": "a"},
                 {"id": "w5", "tail": "b", "head": "c"}]
        dims = {"w1": 2, "w2": 3, "w3": 2, "w4": 2, "w5": 2}
        slots = {v: [(w["id"], "out") for w in sorted(wires, key=lambda w: w["id"])
                     if w["tail"] == v]
                 + [(w["id"], "in") for w in sorted(wires, key=lambda w: w["id"])
                    if w["head"] == v] for v in vs}
        tensors = {v: [F(rng.randint(-3, 3)) for _ in range(
            prod(dims[w] for w, _ in slots[v]))] for v in vs}
        total = F(0)
        ids = sorted(dims)
        for code in range(prod(dims[w] for w in ids)):
            idx, c = {}, code
            for w in ids:
                idx[w] = c % dims[w]
                c //= dims[w]
            term = F(1)
            for v in vs:
                flat = 0
                for w, _ in slots[v]:
                    flat = flat * dims[w] + idx[w]
                term *= tensors[v][flat]
            total += term
        self.assertEqual(contract_value(vs, wires, dims, tensors), total)
        gs = {w: rand_invertible(rng, d) for w, d in dims.items()}
        moved = base_change(wires, dims, tensors, gs)
        self.assertNotEqual(moved, tensors)
        self.assertEqual(contract_value(vs, wires, dims, moved), total)


if __name__ == "__main__":
    unittest.main()
