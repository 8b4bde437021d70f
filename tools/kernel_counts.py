"""Kernel calls per operation, by workload and op kind, over one benchmark round.

    python3 tools/kernel_counts.py

Each workload's seed-1 inputs are drawn by the benchmark's own generator
(tdrbench/gen.py) in a temporary directory and turned into operations by
its own ingest (tdrbench/workloads.py), as in tools/output_digest.py.  One
round runs untraced, so that tdr's caches stand as a timed round finds
them; the next runs under the benchmark's tracer (tdrbench/tracer.py),
and its call counts of exactalg's rank, rref and column_space and of
Matrix.__matmul__, with the products' multiplications (rows x inner x
cols), are split by op kind.  The counts are the traced run's
exactalg.*.calls, exact and repeating from run to run: run it in two
checkouts to compare them.  It writes nothing outside its temporary
directory.
"""

import os
import sys
import tempfile
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tdrbench")]

import tdr  # noqa: E402
from gen import generate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, ingest  # noqa: E402

SEED = 1
COLUMNS = ("rank", "matmul", "mults", "rref", "column_space")


def _tally(tracer):
    calls = dict(zip(tracer.names, tracer.calls))
    return Counter({c: calls[f"exactalg.{c}"] for c in COLUMNS if c != "mults"},
                   mults=tracer.sizes["exactalg.matmul.mults"])


def counts(workload):
    """{op kind: [ops, Counter of calls]} over one traced round."""
    out = defaultdict(lambda: [0, Counter()])
    with tempfile.TemporaryDirectory() as work:
        ops = ingest(tdr, workload, generate(workload, SEED, work))
        for op in ops:
            op.run()
        tracer = Tracer()
        tracer.install()
        try:
            for op in ops:
                before = _tally(tracer)
                op.run()
                out[op.kind][0] += 1
                out[op.kind][1].update(_tally(tracer) - before)
        finally:
            tracer.uninstall()
    return dict(sorted(out.items()))


def main():
    print("| workload | op kind | ops | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 3) + "|")
    for workload in WORKLOADS:
        table = counts(workload)
        table["all"] = (sum(n for n, _ in table.values()),
                        sum((c for _, c in table.values()), Counter()))
        for kind, (n, tally) in table.items():
            cells = [f"{tally[c] / n:.2f}" for c in COLUMNS]
            print(f"| {workload} | {kind} | {n} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
