"""One SHA-256 per (workload, seed) over the outputs of one benchmark round.

    python3 tools/output_digest.py [--seeds 1 2]

Each workload's inputs are drawn by the benchmark's own generator
(tdrbench/gen.py) in a temporary directory and turned into operations by
its own ingest (tdrbench/workloads.py); every operation then runs once, in
this process, against the tdr of this checkout's src/.  The digest covers
the decomposition answers (in the benchmark's form and as tdr's repr, in
its order), the contraction values and, for cli-session,
each command's exit code and stdout and every file in the work directory
after the round, keyed by its path there; the temporary directory's own
path is written as <work>.  Run it in two checkouts: equal lines mean the
same outputs.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tdrbench")]

import tdr  # noqa: E402
from gen import generate  # noqa: E402
from workloads import WORKLOADS, decomposition_answer, ingest  # noqa: E402


def digest(workload, seed):
    """The hex SHA-256 of one round of workload at seed."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:

        def feed(obj):
            text = json.dumps(obj, sort_keys=True).replace(work, "<work>")
            h.update(text.encode() + b"\n")

        for op in ingest(tdr, workload, generate(workload, seed, work)):
            got = op.run()
            if workload == "closed-contract":
                feed(tdr.format_rational(got))
            elif workload == "cli-session":
                feed(list(got))
            else:   # the answer as the benchmark checks it, and in tdr's order
                feed([decomposition_answer(tdr, got), repr(got)])
        files = []
        for top, _, names in os.walk(work):
            files += [os.path.join(top, name) for name in names]
        for path in sorted(files, key=lambda p: os.path.relpath(p, work)):
            with open(path, encoding="utf-8") as fh:
                feed([os.path.relpath(path, work), fh.read()])
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    for workload in WORKLOADS:
        for seed in args.seeds:
            print(workload, seed, digest(workload, seed), flush=True)


if __name__ == "__main__":
    main()
