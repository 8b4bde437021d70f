"""A fixed piece of exact-arithmetic work that tracks the machine's speed.

On a shared machine the speed of the interpreter drifts by up to 2x over
tens of seconds, in step for any Fraction-heavy Python code.  The worker
runs reference() just before every operation and scales the operation's
time by REF_NS / (local reference time): figures are then in milliseconds
at the reference speed, and the drift cancels while a change in tdr's own
speed does not, since this code never calls tdr.
"""

import random
import statistics

from qla import F, inverse, matmul, rand_invertible

# nominal duration of one reference() call; only sets the scale
REF_NS = 1_500_000

_rng = random.Random("tdrbench:reference")
_A = [[F(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(5)] for _ in range(5)]
_B = rand_invertible(_rng, 5)


def reference():
    return matmul(matmul(_A, _B), inverse(_B))


def speed_factors(ref_ns, window=9):
    """Per-sample factor REF_NS / median of the reference times around it."""
    half = window // 2
    out = []
    for i in range(len(ref_ns)):
        local = ref_ns[max(0, i - half):i + half + 1]
        out.append(REF_NS / statistics.median(local))
    return out
