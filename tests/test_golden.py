"""A float64 train step and ``evaluate`` against committed goldens, on any machine.

``tests/parity.py`` is bitwise and holds on one machine only. These values,
written by ``tests/make_golden.py`` (see there for the step, the seeds and the
data), hold on any: in float64 two machines differ by BLAS kernel rounding,
about 1e-15 relative. So a change that only reorders a sum passes, and one that
moves a number, such as a slipped constant or a mis-ordered tap, fails.
"""

import math
import os

import pytest

from golden_values import METRICS, STEP
from guidedepth import blocks as B
from make_golden import record

TOL = 1e-9


@pytest.mark.threads
@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("guidance", B.GUIDANCE_TYPES)
def test_step_and_evaluate_match_the_goldens(monkeypatch, guidance, cores):
    """Each recorded sum and entry lies within ``TOL`` times its array's L2 norm
    (a plain sum can cancel), and each sum of squares and metric within rtol
    ``TOL``, whichever of 1, 2 or 4 cores the batch-wide ops split over."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    arrays, metrics = record(guidance)
    want = STEP[guidance]
    assert list(arrays) == list(want)
    off = []
    for name, (total, squares, *entries) in arrays.items():
        w_total, w_squares, *w_entries = want[name]
        atol = TOL * math.sqrt(w_squares)
        for what, got, ref in [("sum", total, w_total), *zip(("first", "middle", "last"), entries, w_entries)]:
            if not abs(got - ref) <= atol:
                off.append(f"{name} {what} {got!r} != {ref!r}")
        if not abs(squares - w_squares) <= TOL * w_squares:
            off.append(f"{name} sum of squares {squares!r} != {w_squares!r}")
    assert list(metrics) == list(METRICS[guidance])
    for name, got in metrics.items():
        ref = METRICS[guidance][name]
        if not abs(got - ref) <= TOL * abs(ref):
            off.append(f"metric {name} {got!r} != {ref!r}")
    assert not off, f"{len(off)} values off the goldens: " + "; ".join(off[:8])
