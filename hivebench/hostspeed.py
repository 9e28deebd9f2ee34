"""Host-speed reference, so timings taken minutes apart compare.

On shared vCPUs the same pass can take 0.8 s or 1.3 s depending on what
else the host runs, and that speed drifts over minutes.  A fixed loop that
uses none of hivemem's code is timed before and after every measured
stretch.  Each timing is then scaled to a host on which that loop takes
``REFERENCE_LOOP_S``.  On one host, over 200 s of back-to-back
eval-learned passes, medians of 32 consecutive wall times ranged
0.89-1.20 s; the same medians after scaling ranged within 9%.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

# The loop's time on an unloaded 2-vCPU host, where scaled and wall
# seconds agree.  A constant: both sides of a comparison use the same one.
REFERENCE_LOOP_S = 0.050
_ITERATIONS = 6000


def reference_loop() -> float:
    """Seconds taken by a fixed mix of small numpy ops, hashing and JSON."""
    rng = np.random.default_rng(0)
    weights, x = rng.normal(size=(32, 64)), rng.normal(size=64)
    table: dict[bytes, str] = {}
    total = 0.0
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        total += float(np.tanh(weights @ x + 1.0).sum())
        key = hashlib.blake2b(str(i).encode(), digest_size=8).digest()
        table[key] = json.dumps({"i": i, "total": total})
        if len(table) > 500:
            table.clear()
    return time.perf_counter() - start


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_LOOP_S * 2 / (loop_before + loop_after)
