"""Calibrate op times to the speed of the host.

On a shared host the same op can take 1.6 times as long from one second
to the next, as neighbours load the physical cores. A fixed piece of
CPython work, the reference kernel, runs next to the ops; each op's wall
time is scaled by NOMINAL_S over the kernel's latest time. What a host
phase does to both cancels, and what the program does to its ops stays.
The kernel uses no srv6bench code, so a change to the program cannot move
it.
"""

from __future__ import annotations

import gc
import json
import time

# The kernel's median time on the 2-vCPU Xeon host (2.1 GHz) where the
# reference figures were measured, so calibrated times read as seconds on
# that host when it is calm.
NOMINAL_S = 0.0006
# The kernel is re-timed before an op when its last timing is this old.
INTERVAL_S = 0.02


class _Header:
    __slots__ = ("kind", "address", "weight")

    def __init__(self, kind: int, address: bytes, weight: float = 0.0):
        if kind < 0:
            raise ValueError("kind must be non-negative")
        self.kind = kind
        self.address = address
        self.weight = weight


_DOC = {"rates": [1.5, 2.5, {"label": "z" * 20}], "counts": list(range(20))}


def kernel() -> int:
    """Object construction, bytes, dict and JSON work, as the program does."""
    total = 0
    for i in range(30):
        header = _Header(i, b"\x00" * 16, i * 0.5)
        moved = _Header(i + 1, header.address, header.weight)
        wire = moved.kind.to_bytes(4, "big") + moved.address + bytes([i & 255, 3])
        total += int.from_bytes(wire[0:4], "big") + (wire[4:20] == header.address)
        total += len(json.loads(json.dumps(_DOC))["counts"])
        total += len(sorted([moved.weight, header.weight, 1.0]))
    return total


class Clock:
    """Scale factors that turn wall seconds into calibrated seconds."""

    def __init__(self):
        self._timed_at = float("-inf")
        self._scale = 1.0
        self.kernel_s: list[float] = []
        kernel()  # the first call pays for warming caches

    def scale(self) -> float:
        """NOMINAL_S / the kernel's time, re-timed when INTERVAL_S old."""
        if time.perf_counter() - self._timed_at >= INTERVAL_S:
            # no collection inside the kernel: its cost depends on the
            # program's heap, which would leak into the calibration
            gc.disable()
            try:
                started = time.perf_counter()
                kernel()
                elapsed = time.perf_counter() - started
            finally:
                gc.enable()
            self.kernel_s.append(elapsed)
            self._scale = NOMINAL_S / elapsed
            self._timed_at = time.perf_counter()
        return self._scale
