"""Host-speed calibration for the two host-time metrics.

The host this benchmark was built on changes speed by tens of percent
over seconds to minutes: CPU time equals wall time, yet identical
repetitions differ by up to 40 %, and the slow spells track memory
traffic from other tenants.  A fixed kernel that chases random
references through a large heap -- like the simulator does -- slows
down with the same spells, while small in-cache kernels do not.  So
``run.py`` samples this kernel between repetitions and scales
``ops_per_wall_s`` and ``setup_s`` by ``score / REFERENCE_SCORE``: both
then read as if the host ran the kernel at the reference speed.

The kernel runs in a helper process, started once per run and asked
for a sample only while the benchmark itself is idle, so its memory
stays out of the benchmark's peak RSS and its work never overlaps the
timed region.  The kernel is this file's own code; nothing in the
program under test changes its speed.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import List, Optional

#: Kernel passes per second on the reference host (a 2-vCPU Xeon VM at
#: a quiet moment).  It only sets the scale of the normalized figures.
REFERENCE_SCORE = 150.0

_HEAP_BYTES = 64 << 20
_OBJECTS = 200_000
_STEPS = 1_500


class _Obj:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a * 2
        self.c = 0


class _Heap:
    """The kernel's working set: objects, an index and a byte arena."""

    def __init__(self) -> None:
        self.objects = [_Obj(i) for i in range(_OBJECTS)]
        self.index = {i * 7: obj for i, obj in enumerate(self.objects)}
        self.arena = bytearray(_HEAP_BYTES)
        self.x = 12345

    def one_pass(self) -> int:
        """Random object, index and 4 KB-slice accesses across the heap."""
        objects, index, arena = self.objects, self.index, self.arena
        x = self.x
        acc = 0
        for _ in range(_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            obj = objects[x % _OBJECTS]
            obj.c = obj.a + 1
            acc += index[(x % _OBJECTS) * 7].b
            offset = (x % (_HEAP_BYTES - 4096)) & ~4095
            acc += arena[offset:offset + 4096][17]
        self.x = x
        return acc

    def score(self, seconds: float) -> float:
        """Kernel passes per second over at least ``seconds``."""
        start = time.perf_counter()
        passes = 0
        while True:
            self.one_pass()
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return passes / elapsed


class Calibrator:
    """The helper process; use as a context manager."""

    def __init__(self, seconds: float = 0.3) -> None:
        self.seconds = seconds
        self.samples: List[float] = []
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Calibrator":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def sample(self) -> float:
        proc = self._proc
        proc.stdin.write("%r\n" % self.seconds)
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited (code %s)"
                               % proc.poll())
        self.samples.append(float(line))
        return self.samples[-1]

    def __exit__(self, *exc: object) -> None:
        proc, self._proc = self._proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _serve() -> None:
    heap = _Heap()
    for line in sys.stdin:
        print(repr(heap.score(float(line))), flush=True)


if __name__ == "__main__":
    _serve()
