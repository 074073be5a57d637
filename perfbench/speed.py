"""Host-speed probe: rescale a round's wall times to a reference host speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within minutes, as neighbours come and go; a fixed piece of Python
work then takes anywhere from 1x to 2x its fast time. The probe measures
that drift while the measured code runs: a wall-clock interval timer
(``SIGALRM``) interrupts the round every :data:`INTERVAL_S` seconds and
times a fixed pure-Python kernel, in the same thread and on the same
CPU as the session. For a window of the round (its set-up, one session)
:meth:`SpeedProbe.rescale` removes the probe's own time and multiplies
the rest by the window's mean host speed raised to :data:`SENSITIVITY`,
where a tick's speed is :data:`REFERENCE_S` divided by that tick's
kernel time. The result is the window's time in seconds at the reference
speed: the speed at which the kernel takes :data:`REFERENCE_S`, about the
fast end of the hosts the benchmark was tuned on.

The kernel touches no ``repro`` code and allocates nothing, so a change
to the program moves the rescaled times as it moves the wall times, and
peak memory is unaffected. Python runs a signal handler between
bytecodes, so a tick that falls inside a long C call waits for it.
"""

from __future__ import annotations

import signal
import time
from array import array

#: Seconds between two ticks of the probe.
INTERVAL_S = 0.05

#: Loop iterations of the kernel timed at each tick.
KERNEL_ITERATIONS = 20_000

#: Kernel time, in seconds, that defines the reference host speed.
REFERENCE_S = 1.0e-3

#: How much more a session slows down than the kernel when the host slows
#: down: session time goes as kernel time to this power. Fitted by least
#: squares on log times over rounds of fixed inputs of all three workloads,
#: in two separate sets of rounds (per session 1.13-1.46, most near 1.3);
#: with it the rescaled times spread about a third less than with 1.
SENSITIVITY = 1.3


def _kernel() -> int:
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i & 7
    return total


class SpeedProbe:
    """Ticks of the kernel: when each started and how long it took."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.kernel_s = array("d")

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.kernel_s.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, wall_s: float, begin: float, end: float) -> tuple[float, float]:
        """(wall_s at the reference speed, mean speed) of ``[begin, end)``.

        ``begin`` and ``end`` are ``time.perf_counter()`` readings;
        ``wall_s`` is the time measured over that window, which may start
        earlier than ``begin`` (set-up is timed from process spawn).
        """
        ticks = [k for s, k in zip(self.starts, self.kernel_s) if begin <= s < end]
        if not ticks:
            raise RuntimeError(
                f"no probe tick in a {end - begin:.3f} s window; "
                "the window is too short to rescale"
            )
        speed = sum(REFERENCE_S / k for k in ticks) / len(ticks)
        return (wall_s - sum(ticks)) * speed**SENSITIVITY, speed
