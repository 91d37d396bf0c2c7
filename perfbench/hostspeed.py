"""Host-speed probes: fixed work timed next to the items, to scale their times.

The benchmark shares a few cores of a host with other tenants, and a core's
speed swings by up to 2x within a second while a neighbour loads it.  No
repeat count averages that away when a single item runs for seconds.  So
the benchmark times a probe around each item (and, for long items, every
``INTERVAL_S`` while it runs), on the same core, and scales the item's time
by ``ref_ms / probe_ms``: every reported time is the time the item would
have taken at the host speed where the probe takes ``ref_ms``.

Two probes, each close in kind to the work it scales, and neither part of
the program under test:

- ``measure``, for in-process library work: building S4's multiplication
  table, summing fractions, and generating and relabelling a 60-vertex
  necklace with the benchmark's own generator, whose tuple, list, dict and
  Fraction work resembles the library's.
- ``measure_start``, for child processes (CLI items, set-up): a bare
  ``python -S -I -c pass``, an interpreter start that no change to the
  program can move.  Without ``-S`` the start also reads site-packages'
  ``.pth`` files, which varies more from one start to the next than the
  host's speed does.

``REF_MS`` and ``START_REF_MS`` are about the probes' fastest times on a
2-vCPU Xeon (Sapphire Rapids class) KVM guest under Python 3.11; they only
set the scale of the reported times.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

import gen

REF_MS = 0.9
START_REF_MS = 8.5
INTERVAL_S = 0.025

_S4 = gen.natural_group("S4")


def measure() -> float:
    """One timing of the library probe, in milliseconds."""
    t0 = time.perf_counter()
    gen.Group(_S4.gens, 4)
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i % 7 + 1, i)
    gen.shuffle_labels(random.Random(3), gen.zn_necklace(60, random.Random(5))[1])
    return (time.perf_counter() - t0) * 1000


def measure_start(env: dict, cwd) -> float:
    """One timing of a bare interpreter start, in milliseconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-I", "-c", "pass"], env=env, cwd=cwd, check=True, timeout=60)
    return (time.perf_counter() - t0) * 1000


def pin_to_one_core() -> None:
    """Keep this process and its children on one core, so a probe and the
    items it scales always run on the same one."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scale(before_ms: float, after_ms: float, ref_ms: float) -> float:
    """Factor that takes a time measured between two probe readings to the
    reference host speed."""
    return ref_ms / (before_ms * after_ms) ** 0.5


class Probe:
    """Times items and scales them to the reference host speed.

    Readings of ``probe`` are taken around each item (a fresh one at most
    every ``INTERVAL_S``).  With ``within=True`` a timer signal also takes
    one every ``INTERVAL_S`` while an item runs, so an item that lasts
    seconds is scaled piece by piece as the host's speed moves; the probe's
    own time is left out of the item's.  Items that wait on a child process
    on the same core must not use it, since the child would share the core
    with the probe.
    """

    def __init__(self, probe, ref_ms: float, within: bool):
        for _ in range(3):  # warm-up: caches, first-call costs
            probe()
        self.probe = probe
        self.ref_ms = ref_ms
        self.within = within
        self.last_ms = probe()
        self.at = time.perf_counter()
        self.marks = []  # (start, end, ms) of the readings taken inside an item
        self.active = False
        if within:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self.active:
            start = time.perf_counter()
            self.last_ms = self.probe()
            self.at = time.perf_counter()
            self.marks.append((start, self.at, self.last_ms))

    def _fresh(self) -> float:
        if time.perf_counter() - self.at > INTERVAL_S:
            self.last_ms = self.probe()
            self.at = time.perf_counter()
        return self.last_ms

    def start(self):
        before = self._fresh()
        self.marks = []
        self.active = True
        if self.within:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return before, time.perf_counter()

    def stop(self, started) -> tuple[float, float]:
        """(item seconds without the probe's own time, the same scaled)."""
        self.active = False
        end = time.perf_counter()
        if self.within:
            signal.setitimer(signal.ITIMER_REAL, 0)
        before, begin = started
        marks = self.marks
        after = self._fresh()
        # pieces of the item between readings, each scaled by the readings
        # on either side of it
        edges = [(begin, before)] + [(b, ms) for _, b, ms in marks]
        ends = [(a, ms) for a, _, ms in marks] + [(end, after)]
        raw = scaled = 0.0
        for (t0, left), (t1, right) in zip(edges, ends):
            raw += t1 - t0
            scaled += (t1 - t0) * scale(left, right, self.ref_ms)
        return raw, scaled
