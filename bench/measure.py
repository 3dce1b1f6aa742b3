"""Timing shared by the workloads: calibrated job loops and quantiles.

The machine the benchmark was written on changes speed by up to 2x,
within seconds and over minutes (README.md, *Noise*).  So every timed
interval is bracketed by a fixed calibration run right before and right
after it, and reported in *reference seconds*: the measured time scaled
by the nominal calibration time over the measured one.  A change to
schemekit does not touch the calibrations, so it moves only the
measured time.
"""

from __future__ import annotations

import math
import resource
import subprocess
import sys
import time

# Steps of the calibration loop and its nominal duration.  The loop is
# pure-Python exact arithmetic, like most of schemekit's work.
CAL_STEPS = 6000
CAL_NOMINAL_S = 0.02

# The cold-start calibration: a fresh interpreter importing numpy, which
# no change to schemekit touches.  It tracks the cost of starting a
# process, which the loop above does not.
COLD_CAL_CODE = "import numpy"
COLD_CAL_NOMINAL_S = 0.2


class _Rational:
    """A bare rational number: the calibration loop needs no import, so
    it can also run in a fresh process before schemekit is imported."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other):
        return _Rational(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __mul__(self, other):
        return _Rational(self.num * other.num, self.den * other.den)


def calibrate():
    """Seconds taken by the fixed calibration loop."""
    start = time.perf_counter()
    s = _Rational(0)
    for i in range(1, CAL_STEPS):
        s = s + _Rational(1, i % 97 + 1) * _Rational(3, i % 13 + 2)
    return time.perf_counter() - start


def cold_calibrate(env):
    """Seconds taken by a fresh interpreter running COLD_CAL_CODE."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_CAL_CODE], env=env,
                   check=True, capture_output=True, timeout=150)
    return time.perf_counter() - start


def scale(seconds, cals, nominal=CAL_NOMINAL_S):
    """`seconds` in reference seconds, given calibrations taken around
    the interval."""
    return seconds * nominal * len(cals) / sum(cals)


def scale_pass(raw, cals, nominal=CAL_NOMINAL_S):
    """Latencies of one pass in reference seconds; `cals` are the
    calibrations before the first job and after every job."""
    return [scale(seconds, cals[i:i + 2], nominal)
            for i, seconds in enumerate(raw)]


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(jobs_per_pass):
    """Highest quantile with at least ten jobs of one pass beyond it."""
    return max(jobs_per_pass - 10, 1) / jobs_per_pass


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_jobs(jobs, calibrated=False, tracer=None):
    """One pass: run every job in order and time each one.

    With `calibrated`, the calibration loop runs before the first job
    and after every job (`cals`).  Outcomes are (output, exception class
    name or "").
    """
    raw, outcomes = [], []
    cals = [calibrate()] if calibrated else []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            out, error = job.fn(), ""
        except Exception as exc:  # the outcome is checked after the pass
            out, error = exc, type(exc).__name__
        raw.append(time.perf_counter() - t0)
        outcomes.append((out, error))
        if calibrated:
            cals.append(calibrate())
    return {"wall": sum(raw), "raw": raw, "cals": cals, "outcomes": outcomes}
