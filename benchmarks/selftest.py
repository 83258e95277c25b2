#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic: python3 benchmarks/selftest.py

Checks the span self-time bookkeeping against a fake clock and the slice
oracle against closed forms.  It needs no program source and is not part of
the repository's test suite.
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


class FakeClock:
    """Returns scripted times; each call advances to the next one."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time():
    # outer [0, 10] calls inner [1, 3] and inner [4, 8]: outer self 10 - 2 - 4 = 4
    clock = FakeClock([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    tr = tracing.Tracer(clock)
    inner = tr.wrap("m.inner", lambda: None, count=lambda a, k, r: {"m.points": 5})

    def outer_body():
        inner()
        inner()

    outer = tr.wrap("m.outer", outer_body)
    tr.active, tr.op = True, "op"
    outer()
    tr.active = False
    expect(tr.self_times() == [4.0, 2.0, 4.0], "self times %r" % tr.self_times())
    counts = dict(tr.counts)
    expect(counts == {("op", "m.inner_calls"): 2, ("op", "m.points"): 10,
                      ("op", "m.outer_calls"): 1}, "counters %r" % counts)
    expect(sum(tr.self_times()) == 10.0, "self times add up to the outer span")
    outer()  # inactive: no clock reads, no spans
    expect(len(tr.spans) == 3 and clock.times == [], "inactive tracer recorded")


def test_install_rebinds_callers():
    import types

    lib = types.ModuleType("lib")
    exec("def work(x):\n    return 2 * x\n", lib.__dict__)
    lib.work.__module__ = "lib"
    user = types.ModuleType("user")
    user.work = lib.work
    exec("def run(x):\n    return work(x) + 1\n", user.__dict__)
    tr = tracing.Tracer()
    undo = tracing.install(tr, [lib], [lib, user])
    tr.active = True
    expect(user.run(3) == 7, "wrapped result")
    expect([s[0] for s in tr.spans] == ["lib.work"], "span seen through the caller's name")
    undo()
    expect(user.work is lib.work and not hasattr(lib.work, "__wrapped__"), "restored")


def test_oracle_closed_forms():
    ts = np.linspace(-0.95, 0.95, 9)
    for n in (2, 3):
        dev = oracle.check_constant(n, ts)
        expect(dev <= 1e-13, "n=%d constant: %.2e" % (n, dev))
    # x_{n+1}^2 over the half slice: pi r^3 / 2 (circle), 2 pi r^4 / 3 (2-sphere)
    square = lambda pts: pts[..., -1] ** 2
    for t in ts:
        r = math.sqrt(1.0 - t * t)
        got2 = oracle.half_slice_integral(square, np.array([0.6, 0.8]), t)
        got3 = oracle.half_slice_integral(square, np.array([0.0, 0.6, 0.8]), t)
        expect(abs(got2 - math.pi * r**3 / 2) <= 1e-13, "n=2 x3^2 at t=%g" % t)
        expect(abs(got3 - 2 * math.pi * r**4 / 3) <= 1e-13, "n=3 x4^2 at t=%g" % t)


def test_oracle_points_on_slice():
    for theta in (np.array([0.6, 0.8]), np.array([0.48, 0.6, 0.64])):
        pts, _ = oracle.slice_points(theta, 0.3, 16)
        expect(np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14), "points on S^n")
        expect(np.allclose(pts[:, :-1] @ theta, 0.3, atol=1e-14), "points on the slice")


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print("selftest: %d tests passed" % len(tests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
