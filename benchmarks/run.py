#!/usr/bin/env python3
"""Benchmark of vslice: the forward map and the inversions at the default grids.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  One run sets up the workload's inputs from the seed,
then makes whole rounds of timed calls until ``--seconds`` have passed,
checks every output, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``forward_s``, ``invert_s``);
with ``--trace 1`` they are the per-layer ones from a traced run, plus the
tracing overhead measured against an untraced run of the same seed.
Details of each run go to ``benchmarks/out/``.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 1
SETUP_SAMPLES = 3  # set-ups per run: this process and SETUP_SAMPLES - 1 fresh ones


def blas_threads():
    """Cap BLAS/OpenMP threads at the cores this process may use (at most 2)."""
    count = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = count


def require_source():
    if not os.path.isfile(os.path.join(SRC, "vslice", "__init__.py")):
        sys.exit("benchmark: no program source at %s" % os.path.join(SRC, "vslice"))


class Runner:
    """Times each op, counts attempts and failures, records checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds = []  # per round: {label: (kind, [seconds of each call])}
        self.records = []  # (round, label, quantity, value, limit or None, ok)
        self.warned = {}  # label -> warnings raised inside the op
        self.times = {}  # label -> time of every call, over all rounds and repeats

    def op(self, label, kind, fn, needs=True, repeats=1):
        """Run fn `repeats` times as one timed op; returns the last output, or
        None if a call failed.  An op label may recur in a round; its time in
        the round is the median of all its calls there.

        An op whose input (`needs`) is None because an earlier op failed is
        counted as attempted and failed without being called.
        """
        self.attempted += repeats
        if needs is None:
            self.failed += repeats
            return None
        tr = self.tracer
        times = []
        out = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(repeats):
                if tr is not None:
                    tr.op, tr.active = label, True
                start = time.perf_counter()
                try:
                    out = fn()
                except Exception:  # an op failure is counted, the run goes on
                    traceback.print_exc(file=sys.stderr)
                    out = None
                times.append(time.perf_counter() - start)
                if tr is not None:
                    tr.active = False
                if out is None:
                    self.failed += 1
        if caught:
            self.warned[label] = self.warned.get(label, 0) + len(caught)
        self.times.setdefault(label, []).extend(times)
        if out is not None:
            self.rounds[-1].setdefault(label, (kind, []))[1].extend(times)
        return out

    @staticmethod
    def ok(out):
        return out is not None

    def check(self, label, quantity, value, limit):
        ok = bool(value <= limit)
        self.correct = self.correct and ok
        self.records.append((len(self.rounds), label, quantity, float(value), limit, ok))

    def note(self, label, quantity, value):
        self.records.append((len(self.rounds), label, quantity, float(value), None, True))

    def kind_seconds(self, kind):
        """Median over rounds of the summed time of the round's ops of `kind`."""
        sums = [sum(statistics.median(t) for k, t in r.values() if k == kind)
                for r in self.rounds]
        return statistics.median(sums)

    def op_medians(self):
        labels = {label for r in self.rounds for label in r}
        return {
            label: statistics.median(statistics.median(r[label][1])
                                     for r in self.rounds if label in r)
            for label in labels
        }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up and reports its time
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # internal: the untraced run a traced run compares against
    p.add_argument("--no-probes", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def result_path(args, trace):
    return os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, trace))


def setup_probe(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def untraced_twin(args):
    """Result of the untraced run of the same workload and seed: the one
    already recorded in this checkout, else a fresh run in its own process."""
    path = result_path(args, 0)
    if os.path.isfile(path):
        with open(path) as fh:
            return json.load(fh)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--no-probes"]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=170, check=True)
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    args = parse_args(argv)
    require_source()
    blas_threads()
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, HERE)
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("benchmark: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    setup, run_round, teardown, min_rounds = workloads.WORKLOADS[args.workload]

    twin = untraced_twin(args) if args.trace else None
    sys.path.insert(0, SRC)
    import vslice as vs

    tracer, wrap = None, lambda f: f
    if args.trace:
        tracer, wrap = layers.start(vs)
        tracer.op, tracer.active = "setup", True
    state = setup(vs, args.seed, wrap)
    setup_s = time.perf_counter() - T0
    if tracer is not None:
        tracer.active = False
    if args.setup_probe:
        print("%.9f" % setup_s)
        return 0

    runner = Runner(tracer)
    begin = time.perf_counter()
    try:
        while True:
            runner.rounds.append({})
            run_round(vs, state, runner)
            done = time.perf_counter() - begin >= args.seconds
            if done and len(runner.rounds) >= min_rounds:
                break
    finally:
        if teardown is not None:
            teardown(state)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": runner.rounds, "op_median_s": runner.op_medians(),
        "checks": runner.records, "warnings": runner.warned,
    }
    if args.trace:
        metrics = layers.metrics(tracer, runner, twin)
        with open(result_path(args, 1)[: -len(".json")] + ".spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
        report["ops"] = layers.op_table(tracer, runner, twin)
        layers.print_table(tracer, runner, report["ops"])
    else:
        samples = [setup_s]
        if not args.no_probes:
            samples += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        report["setup_samples_s"] = samples
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "forward_s": {"value": runner.kind_seconds("forward"), "unit": "s"},
            "invert_s": {"value": runner.kind_seconds("invert"), "unit": "s"},
        }
    report["metrics"] = metrics
    with open(result_path(args, args.trace), "w") as fh:
        json.dump(report, fh, indent=1)

    for rnd, label, quantity, value, limit, ok in runner.records:
        if rnd == 1 or not ok:
            bound = "" if limit is None else ("<= %.3g %s" % (limit, "ok" if ok else "FAILED"))
            print("round %d  %-22s %-18s %.6g %s" % (rnd, label, quantity, value, bound))
    for label, seconds in sorted(runner.op_medians().items()):
        print("op %-24s median %.4f s over %d rounds" % (label, seconds, len(runner.rounds)))
    for label, count in runner.warned.items():
        print("op %-24s raised %d warnings" % (label, count))
    print(json.dumps({
        "correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
