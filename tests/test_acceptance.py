"""One test per shipped acceptance criterion.

Each test prints the criterion's PASS/FAIL line with the measured numbers
(visible with -s or in failure output) and asserts the verdict.  Expensive
artifacts are shared through a module-scoped workspace, so the criteria run
with the same cached forwards and reconstructions the CLI selftest uses.
"""

import collections
import math

import pytest

from vslice import acceptance
from vslice.grid import default_spec
from vslice.specfun import method_constants


@pytest.fixture(scope="module")
def ws():
    return acceptance.Workspace()


def _run(fn, ws):
    res = fn(ws)
    print(res)
    assert res.passed, "%s — %s" % (res.title, res.detail)
    return res


def test_criterion_01_forward_equivalence(ws):
    _run(acceptance.criterion_1, ws)


def test_criterion_02_constant_slice_closed_form(ws):
    _run(acceptance.criterion_2, ws)


def test_criterion_03_basis_orthonormality(ws):
    _run(acceptance.criterion_3, ws)


def test_criterion_04_singular_relation(ws):
    _run(acceptance.criterion_4, ws)


def test_criterion_05_svd_round_trip(ws):
    _run(acceptance.criterion_5, ws)


def test_criterion_06_john_round_trips(ws):
    res = _run(acceptance.criterion_6, ws)
    # the even-route constant discrepancy must be reported, not silently absorbed
    assert any("scalar" in note for note in res.notes)


def test_n2_published_constant_relation(ws):
    # the best-fit scalar of the n = 2 john route times the published c_hat_2
    # is the exact constant -1/(2 pi) of the even formula
    rep = ws.report("john", acceptance.BUMP_N2, default_spec(2))
    product = method_constants(2).c_hat_n * rep.best_fit_scalar
    assert abs(product * 2.0 * math.pi + 1.0) < 1e-5


def test_criterion_07_hypersingular_inversion(ws):
    _run(acceptance.criterion_7, ws)


def test_criterion_08_analytic_continuation(ws):
    _run(acceptance.criterion_8, ws)


def test_criterion_09_log_identity(ws):
    _run(acceptance.criterion_9, ws)


def test_criterion_10_harmonic_dimensions(ws):
    _run(acceptance.criterion_10, ws)


def test_criterion_11_evenness(ws):
    _run(acceptance.criterion_11, ws)


def test_criterion_12_grid_convergence(ws):
    _run(acceptance.criterion_12, ws)


def test_workspace_times_are_exclusive(monkeypatch):
    # a build that triggers another build is not charged for it, so summing
    # the times of an artifact and its inputs counts each piece of work once
    clock = [0.0]
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: clock[0])
    ws = acceptance.Workspace()

    def build(key, before, after, inner=()):
        def run():
            clock[0] += before
            for k in inner:
                ws.get(*k)
            clock[0] += after
            return key
        return key, run

    leaf = build("leaf", 2.0, 0.0)
    mid = build("mid", 1.0, 3.0, inner=[leaf])
    top = build("top", 0.5, 0.25, inner=[mid, leaf])
    assert ws.get(*top) == "top"
    assert (ws.seconds("leaf"), ws.seconds("mid"), ws.seconds("top")) == (2.0, 4.0, 0.75)
    assert ws.get(*mid) == "mid" and ws.seconds("mid") == 4.0


def test_criteria_share_pipeline_stages(monkeypatch):
    # criteria 6, 8 and 12 on one workspace build each (stage, phantom, grid)
    # once: four pipelines at the default grids and four at the half grids,
    # and criterion 12's fine-grid figures are the reports of criteria 6 and 8
    ws = acceptance.Workspace()
    calls = collections.defaultdict(list)

    def spy(name, fn):
        def run(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return run

    for name in ("make_phantom", "vslice_forward", "compare"):
        monkeypatch.setattr(acceptance, name, spy(name, getattr(acceptance, name)))
    for route in ("john", "ac"):
        monkeypatch.setitem(acceptance._ROUTES, route, spy(route, acceptance._ROUTES[route]))
    reads = collections.defaultdict(list)
    report = ws.report

    def read(route, p, spec):
        reads[route, p, spec].append(report(route, p, spec))
        return reads[route, p, spec][-1]

    monkeypatch.setattr(ws, "report", read)
    for criterion in (acceptance.criterion_6, acceptance.criterion_8, acceptance.criterion_12):
        assert criterion(ws).passed

    counts = {name: len(args) for name, args in calls.items()}
    assert counts == {"make_phantom": 8, "vslice_forward": 8, "john": 4, "ac": 4, "compare": 8}
    assert set(calls["make_phantom"]) == {(p, spec) for _, p, spec in reads}
    for (route, p, spec), reps in reads.items():
        fine = spec == default_spec(spec.n)
        assert len(reps) == (2 if fine else 1)
        assert all(rep is reps[0] for rep in reps)


def test_criterion_result_lines():
    # run_acceptance and _run above both print results through this
    res = acceptance.CriterionResult(3, "title", False, "detail", ("a", "b"))
    assert str(res) == "FAIL   3  title — detail\n        note: a\n        note: b"
    assert str(acceptance.CriterionResult(12, "t", True, "d")) == "PASS  12  t — d"
