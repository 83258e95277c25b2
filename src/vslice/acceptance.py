"""Runnable acceptance checks for every shipped numerical guarantee.

Each criterion function takes a Workspace — a lazy cache so the expensive
forward maps and reconstructions are computed once and shared — and returns
a CriterionResult.  run_acceptance executes the requested subset and prints
one PASS/FAIL line per criterion; hard failures flip `passed`, while the
documented constant-discrepancy reports ride along as notes.
"""

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    GridSpec,
    default_spec,
    inner_product_ball,
    inner_product_slices,
    inner_product_sphere,
    lift,
    make_grid,
)
from .harness import Phantom, compare, make_phantom
from .invert_ac import _ac_constant, full_transform, invert_ac
from .invert_hs import DEFAULT_EPS, invert_hypersingular
from .invert_john import invert_john
from .invert_svd import reconstruct, slice_basis_grid, sphere_basis_grid, svd_index_set
from .specfun import harmonic_dim, method_constants, svd_constants
from .xform import _asymmetry, log_kernel_identity, vslice_direct, vslice_forward

HALF_N2 = GridSpec(2, 128, 48, 64)
HALF_N3 = GridSpec(3, 16, 24, 32)

BUMP_N2 = Phantom(kind="bump", center=(0.3, -0.2, 0.93), width=0.7)
BUMP_N3 = Phantom(kind="bump", center=(0.0, 0.0, 0.3, 0.95), width=0.7)
MARGIN_N2 = Phantom(kind="bump", center=(0.3, -0.2, 0.93), width=0.7, equator_margin=0.25)
MARGIN_N3 = Phantom(kind="bump", center=(0.0, 0.0, 0.3, 0.95), width=0.7, equator_margin=0.25)

_ROUTES = {
    "john": invert_john,
    # the continuation formulas take the full (doubled) transform
    "ac": lambda F: invert_ac(full_transform(F)),
    "hs": invert_hypersingular,
}


class Workspace:
    """Lazy artifact store; remembers how long each build took.

    The artifacts are the stages of one pipeline, phantom -> slices -> rec ->
    report, each built by the recipe of that name and stored under the key
    (stage, *arguments): `ws.slices(p, spec)` is ("slices", p, spec), and
    `ws.rec(route, p, spec)` is ("rec", route, p, spec).  Phantom and GridSpec
    are frozen, so equal descriptions share one artifact.

    Times are exclusive: a build that fetches another artifact for the first
    time (a rec building its slices) is not charged for that nested build, so
    adding the times of several artifacts counts each piece of work once.
    """

    def __init__(self):
        self._val = {}
        self._sec = {}
        self._nested = []  # per open build: inclusive seconds of builds nested in it

    def get(self, key, build):
        if key not in self._val:
            self._nested.append(0.0)
            t0 = time.perf_counter()
            try:
                value = build()
            finally:
                elapsed = time.perf_counter() - t0
                nested = self._nested.pop()
                if self._nested:
                    self._nested[-1] += elapsed
            self._val[key] = value
            self._sec[key] = elapsed - nested
        return self._val[key]

    def seconds(self, key):
        """Exclusive wall time of the build of `key`."""
        return self._sec[key]

    # pipeline stages -------------------------------------------------------
    def phantom(self, p, spec):
        return self.get(("phantom", p, spec), lambda: make_phantom(p, spec))

    def slices(self, p, spec):
        return self.get(("slices", p, spec), lambda: vslice_forward(self.phantom(p, spec)))

    def rec(self, route, p, spec):
        """The `route` reconstruction (john, ac or hs, at its defaults) from
        the slices of p."""
        return self.get(("rec", route, p, spec), lambda: _ROUTES[route](self.slices(p, spec)))

    def report(self, route, p, spec):
        return self.get(
            ("report", route, p, spec),
            lambda: compare(self.phantom(p, spec), self.rec(route, p, spec), method=route),
        )


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    notes: tuple = field(default_factory=tuple)

    def __str__(self):
        """The PASS/FAIL line, then one line per note."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = ["%s  %2d  %s — %s" % (verdict, self.number, self.title, self.detail)]
        return "\n".join(lines + ["        note: %s" % note for note in self.notes])


def _rel_l2_change(a, b):
    na = inner_product_sphere(a, a)
    d = na + inner_product_sphere(b, b) - 2.0 * inner_product_sphere(a, b)
    return math.sqrt(max(d, 0.0) / na)


def criterion_1(ws):
    """Forward equivalence: an independent chord quadrature vs the spectral
    forward, at every (direction, offset) node."""
    spec = default_spec(2)
    F = ws.slices(BUMP_N2, spec)
    grid = F.grid
    direct = ws.get(("direct", BUMP_N2, spec), lambda: vslice_direct(
        ws.phantom(BUMP_N2, spec), grid.ang[:, None, :], grid.t))
    dev = float(np.max(np.abs(direct - F.values)) / np.max(np.abs(F.values)))
    runtime = ws.seconds(("slices", BUMP_N2, spec)) + ws.seconds(("direct", BUMP_N2, spec))
    passed = dev <= 1e-6 and runtime < 10.0
    return CriterionResult(
        1, "forward equivalence (n=2)", passed,
        "max rel deviation %.2e (tol 1e-6), runtime %.1fs (< 10s)" % (dev, runtime),
    )


def criterion_2(ws):
    """Slice transform of the constant function has the closed arc-length form."""
    F = ws.slices(Phantom(kind="even_constant"), default_spec(2))
    want = math.pi * np.sqrt(1.0 - F.grid.t**2)
    err = float(np.max(np.abs(F.values - want)))
    return CriterionResult(
        2, "constant slice closed form (n=2)", err <= 1e-8,
        "max abs error %.2e (tol 1e-8)" % err,
    )


def criterion_3(ws):
    """Gram matrices of both singular families are the identity."""
    lam = 1.0
    grid = make_grid(HALF_N2)
    idx = svd_index_set(2, 8)
    etas = [lift(sphere_basis_grid(nu, lam, grid)) for nu in idx]
    zetas = [slice_basis_grid(nu, lam, grid) for nu in idx]
    worst = 0.0
    for i in range(len(idx)):
        for j in range(i, len(idx)):
            want = 1.0 if i == j else 0.0
            worst = max(worst, abs(inner_product_ball(etas[i], etas[j], lam) - want))
            worst = max(worst, abs(inner_product_slices(zetas[i], zetas[j], "w_tilde", lam) - want))
    return CriterionResult(
        3, "basis orthonormality (n=2, band 8)", worst <= 1e-3,
        "worst Gram deviation %.2e over %d indices (tol 1e-3)" % (worst, len(idx)),
    )


def criterion_4(ws):
    """Forward map sends each sphere-side basis element to its slice partner."""
    worst = 0.0
    anchor = svd_constants(2, 1.0, (0, 1, 0)).s_nu
    anchor_err = abs(anchor - 2.0 * math.sqrt(math.pi))
    for n, lam, band, spec in ((2, 1.0, 10, HALF_N2), (3, 1.5, 6, HALF_N3)):
        grid = make_grid(spec)
        for nu in svd_index_set(n, band):
            s = svd_constants(n, lam, nu).s_nu
            F = vslice_forward(sphere_basis_grid(nu, lam, grid))
            want = s * slice_basis_grid(nu, lam, grid).values
            worst = max(worst, float(np.max(np.abs(F.values - want)) / s))
    passed = worst <= 1e-3 and anchor_err <= 1e-10
    return CriterionResult(
        4, "singular relation (bands 10 / 6)", passed,
        "worst sup error %.2e x s_nu (tol 1e-3); anchor |s - 2 sqrt(pi)| = %.1e"
        % (worst, anchor_err),
    )


def criterion_5(ws):
    """Spectral round trips: exact on the matching band, monotone on a bump."""
    lam = 1.0
    spec = default_spec(2)
    basis = Phantom(kind="basis", nu=(2, 1, 1), lam=lam)
    rec = reconstruct(ws.slices(basis, spec), lam=lam, band=4)
    banded = compare(ws.phantom(basis, spec), rec).rel_l2

    bump, F = ws.phantom(BUMP_N2, spec), ws.slices(BUMP_N2, spec)
    errs = [compare(bump, reconstruct(F, lam=lam, band=b)).rel_l2 for b in (4, 8, 12)]
    passed = banded <= 1e-3 and errs[0] >= errs[1] >= errs[2]
    return CriterionResult(
        5, "SVD round trip", passed,
        "band-limited rel L2 %.2e (tol 1e-3); bump errors %.3f / %.3f / %.3f over bands 4/8/12"
        % (banded, *errs),
    )


def criterion_6(ws):
    """Filtered-backprojection round trips at the default grids."""
    notes = []
    cases = ((BUMP_N2, default_spec(2)), (BUMP_N3, default_spec(3)))
    rep2, rep3 = (ws.report("john", p, spec) for p, spec in cases)
    run2, run3 = (ws.seconds(("slices", p, spec)) + ws.seconds(("rec", "john", p, spec))
                  for p, spec in cases)

    passed = (
        rep2.rel_l2_after_scale <= 0.02
        and rep3.rel_l2_after_scale <= 0.02
        and rep3.rel_l2 <= 0.05
        and 0.9 <= rep3.best_fit_scalar <= 1.1
        and run2 < 60.0
        and run3 < 60.0
    )
    if not 0.9 <= rep2.best_fit_scalar <= 1.1:
        notes.append(
            "n=2 scalar %.5f outside [0.9, 1.1], reported per the criterion's "
            "constant-discrepancy clause (published even constant; rel_l2 %.2f "
            "follows from the same scalar); c_hat_2 x scalar = %.7f against "
            "-1/(2 pi) = %.7f"
            % (rep2.best_fit_scalar, rep2.rel_l2,
               method_constants(2).c_hat_n * rep2.best_fit_scalar, -0.5 / math.pi)
        )
    return CriterionResult(
        6, "John round trips (n=2, n=3)", passed,
        "shape error %.2f%% / %.2f%%; n=3 scalar %.4f, rel %.3f; runtimes %.0fs / %.0fs"
        % (100 * rep2.rel_l2_after_scale, 100 * rep3.rel_l2_after_scale,
           rep3.best_fit_scalar, rep3.rel_l2, run2, run3),
        tuple(notes),
    )


def criterion_7(ws):
    """Hypersingular route: accuracy, eps stability, cross-method agreement."""
    spec = default_spec(2)
    rec = ws.rec("hs", BUMP_N2, spec)
    rep = ws.report("hs", BUMP_N2, spec)
    halved = invert_hypersingular(ws.slices(BUMP_N2, spec), eps=DEFAULT_EPS / 2.0)
    eps_change = _rel_l2_change(rec, halved)
    cross = compare(ws.rec("john", BUMP_N2, spec), rec).rel_l2_after_scale
    passed = rep.rel_l2_after_scale <= 0.03 and eps_change <= 0.01 and cross <= 0.03
    return CriterionResult(
        7, "hypersingular inversion (n=2)", passed,
        "shape error %.2f%% (tol 3%%); eps-halving change %.2e (tol 1e-2); vs John %.2f%%"
        % (100 * rep.rel_l2_after_scale, eps_change, 100 * cross),
    )


def criterion_8(ws):
    """Continuation formulas on equator-avoiding bumps, both dimensions.

    On the doubled data V = 2 V_+ both formulas are john's filtered
    backprojection with their own constant, so what relates them to john is
    the ratio of the constants, an exact identity: 2 lambda_3 sigma_3 / c_3 = 1
    and 2 (-sigma_2 / (8 pi^2)) / c_hat_2 = -1/sqrt(pi), to a few ulp.
    """
    rep2 = ws.report("ac", MARGIN_N2, default_spec(2))
    rep3 = ws.report("ac", MARGIN_N3, default_spec(3))
    # the constants invert_ac uses, against invert_john's
    ratio2 = 2.0 * _ac_constant(2) / method_constants(2).c_hat_n
    ratio3 = 2.0 * _ac_constant(3) / method_constants(3).c_n
    want2 = -1.0 / math.sqrt(math.pi)
    ulps2 = abs(ratio2 - want2) / math.ulp(want2)
    ulps3 = abs(ratio3 - 1.0) / math.ulp(1.0)

    passed = (
        rep2.rel_l2_after_scale <= 0.02
        and rep3.rel_l2_after_scale <= 0.02
        and ulps2 <= 4
        and ulps3 <= 4
    )
    return CriterionResult(
        8, "analytic continuation round trips", passed,
        "shape error %.2f%% / %.2f%%; scalars %.4f / %.4f (recorded); "
        "ac/john constants %.17g (-1/sqrt(pi), %.0f ulp) / %.17g (1, %.0f ulp; tol 4)"
        % (100 * rep2.rel_l2_after_scale, 100 * rep3.rel_l2_after_scale,
           rep2.best_fit_scalar, rep3.best_fit_scalar, ratio2, ulps2, ratio3, ulps3),
    )


def criterion_9(ws):
    """Closed-form log moment used by the even-dimensional filters."""
    val = log_kernel_identity()
    err = abs(val + math.log(2.0))
    return CriterionResult(
        9, "log kernel identity", err <= 1e-6,
        "quadrature %.8f vs -log 2, error %.1e (tol 1e-6)" % (val, err),
    )


def criterion_10(ws):
    """Spherical harmonic dimension counts in both ambient dimensions."""
    ok3 = all(harmonic_dim(3, m) == 2 * m + 1 for m in range(21))
    ok2 = all(harmonic_dim(2, m) == 2 for m in range(1, 21))
    return CriterionResult(
        10, "harmonic dimension formulas", ok3 and ok2,
        "d_3(m) = 2m+1 for m <= 20: %s; d_2(m) = 2 for 1 <= m <= 20: %s" % (ok3, ok2),
    )


def criterion_11(ws):
    """Every forward map output is even: F(-theta, -t) = F(theta, t)."""
    cases = [
        (spec, p)
        for spec, lam, bump, margin in (
            (HALF_N2, 1.0, BUMP_N2, MARGIN_N2),
            (HALF_N3, 1.5, BUMP_N3, MARGIN_N3),
        )
        for p in (
            Phantom(kind="even_constant"),
            Phantom(kind="axial_power", p=2),
            Phantom(kind="basis", nu=(2, 1, 1), lam=lam),
            bump,
            margin,
        )
    ]
    worst = max(_asymmetry(ws.slices(p, spec)) for spec, p in cases)
    return CriterionResult(
        11, "evenness of slice data", worst <= 1e-10,
        "worst rel asymmetry %.2e over %d phantoms (tol 1e-10)" % (worst, len(cases)),
    )


def criterion_12(ws):
    """John and continuation errors strictly decrease from half to full grids."""
    pairs = [
        ("%s n=%d" % (route, coarse.n),
         ws.report(route, p, coarse).rel_l2_after_scale,
         ws.report(route, p, default_spec(coarse.n)).rel_l2_after_scale)
        for route, p, coarse in (
            ("john", BUMP_N2, HALF_N2),
            ("john", BUMP_N3, HALF_N3),
            ("ac", MARGIN_N2, HALF_N2),
            ("ac", MARGIN_N3, HALF_N3),
        )
    ]
    passed = all(coarse > fine for _, coarse, fine in pairs)
    return CriterionResult(
        12, "dyadic grid convergence", passed,
        "; ".join("%s %.2e -> %.2e" % (name, coarse, fine) for name, coarse, fine in pairs),
    )


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
    criterion_7, criterion_8, criterion_9, criterion_10, criterion_11, criterion_12,
)


def run_acceptance(numbers=None, stream=None):
    """Run the requested criteria (all by default); print one line each."""
    out = stream if stream is not None else sys.stdout
    ws = Workspace()
    results = []
    for k, fn in enumerate(CRITERIA, start=1):
        if numbers is not None and k not in numbers:
            continue
        res = fn(ws)
        results.append(res)
        print(res, file=out)
    return results
