"""The public surface of the package, pinned so that adding or removing an
entry point is a visible change to this list."""

import ast
import glob
import importlib
import importlib.util
import os
import subprocess
import sys
import types

import pytest

import vslice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

PUBLIC = [
    "BallFunction", "CriterionResult", "Grid", "GridSpec", "MethodConstants", "Phantom",
    "SliceData", "SpectralCoeffs", "SphereFunction", "SvdConstants", "SvdIndex",
    "ValidationReport", "Workspace", "analyze", "binom_alt_sum", "cartesian_nodes",
    "check_equator_decay", "compare", "default_spec", "dual_radon",
    "finite_difference_normalizer", "full_transform", "gegenbauer_poly",
    "harmonic_dim", "inner_product_ball", "inner_product_slices", "inner_product_sphere",
    "invert_ac", "invert_hypersingular", "invert_john", "is_even_slice_data", "jacobi_poly",
    "lift",
    "log_gamma", "log_kernel_identity", "make_grid", "make_phantom",
    "method_constants", "norm_ball", "norm_slices", "norm_sphere", "project",
    "radon_norm", "read_json", "read_vsl", "reconstruct", "run_acceptance",
    "slice_basis_grid", "slice_singular_function", "sph_harm", "sphere_area",
    "sphere_basis_grid", "sphere_coefficients", "sphere_singular_function", "spherical_mean",
    "svd_constants", "svd_index_set", "svd_table", "synthesize_forward", "synthesize_sphere",
    "vslice_direct", "vslice_forward", "write_json", "write_vsl",
]

# what benchmarks/workloads.py calls through the package namespace
BENCHMARK_CALLS = [
    "GridSpec", "Phantom", "SliceData", "SvdIndex", "compare", "default_spec",
    "full_transform", "harmonic_dim", "invert_ac", "invert_hypersingular", "invert_john",
    "make_phantom", "method_constants", "read_vsl", "reconstruct", "slice_basis_grid",
    "sphere_coefficients", "svd_constants", "synthesize_sphere", "vslice_forward", "write_vsl",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(vslice).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC)


def test_benchmark_names_are_public():
    assert set(BENCHMARK_CALLS) <= set(PUBLIC)


def test_benchmark_trace_layers_exist():
    # `--trace 1` wraps the modules benchmarks/layers.py names and counts the
    # hs resampler where invert_hs looks it up; both must stay importable
    sys.path.insert(0, BENCHMARKS)
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(BENCHMARKS)
    for name in layers.MODULES:
        importlib.import_module("vslice." + name)
    assert callable(importlib.import_module("vslice.invert_hs").map_coordinates)


RUN_PATHS = """
import os, sys, tempfile
sys.path.insert(0, %r)
import vslice.cli
import vslice as vs
from vslice.acceptance import BUMP_N3, HALF_N2, HALF_N3, MARGIN_N2

for spec, phantom in ((HALF_N2, MARGIN_N2), (HALF_N3, BUMP_N3)):
    f = vs.make_phantom(phantom, spec)
    F = vs.vslice_forward(f)
    vs.vslice_forward(vs.SphereFunction(f.grid, f.smooth, f.boundary_exponent))
    vs.invert_john(F)
    vs.reconstruct(F)
    if spec.n == 2:
        vs.invert_ac(F)
        vs.invert_hypersingular(F)
        with tempfile.TemporaryDirectory() as tmp:
            vs.write_vsl(os.path.join(tmp, "F.vsl"), F)
            vs.read_vsl(os.path.join(tmp, "F.vsl"))
print(*sys.modules)
"""


def test_run_paths_leave_scipy_out():
    # scipy is a test dependency only: the CLI import, both forwards and every
    # inversion at both n, and a .vsl round trip load none of it, so no call
    # pays its 0.35-0.45 s start-up
    out = subprocess.run(
        [sys.executable, "-c", RUN_PATHS % os.path.join(ROOT, "src")],
        capture_output=True, text=True, check=True,
    )
    loaded = [m for m in out.stdout.split() if m == "scipy" or m.startswith("scipy.")]
    assert not loaded


IMPORT_CACHES = """
import sys
sys.path.insert(0, %r)
import vslice
for name, module in sorted(sys.modules.items()):
    if name == "vslice" or name.startswith("vslice."):
        for owner in [module] + [c for c in vars(module).values() if isinstance(c, type)]:
            for attr, f in vars(owner).items():
                if hasattr(f, "cache_info"):
                    print(name, getattr(owner, "__name__", ""), attr, f.cache_info().currsize)
"""


def test_import_fills_no_cache():
    # importing the package builds no grid, rule or kernel: every lru_cache
    # of its modules, on their classes too, is empty in a fresh process, so
    # set-up time is the imports and the calls a run makes itself
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CACHES % os.path.join(ROOT, "src")],
        capture_output=True, text=True, check=True,
    )
    rows = [line.split() for line in out.stdout.splitlines()]
    assert len(rows) >= 15 and {r[-2] for r in rows} >= {"make_grid", "_forward_kernel"}
    assert [r for r in rows if r[-1] != "0"] == []


def _demo_imports(path):
    """Names a demo imports from vslice, and the vslice modules it imports from."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vslice":
            modules.add(node.module)
            names.update(alias.name for alias in node.names)
    return names, modules


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_names_are_public(path):
    names, modules = _demo_imports(path)
    assert modules == {"vslice"}
    assert names <= set(PUBLIC)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location("demo_" + os.path.basename(path)[:-3], path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.strip()
