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


def test_cli_import_leaves_heavy_scipy_out():
    # every CLI call starts with this import; scipy's interpolate, optimize,
    # linalg and sparse would add about 0.3 s to it, and no computation needs them
    code = "import sys; sys.path.insert(0, %r); import vslice.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code % os.path.join(ROOT, "src")],
        capture_output=True, text=True, check=True,
    )
    heavy = {"scipy.interpolate", "scipy.optimize", "scipy.linalg", "scipy.sparse"}
    assert not heavy & set(out.stdout.split())


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
