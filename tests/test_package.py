"""The public surface of the package, pinned so that adding or removing an
entry point is a visible change to this list."""

import importlib
import os
import sys
import types

import vslice

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")

PUBLIC = [
    "BallFunction", "CriterionResult", "Grid", "GridSpec", "MethodConstants", "Phantom",
    "SliceData", "SpectralCoeffs", "SphereFunction", "SvdConstants", "SvdIndex",
    "ValidationReport", "Workspace", "analyze", "binom_alt_sum", "cartesian_nodes",
    "check_equator_decay", "compare", "default_spec", "dual_radon",
    "finite_difference_normalizer", "full_transform", "gegenbauer_poly",
    "harmonic_dim", "inner_product_ball", "inner_product_slices", "inner_product_sphere",
    "invert_ac", "invert_ac_n2", "invert_ac_odd", "invert_even", "invert_hypersingular",
    "invert_john", "invert_odd", "is_even_slice_data", "jacobi_poly", "lift",
    "log_gamma", "log_kernel_identity", "make_grid", "make_phantom",
    "method_constants", "norm_ball", "norm_slices", "norm_sphere", "project",
    "radon_ball", "radon_norm", "read_json", "read_vsl", "reconstruct", "run_acceptance",
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
