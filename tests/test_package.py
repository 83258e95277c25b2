"""The public surface of the package, pinned so that adding or removing an
entry point is a visible change to this list."""

import types

import vslice

PUBLIC = [
    "BallFunction", "CriterionResult", "Grid", "GridSpec", "MethodConstants", "Phantom",
    "SliceData", "SpectralCoeffs", "SphereFunction", "SvdConstants", "SvdIndex",
    "ValidationReport", "Workspace", "analyze", "binom_alt_sum", "cartesian_nodes",
    "check_equator_decay", "compare", "default_spec", "dual_radon",
    "finite_difference_normalizer", "full_transform", "gegenbauer_poly", "grid_step",
    "harmonic_dim", "inner_product_ball", "inner_product_slices", "inner_product_sphere",
    "invert_ac", "invert_ac_n2", "invert_ac_odd", "invert_even", "invert_hypersingular",
    "invert_john", "invert_odd", "is_even_slice_data", "jacobi_poly", "lift",
    "log_backprojection", "log_gamma", "log_kernel_identity", "make_grid", "make_phantom",
    "method_constants", "neg_laplacian", "norm_ball", "norm_slices", "norm_sphere", "project",
    "radon_ball", "radon_norm", "read_json", "read_vsl", "reconstruct", "run_acceptance",
    "sample_box", "slice_basis_grid", "slice_singular_function", "sph_harm", "sphere_area",
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
