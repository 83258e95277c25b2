"""Vertical slice transform on the sphere: forward model and inversion methods.

Computes integrals of functions on the unit sphere S^n (n = 2, 3) over the
circles cut by planes parallel to a fixed axis, and reconstructs the even part
of the function from that slice data by four routes: reduction to a Radon
transform on the ball followed by backprojection and a Laplacian, a
hypersingular finite-difference inversion, a singular value decomposition,
and analytic continuation of spherical means.  The continued formulas reduce
to the first route's filtered backprojection with their own constants, so
only the first three are independent of one another.
"""

from .acceptance import CriterionResult, Workspace, run_acceptance
from .cartesian import cartesian_nodes
from .grid import (
    BallFunction,
    Grid,
    GridSpec,
    SliceData,
    SphereFunction,
    default_spec,
    inner_product_ball,
    inner_product_slices,
    inner_product_sphere,
    lift,
    make_grid,
    norm_ball,
    norm_slices,
    norm_sphere,
    project,
)
from .harness import (
    Phantom,
    ValidationReport,
    compare,
    make_phantom,
    read_json,
    read_vsl,
    write_json,
    write_vsl,
)
from .invert_ac import check_equator_decay, full_transform, invert_ac
from .invert_hs import invert_hypersingular
from .invert_john import invert_john
from .invert_svd import (
    SpectralCoeffs,
    analyze,
    reconstruct,
    slice_basis_grid,
    slice_singular_function,
    sphere_basis_grid,
    sphere_coefficients,
    sphere_singular_function,
    svd_index_set,
    svd_table,
    synthesize_forward,
    synthesize_sphere,
)
from .specfun import (
    MethodConstants,
    SvdConstants,
    SvdIndex,
    binom_alt_sum,
    finite_difference_normalizer,
    gegenbauer_poly,
    harmonic_dim,
    jacobi_poly,
    log_gamma,
    method_constants,
    radon_norm,
    sph_harm,
    sphere_area,
    svd_constants,
)
from .xform import (
    dual_radon,
    is_even_slice_data,
    log_kernel_identity,
    spherical_mean,
    vslice_direct,
    vslice_forward,
)

__version__ = "0.1.0"
