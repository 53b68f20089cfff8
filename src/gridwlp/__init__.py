"""gridwlp: exact linear algebra for power ideals of grid points on a quadric.

Builds the ideal generated by uniform powers of the linear forms dual to an
a x b grid on a smooth quadric in P^3, computes Hilbert functions and
multiplication-map ranks exactly over a large prime field (or the rationals),
and cross-checks closed-form predictions against brute-force linear algebra.
"""

import os as _os
import sys as _sys

# OpenBLAS starts its thread pool when numpy loads, and its workers spin
# then, before any product. So numpy is loaded with one thread, unless a
# caller loaded it first or chose a count, and the variable is gone again
# before anything can inherit it. This is the only place gridwlp sets the
# thread count.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .field import (
    DEFAULT_PRIME,
    FieldDivisionError,
    NotPrimeError,
    PrimeField,
    PrimeTooSmallError,
    RationalField,
    SeedStream,
)
from .geometry import GridConfig, make_grid, sample_form
from .ideals import (
    PowersHilbertTable,
    ci_power_piece,
    fat_points_dim,
    fat_points_hf,
    fat_points_hfs,
    fat_points_piece,
    perp_piece,
    powers_ideal_dim,
    socle_dims,
)
from .formulas import (
    ci_power_dim_formula,
    compressed_gorenstein_hf,
    coker_formula_geproci,
    ext_binom,
    low_degree_ideal_dim,
    nonsquare_coker,
    square_coker_and_delta,
    wlp_verdict_theorem_a,
)
from .lefschetz import (
    BxSequence,
    MultMapReport,
    WlpReport,
    best_maps,
    bx_sequence,
    mult_map_analysis,
    non_lefschetz_probe,
    slp_probe,
    wlp_test,
    wlp_verdict,
)
from .linalg import (
    COLUMN_CAP,
    DimensionCapError,
    kernel_basis,
    rank,
)
from .polyspace import (
    BIGRADED,
    TOTAL3,
    TOTAL4,
    Grading,
    PolyVector,
    graded_basis,
    linear_form,
    linear_power,
    poly_mul,
)

__version__ = "0.1.0"
