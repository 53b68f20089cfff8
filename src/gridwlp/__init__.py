"""gridwlp: exact linear algebra for power ideals of grid points on a quadric.

Builds the ideal generated by uniform powers of the linear forms dual to an
a x b grid on a smooth quadric in P^3, computes Hilbert functions and
multiplication-map ranks exactly over a large prime field (or the rationals),
and cross-checks closed-form predictions against brute-force linear algebra.
"""

from .field import (
    DEFAULT_PRIME,
    FieldDivisionError,
    NotPrimeError,
    PrimeField,
    PrimeTooSmallError,
    RationalField,
    SeedStream,
)
from .geometry import GridConfig, make_grid, sample_form, subgrid
from .ideals import (
    PowersHilbertTable,
    ci_power_dim_formula,
    ci_power_piece,
    fat_points_dim,
    fat_points_hf,
    fat_points_piece,
    macaulay_dual_check,
    perp_piece,
    powers_ideal_dim,
    powers_ideal_piece,
    socle_dims,
)
from .formulas import (
    NonSquareParams,
    SquareGridParams,
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
    bx_sequence,
    mult_map_analysis,
    non_lefschetz_probe,
    slp_probe,
    wlp_test,
)
from .linalg import (
    COLUMN_CAP,
    DimensionCapError,
    SubspaceBasis,
    kernel_basis,
    rank,
    union_dim,
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
