"""Critical-line argument analysis.

Evaluates the normalized arguments (1/pi) Arg zeta(1/2 + i n) and
(1/pi) Arg Gamma(1/4 + i n/2), locates critical-line zeros and counts
them per unit interval, estimates the n-th zero in closed form via the
Lambert W function, expands the round-to-integer argument approximation
into exact integer combinations of pi, ln pi, and ln p over 8 pi, and
renders the count density as a graymap where the slow drift of the zero
density produces Moire waves.
"""

__version__ = "0.1.0"
GENERATOR_VERSION = f"zetaphase {__version__}"

from .argexpr import (
    SymbolicArgExpression,
    approx_arg_gamma,
    approx_arg_zeta,
    coeff_sequence,
    corrected_approx,
    main_term,
    p_adic_valuation,
    ruler_normalized,
    symbolic_expression,
)
from .estimate import (
    carrier_g,
    staircase,
    staircase_jumps,
    staircase_levels,
    zero_estimate_lambert,
)
from .render import DensityImage, beat_width, render_counts, write_pgm
from .special import (
    AtZeroError,
    arg_gamma_quarter,
    arg_zeta_principal,
    hardy_z,
    lambert_w0,
    theta_exact,
    theta_series,
    wrap_half_turns,
    zeta_critical_line,
)
from .zeros import (
    CoverageError,
    ScanConfig,
    UnitIntervalCounts,
    ZeroList,
    airy_counter,
    airy_counter_corrected,
    airy_neg_zeros,
    bessel_j0_counter,
    bessel_j0_counter_corrected,
    bessel_j0_zeros,
    counter_from_counting_function,
    floor_counter,
    interval_counts,
    read_zero_cache,
    scan_zeros,
    smooth_count,
    unit_interval_counts,
    write_zero_cache,
)

__all__ = [
    "AtZeroError",
    "CoverageError",
    "DensityImage",
    "GENERATOR_VERSION",
    "ScanConfig",
    "SymbolicArgExpression",
    "UnitIntervalCounts",
    "ZeroList",
    "airy_counter",
    "airy_counter_corrected",
    "airy_neg_zeros",
    "approx_arg_gamma",
    "approx_arg_zeta",
    "arg_gamma_quarter",
    "arg_zeta_principal",
    "beat_width",
    "bessel_j0_counter",
    "bessel_j0_counter_corrected",
    "bessel_j0_zeros",
    "carrier_g",
    "coeff_sequence",
    "corrected_approx",
    "counter_from_counting_function",
    "floor_counter",
    "hardy_z",
    "interval_counts",
    "lambert_w0",
    "main_term",
    "p_adic_valuation",
    "read_zero_cache",
    "render_counts",
    "ruler_normalized",
    "scan_zeros",
    "smooth_count",
    "staircase",
    "staircase_jumps",
    "staircase_levels",
    "symbolic_expression",
    "theta_exact",
    "theta_series",
    "unit_interval_counts",
    "wrap_half_turns",
    "write_pgm",
    "write_zero_cache",
    "zero_estimate_lambert",
    "zeta_critical_line",
]
