"""Certify Schwartz-regularity of planar operators
B = sum c[j,k] (x - q D_y)^j (y + p D_x)^k by exact reduction to a
one-variable model, with FFT-based verification of the intertwining identity.

The certify pipeline is ``wigreg.pipeline.certify``; ``wigreg.certify`` is
the module of certificates and certifiers.
"""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    NewtonFamilyParams,
    QuadraticCoeffs,
    RegularityVerdict,
    extract_quadratic_coeffs,
    first_order_certify,
    hypo_certify_first_order,
    hypo_certify_newton,
    hypo_certify_quadratic,
    hypo_falsify,
    injectivity_quadratic,
    injectivity_sos,
    injectivity_wick,
    recognize_first_order,
    recognize_newton_family,
    verify_certificate,
)
from .exact import GaussianRational, MultiPoly, parse_rational
from .hermite import Hermite, PolyGauss, apply_model_operator, hermite_values
from .pipeline import (
    PositivityError,
    Report,
    emit_report,
    generate_from_positive_symbol,
    generate_quasi_homogeneous,
    parse_spec,
)
from .spectral import (
    BoundaryDecayWarning,
    apply_operator_2d,
    intertwine_residual,
    wick_energy_compare,
)
from .symbols import (
    LinearChange,
    OperatorSpec,
    a_tilde,
    build_b_symbol,
    symbol_compose,
    t_conjugate,
    verify_degeneracy,
    weyl_wick,
    weyl_wick_inverse,
)
from .wigner import (
    BoundaryDecayError,
    Grid2D,
    GridFunction2D,
    read_grid,
    wig_forward,
    wig_inverse,
    write_grid,
)

__all__ = [
    "BoundaryDecayError",
    "BoundaryDecayWarning",
    "Certificate",
    "GaussianRational",
    "Grid2D",
    "GridFunction2D",
    "Hermite",
    "LinearChange",
    "MultiPoly",
    "NewtonFamilyParams",
    "OperatorSpec",
    "PolyGauss",
    "PositivityError",
    "QuadraticCoeffs",
    "RegularityVerdict",
    "Report",
    "a_tilde",
    "apply_model_operator",
    "apply_operator_2d",
    "build_b_symbol",
    "emit_report",
    "extract_quadratic_coeffs",
    "first_order_certify",
    "generate_from_positive_symbol",
    "generate_quasi_homogeneous",
    "hermite_values",
    "hypo_certify_first_order",
    "hypo_certify_newton",
    "hypo_certify_quadratic",
    "hypo_falsify",
    "injectivity_quadratic",
    "injectivity_sos",
    "injectivity_wick",
    "intertwine_residual",
    "parse_rational",
    "parse_spec",
    "read_grid",
    "recognize_first_order",
    "recognize_newton_family",
    "symbol_compose",
    "t_conjugate",
    "verify_certificate",
    "verify_degeneracy",
    "weyl_wick",
    "weyl_wick_inverse",
    "wick_energy_compare",
    "wig_forward",
    "wig_inverse",
    "write_grid",
]
