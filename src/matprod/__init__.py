"""Monte Carlo lab for products of isotropic random matrices.

Samples i.i.d. isotropic matrix factors, tracks their running product on log
scale, estimates Lyapunov and stability exponents together with their Gaussian
fluctuations, and checks the estimates against closed-form reference spectra.
"""

__version__ = "0.1.0"

from .ensembles import (
    CustomSingular,
    EnsembleSpec,
    Ginibre,
    HaarScaled,
    ScalarLaw,
    TruncatedHaar,
    format_ensemble,
    parse_ensemble,
    sample_ginibre,
    sample_haar_unitary,
    sample_isotropic,
    sample_singular_values,
    sample_truncated_haar,
)
from .exponents import (
    AnalyticSpectrum,
    ExponentEstimate,
    ProductState,
    QrStreamResult,
    SpreadOverflowError,
    advance,
    analytic_spectrum,
    analytic_truncated_logdet,
    elog_chisq,
    init_state,
    lyapunov_qr_stream,
    single_step_estimate,
    stability_from_state,
    supports_analytic_spectrum,
)
from .linalg import (
    LqPair,
    NumericError,
    QrPair,
    SingularInputError,
    count_complex_pairs,
    lq_positive,
    qr_positive,
)
from .rng import RngStream

__all__ = [
    "__version__",
    "RngStream",
    "SingularInputError",
    "NumericError",
    "SpreadOverflowError",
    "QrPair",
    "LqPair",
    "qr_positive",
    "lq_positive",
    "count_complex_pairs",
    "ScalarLaw",
    "Ginibre",
    "TruncatedHaar",
    "HaarScaled",
    "CustomSingular",
    "EnsembleSpec",
    "parse_ensemble",
    "format_ensemble",
    "sample_ginibre",
    "sample_haar_unitary",
    "sample_truncated_haar",
    "sample_singular_values",
    "sample_isotropic",
    "ProductState",
    "init_state",
    "advance",
    "stability_from_state",
    "QrStreamResult",
    "lyapunov_qr_stream",
    "ExponentEstimate",
    "single_step_estimate",
    "AnalyticSpectrum",
    "analytic_spectrum",
    "supports_analytic_spectrum",
    "elog_chisq",
    "analytic_truncated_logdet",
]
