"""Matrix-exponential to phase-type conversion."""

from .config import DEFAULT_TOL, ToleranceConfig
from .core import MERep, moments, pdf_eval, pdf_eval_many
from .deconv import DeconvParams, choose_mu, deconvolve, recompose, zero_multiplicity
from .errors import (
    DecViolationError,
    InvalidRepresentationError,
    Me2PhError,
    NumericError,
    PositiveDensityError,
)
from .monocyclic import FEBlock, MonocyclicRep, build_generator, fe_block_for, solve_gamma
from .pipeline import ConversionReport, PaperBounds, convert
from .spectral import (
    SpectralData,
    SpectralTerm,
    analyze_spectrum,
    check_c_conditions,
    check_dec,
    cluster_eigenvalues,
    minimal_representation,
)
from .tail import (
    BoundsReport,
    PHRep,
    TailChoice,
    append_tail,
    compute_bounds,
    find_tau,
    phrep_cdf_grid,
    phrep_moments,
    phrep_pdf,
    smallest_tail,
    to_dense,
)
from .validate import (
    EquivalenceVerdict,
    check_equivalence,
    check_markovian,
    check_positive_density,
    ks_threshold,
    monte_carlo_check,
)

__version__ = "0.1.0"
