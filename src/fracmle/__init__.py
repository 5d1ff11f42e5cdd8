"""Parameter estimation for SDEs driven by fractional Brownian motion (H > 1/2).

The pipeline: exact fBm simulation (circulant embedding), pathwise Euler
schemes for the state and its derivative equations, Malliavin-weight
Monte-Carlo estimates of the observation density and its parameter gradient,
and Robbins-Monro root finding on the resulting score.
"""

from .errors import (
    CapabilityError,
    ConfigError,
    DegenerateSeriesError,
    DivergenceError,
    EmbeddingError,
    FracmleError,
    NearSingularityError,
    NumericError,
    UnreliableScoreError,
)
from .estimator import (
    EstimationReport,
    StepSchedule,
    estimate_parameters,
    robbins_monro,
    validate_schedule,
)
from .fbm import (
    FbmPath,
    HurstParam,
    TimeGrid,
    estimate_hurst_rs,
    fbm_covariance,
    simulate_fbm,
    weighted_inner,
)
from .likelihood import (
    Budget,
    Observations,
    ScoreValue,
    allocate_budget,
    estimate_V,
    estimate_W,
    estimate_density,
    score,
)
from .malliavin import (
    AdditiveKernels,
    PathBundle,
    derivative_first,
    derivative_second,
    grad_h_weight,
    h_weight,
    malliavin_matrix,
    skorohod_U,
    theta_gradient,
)
from .models import ModelSpec, get_model, ou_oracle, register_model
from .pathwise import (
    ControlledCoeffs,
    SolutionPath,
    euler_solve,
    linear_solve,
    young_integral,
)

__version__ = "0.1.0"
