"""fslab: spectral laboratory for a fractional Schroedinger model equation.

Solves (i d_t + D^{2s}) u = (D^{-(2s-1)} |u|^2) D^{2s-1} u by Picard
iteration on a periodic lattice and numerically probes the harmonic-analysis
toolbox behind it: dyadic/modulation/cone projections, the cone multiplier
N_e and weight K, the adapted X_k / Y_k^e / Z_k / F^sigma / N^sigma norms,
smoothing/maximal/trilinear estimate ratios, and the stationary-phase and
level-set-measure bounds.
"""

from .spectral import (
    Grid,
    Field,
    Trajectory,
    SpacetimeSpectrum,
    ZeroModeError,
    make_grid,
    dft_forward,
    dft_inverse,
    fractional_symbol,
    apply_fractional,
    linear_propagate,
    free_evolution,
    spacetime_dft,
    spacetime_idft,
    hdot_norm,
)
from .lp import (
    ConeAtlas,
    ProjectionSpec,
    build_cone_atlas,
    project,
    modulation_split,
)
from .cone import (
    ConeParams,
    AdmissiblePoint,
    n_multiplier,
    k_weight,
    s1_factorization_check,
    verify_n_properties,
    factorization_decomposition,
    verify_factorization_envelope,
)
from .norms import (
    MixedNormSpec,
    mixed_norm,
    axis_cone_atlas,
    xk_norm,
    yk_norm,
    zk_upper,
    f_sigma_norm,
    n_sigma_norm,
    InputFamily,
    verify_estimate,
)
from .oscillatory import (
    PhaseIntegralSpec,
    DecayFit,
    sphere_phase_integral,
    dispersive_integral,
    fit_dispersive_decay,
    l1_sup_profile,
    sigma_measure,
)
from .solver import (
    NonlinearityTerm,
    NonlinearitySpec,
    SolveConfig,
    SolveResult,
    default_nonlinearity,
    apply_nonlinearity,
    duhamel_map,
    picard_solve,
    residual_check,
    continuous_dependence_probe,
)
from .fslb_io import read_fslb, write_fslb

__version__ = "0.1.0"
