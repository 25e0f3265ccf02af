"""Numerical laboratory for reset-driven Floquet quantum channels: build the
channel from a spin-chain Hamiltonian plus periodic bath reset, analyze its
non-Hermitian spectrum (bulk laws, outliers, exceptional points, localization
discreteness, scar modes), and simulate information-decay observables under
repeated application.
"""

__version__ = "0.1.0"

from .spin_ops import (
    ChainLayout,
    ConstrainedBasis,
    ghz_state,
    neel_state,
    partial_trace,
    product_state,
)
from .hamiltonians import (
    AahParams,
    GOLDEN_OMEGA,
    PxpParams,
    XxParams,
    XxxParams,
    build_aah,
    build_pxp,
    build_xx,
    build_xxx,
    hermitian_eigensystem,
)
from .channel import (
    CompletenessError,
    KrausSet,
    Propagator,
    SuperoperatorMatrix,
    apply_channel,
    kraus_from_unitary,
    magnetization_violation,
    propagate,
    reversal_form,
    superoperator_matrix,
)
from .spectra import (
    DefectiveSpectrumError,
    Spectrum,
    SpectralStats,
    decompose_state,
    find_outliers,
    full_spectrum,
    magnitude_histogram,
    minus_one_cluster,
    triangular_reference,
)
from .ep_analysis import (
    BandTrack,
    EpRecord,
    JordanChain,
    JordanChainError,
    SweepGrid,
    count_complex,
    fit_sqrt_exponent,
    iterate_jordan,
    jordan_chain,
    locate_eps,
    sweep_spectrum,
    track_bands,
)
from .dynamics import (
    TrajectoryRecord,
    UndefinedOverlapError,
    eigen_overlap,
    imbalance,
    magnetization_trajectory,
    phase_scan,
    qmi_trajectory,
    scar_candidates,
    scar_overlap_avg,
)
from .config import ConfigError, ExperimentConfig, list_presets, load_config, preset_config
from .runner import build_channel, run_experiment
