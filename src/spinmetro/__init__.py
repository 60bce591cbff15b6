"""Precision bounds and measurement incompatibility for su(2) unitary models.

The package computes quantum Fisher information matrices, Uhlmann
curvature, SLD and Holevo precision bounds and the scalar asymptotic
incompatibility for field-estimation models generated by arbitrary-
dimension spin representations, plus the experiment drivers (grid scans,
scaling tables, FIM rank experiments) exposed through the ``spinmetro``
command line.
"""

from .analysis import (
    RankExperimentConfig,
    ScalingResult,
    ScanConfig,
    ScanResult,
    fim_rank_experiment,
    metrics_report,
    run_scan,
    scaling_table,
)
from .encoding import (
    GeneratorSet,
    ModelPoint,
    closed_frame,
    closed_generators,
    direction_vectors,
    hamiltonian,
    numeric_frame,
    numeric_generators,
    series_frame,
    series_generators,
)
from .errors import (
    InvalidInput,
    NumericalFailure,
    SpinMetroError,
)
from .linalg import (
    SpinRep,
    build_spin_rep,
    check_probe,
    expm_i,
    j_direction,
    spectral_absmax,
    spin_moments,
    sym_inverse,
    trace_norm,
)
from .metrology import (
    ai_measure,
    batched_qfim_uhlmann,
    bounds,
    classical_fim,
    frame_qfim_uhlmann,
    holevo_pure,
    incompat_operator,
    incompat_report,
    qfim_uhlmann,
)
from .models import (
    ProbeSpec,
    Qubit2pResult,
    bloch_vector,
    make_probe,
    qubit2p_closed,
    qudit2p_closed,
    threeparam_uhlmann_closed,
)

__version__ = "0.1.0"
