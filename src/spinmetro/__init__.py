"""Precision bounds and measurement incompatibility for su(2) unitary models.

The package computes quantum Fisher information matrices, Uhlmann
curvature, SLD and Holevo precision bounds and the scalar asymptotic
incompatibility for field-estimation models generated by arbitrary-
dimension spin representations, plus the experiment drivers (grid scans,
scaling tables, FIM rank experiments) exposed through the ``spinmetro``
command line.  The package exports what the command line reaches; the
dense generator routes and the closed-form model results are imported
from their modules.
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
from .encoding import ModelPoint, closed_frame, numeric_frame, series_frame
from .errors import InvalidInput, NumericalFailure, SpinMetroError
# Bound here for perfbench/tests, which check that the benchmark's tracer
# wraps every binding of this pinned function, the package's included.
from .linalg import sym_inverse  # noqa: F401
from .metrology import bounds, classical_fim, frame_qfim_uhlmann
from .models import ProbeSpec

__version__ = "0.1.0"
