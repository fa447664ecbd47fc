"""Two-layer drug release: kinetics-coupled diffusion through a polymeric
matrix and the tissue it feeds, with closed-form single-mode solutions, a
conservative composite-grid solver, and the verification glue between them.
"""

from .analytic import (AnalyticParams, RatePair, default_mode, eval_matrix,
                       eval_tissue, interface_fluxes, matrix_free, matrix_rates,
                       matrix_solid, residuals, tissue_bound, tissue_free,
                       tissue_internalized, tissue_rates)
from .errors import ConfigError, NumericalError, ValidationError
from .metrics import (NAMED_METRICS, ProbeSeriesMetrics, ReleaseMetrics,
                      SensitivityRecord, SweepRow, local_sensitivity,
                      parabolic_peak, probe_metrics, probe_series,
                      release_metrics, sweep)
from .params import (INFINITE, DimensionlessParams, InterfaceParams,
                     MatrixParams, TissueParams, nondimensionalize, phi0,
                     redimensionalize, reference_params, validate_params)
from .runio import (load_config, save_config, spec_to_config, write_json,
                    write_matrix_csv, write_sweep_csv, write_tissue_csv)
from .scenario import RunSpec, get_param, param_names, replace_param, run_spec
from .solver import (FIELDS, SINK, ZERO_FLUX, CompositeGrid, SolverConfig,
                     ThetaStepper, TimeSeries, initialize, make_grid, simulate)
from .verification import (ConvergenceReport, MassLedger, analytic_state,
                           convergence_study, mass_audit, ode_oracle,
                           oracle_time_grid, spatial_convergence,
                           temporal_convergence)

__version__ = "0.1.0"

__all__ = [
    "AnalyticParams", "RatePair", "default_mode",
    "eval_matrix", "eval_tissue", "interface_fluxes", "matrix_free",
    "matrix_rates", "matrix_solid", "residuals", "tissue_bound", "tissue_free",
    "tissue_internalized", "tissue_rates",
    "ConfigError", "NumericalError", "ValidationError",
    "NAMED_METRICS", "ProbeSeriesMetrics", "ReleaseMetrics",
    "SensitivityRecord", "SweepRow", "local_sensitivity", "parabolic_peak",
    "probe_metrics", "probe_series", "release_metrics", "sweep",
    "INFINITE", "DimensionlessParams", "InterfaceParams", "MatrixParams",
    "TissueParams", "nondimensionalize", "phi0", "redimensionalize",
    "reference_params", "validate_params",
    "load_config", "save_config", "spec_to_config", "write_json",
    "write_matrix_csv", "write_sweep_csv", "write_tissue_csv",
    "RunSpec", "get_param", "param_names", "replace_param", "run_spec",
    "FIELDS", "SINK", "ZERO_FLUX", "CompositeGrid", "SolverConfig",
    "ThetaStepper", "TimeSeries", "initialize", "make_grid", "simulate",
    "ConvergenceReport", "MassLedger", "analytic_state", "convergence_study",
    "mass_audit", "ode_oracle", "oracle_time_grid", "spatial_convergence",
    "temporal_convergence",
    "__version__",
]
