"""gbulab: a desk-scale numerical laboratory for boundary gradient blow-up
of the diffusive Hamilton-Jacobi equation u_t - Lap(u) = |grad u|^p, p > 2.

Layers: closed-form profile mathematics (profile_math), grids and stencils
(grid, over the numpy kernels of _kernels), initial data (initial_data), the
adaptive solver (solver), runtime monitors (diagnostics), exponent
extraction (profile_fit) and the command-line front end (cli).
"""

from .errors import (ConfigurationError, DomainError, DtUnderflow, FitError,
                     GbulabError, NumericError, SingularityError,
                     SnapshotError)
from .grid import (Grid2D, ScalarField, gradient, laplacian, read_snapshot,
                   write_snapshot)
from .initial_data import symmetric_cap
from .profile_math import (BarrierParams, BoundManufactured, JParams,
                           ManufacturedParams, ProfileConstants, barrier_eval,
                           barrier_params, calibrate_barrier_c0,
                           final_profile_model, j_model, j_params,
                           manufactured_callbacks, manufactured_params,
                           manufactured_solution, profile_constants,
                           steady_state)
from .solver import (RunOutcome, SimulationState, SolverConfig, make_state,
                     resume, run, step)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DomainError", "DtUnderflow", "FitError",
    "GbulabError", "NumericError", "SingularityError", "SnapshotError",
    "Grid2D", "ScalarField", "gradient", "laplacian", "read_snapshot",
    "write_snapshot",
    "symmetric_cap",
    "BarrierParams", "BoundManufactured", "JParams", "ManufacturedParams",
    "ProfileConstants", "barrier_eval", "barrier_params",
    "calibrate_barrier_c0", "final_profile_model", "j_model", "j_params",
    "manufactured_callbacks", "manufactured_params", "manufactured_solution",
    "profile_constants", "steady_state",
    "RunOutcome", "SimulationState", "SolverConfig", "make_state", "resume",
    "run", "step",
    "__version__",
]
