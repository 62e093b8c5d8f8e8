"""fklab: a desk-scale laboratory for Frenkel-Kontorova chains in periodic,
torus, and Beatty-quasicrystal environments.

Modules: environments (hulls, Beatty point sets, hull distance), towers
(Kakutani-Rohlin induction), lagrangians (model catalog), chain_opt
(free-chain minimization and ground energies), mane (cocycle tables and
calibration), holonomic_lp (finite measure LP with dual), cli
(config-driven front end).
"""

from .chain_opt import (
    GridSpec,
    GroundEnergyEstimate,
    MinimizeResult,
    ground_energy,
    minimize_free,
)
from .environments import EnvPoint, PointSet, hull_distance, translate_env
from .errors import (
    ConfigError,
    DomainError,
    FKError,
    InsufficientDataError,
    NumericalFailure,
    ResourceError,
)
from .exact import AlphaValue
from .holonomic_lp import LPProblem, LPSolution, discretize_circle, solve
from .lagrangians import (
    LagrangianSpec,
    chain_energy,
    circle_model,
    energy,
    spring_value,
    sturm_model,
    torus_model,
)
from .mane import (
    CalibrationReport,
    ManeTable,
    RotationReport,
    calibrate_window,
    cocycle_defects,
    grid_sensitivity,
    mane_table,
    rotation_number,
)
from .towers import Tower, induce_tower, level0_tower, tower_measure_residual

__version__ = "0.1.0"
