"""Formation maneuvering simulator for nonholonomic unicycle robots.

A chain (or any spanning tree) of robots acquires a moving formation by a
least-squares kinematic control law, extended to the torque level with an
adaptive backstepping design. The package bundles the SE(2) primitives,
the structured linear algebra behind the controller's invertibility
certificate, a fixed-step closed-loop simulator, and a scenario-driven
CLI with CSV traces and YAML metrics.
"""

from .adaptive import (RobotParams, adaptation_rate, adaptive_control,
                       block_regression, lyapunov_diagnostics,
                       params_to_vector, regression_matrix)
from .controller import coupling_matrix, coupling_rate, kinematic_control
from .engine import (DivergenceError, Engine, EvalRecord, Trace, rk4_step,
                     simulate)
from .graph import (CycleError, DisconnectedError, GraphError, SpanningTree,
                    validate_spanning_tree)
from .linalg import (LeastSquaresResult, RankDeficient,
                     chain_gram_determinant, chain_pivot_bounds, gram_pivot,
                     least_squares_solve, tree_factor)
from .metrics import EmptyTrace, MetricsReport, compute_metrics
from .presets import get_preset, preset_names
from .scenario import (ParseError, RobotSpec, ScenarioConfig, SchemaError,
                       ValidationError, load_scenario, scenario_from_dict,
                       scenario_to_dict, serialize_scenario)
from .se2 import (SELECT, SKEW, body_frame_error, rotation_matrix,
                  steering_matrix, unicycle_rate)
from .trajectory import (ConstantTwist, ProfileSet, SampledTwist,
                         SingularSpeed, desired_arrays)

__version__ = "0.1.0"
