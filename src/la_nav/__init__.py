"""Learning-automaton goal seeking for a simulated differential-drive robot.

A probability vector over six drive actions is reinforced step by step from
a binary distance-improvement signal until the robot parks on the goal.
The package provides the automaton primitives, the drive kinematics, the
workspace model, an episode/batch runner with four experiment presets, and
a CLI that emits CSV/JSON telemetry and SVG trajectory plots.
"""

from .automata import (
    LearningScheme,
    ProbabilityVector,
    SchemeKind,
    absorbed_action,
    apply_feedback,
    init_uniform,
    select_action,
    update_p_favorable,
    update_p_unfavorable,
    update_s_model,
)
from .errors import ConfigError, InfeasibleWorldError, SimulationError
from .kinematics import (
    ACTION_COUNT,
    Action,
    RobotParams,
    action_to_wheels,
    integrate_action,
    move_table,
)
from .runner import (
    ExperimentConfig,
    RunRecord,
    SeedFailure,
    Termination,
    WorldSpec,
    build_world,
    config_digest,
    preset_config,
    run_batch,
    run_episode,
    summarize,
)
from .world import (
    Bounds,
    CircleObstacle,
    Obstacle,
    RectObstacle,
    World,
    compute_feedback,
    distance_to_goal,
    goal_reached,
    resolve_motion,
)

__version__ = "0.1.0"
