"""Differential-drive kinematics and the discrete action catalogue.

The robot is a two-wheel differential drive. With wheel radius ``c``,
axle length ``b``, heading ``theta`` and wheel angular velocities
``omega_l`` / ``omega_r``, the pose evolves as

    dx/dt     = -(c * sin(theta) / 2) * (omega_l + omega_r)
    dy/dt     =  (c * cos(theta) / 2) * (omega_l + omega_r)
    dtheta/dt =  (c / b) * (omega_r - omega_l)

so forward motion at theta = 0 points along +y and positive theta turns
to the left. Six discrete actions drive the wheels at a fixed speed for a
fixed duration each. Within an action the heading rate and the forward
speed are constant, so every step is an exact circular arc (a straight
line when both wheels turn alike) and is computed in closed form.
"""

from __future__ import annotations

import math
from enum import IntEnum

from ._value import Value, _number


class RobotParams(Value):
    """Physical drive parameters.

    ``wheel_radius`` and ``axle_length`` are in cm, ``wheel_speed`` in
    rad/s (magnitude used by every driven wheel), ``action_duration`` in
    seconds. All four are finite and stored as floats; a ``bool`` is rejected.
    """

    __slots__ = _fields = ("wheel_radius", "axle_length", "wheel_speed", "action_duration")

    def __init__(
        self,
        wheel_radius: float = 2.8,
        axle_length: float = 12.0,
        wheel_speed: float = 2.0,
        action_duration: float = 0.5,
    ) -> None:
        checked = []
        for name, value in zip(self._fields, (wheel_radius, axle_length, wheel_speed, action_duration)):
            what = name.replace("_", " ")
            value = _number(value, what)
            if name == "wheel_speed":
                if not value >= 0:
                    raise ValueError(f"{what} must be non-negative, got {value!r}")
            elif not value > 0:
                raise ValueError(f"{what} must be positive, got {value!r}")
            checked.append(value)
        super().__init__(*checked)


class Action(IntEnum):
    """The six drive actions; ids are the 1-based catalogue order."""

    FORWARD = 1
    RIGHT_FORWARD = 2
    LEFT_FORWARD = 3
    BACKWARD = 4
    RIGHT_BACKWARD = 5
    LEFT_BACKWARD = 6

    @property
    def label(self) -> str:
        return _CATALOGUE[self][0]


ACTION_COUNT = len(Action)

# (label, right wheel sign, left wheel sign) per action: a 0 freezes that
# wheel, driving one wheel alone turns toward the frozen side.
_CATALOGUE = {
    Action.FORWARD: ("Forward", 1.0, 1.0),
    Action.RIGHT_FORWARD: ("RightForward", 0.0, 1.0),
    Action.LEFT_FORWARD: ("LeftForward", 1.0, 0.0),
    Action.BACKWARD: ("Backward", -1.0, -1.0),
    Action.RIGHT_BACKWARD: ("RightBackward", 0.0, -1.0),
    Action.LEFT_BACKWARD: ("LeftBackward", -1.0, 0.0),
}


def action_to_wheels(action: Action | int, params: RobotParams) -> tuple[float, float]:
    """Signed wheel velocities ``(omega_r, omega_l)`` in rad/s for an action."""
    try:
        action = Action(action)
    except ValueError:
        raise ValueError(f"unknown action id {action!r}") from None
    _, right, left = _CATALOGUE[action]
    return right * params.wheel_speed, left * params.wheel_speed


def move_table(params: RobotParams) -> tuple[tuple[float, float, float], ...]:
    """``(travel, half_turn, turn)`` of each action, in catalogue order.

    Both wheel speeds are constant during an action, so the robot drives an
    exact circular arc (a straight line when the heading rate is zero). The
    arc turns the heading by ``turn``; its chord has length ``travel`` and
    points along the mid-arc heading ``theta + half_turn``. Raises
    ValueError when an entry is not finite.
    """
    moves = []
    for action in Action:
        omega_r, omega_l = action_to_wheels(action, params)
        spin = (params.wheel_radius / params.axle_length) * (omega_r - omega_l)
        travel = 0.5 * params.wheel_radius * (omega_l + omega_r) * params.action_duration
        half_turn = 0.5 * spin * params.action_duration
        turn = spin * params.action_duration
        if not (math.isfinite(travel) and math.isfinite(turn)):
            raise ValueError(f"action {action.label} travels or turns beyond float range")
        if half_turn != 0.0:
            travel *= math.sin(half_turn) / half_turn
        moves.append((travel, half_turn, turn))
    return tuple(moves)


def integrate_action(
    x: float, y: float, theta: float, move: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Pose ``(x, y, theta)`` after one ``move_table`` entry."""
    travel, half_turn, turn = move
    mid = theta + half_turn
    return x - travel * math.sin(mid), y + travel * math.cos(mid), theta + turn

