"""Kinematics tests: wheel mapping, arc-step accuracy against independent oracles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from la_nav import (
    Action,
    RobotParams,
    action_to_wheels,
    integrate_action,
    move_table,
)

PARAMS = RobotParams()  # c=2.8 cm, b=12 cm, omega=2 rad/s, T=0.5 s
ORACLE_SUBSTEPS = 100
HEADINGS = [-math.pi + k * (2 * math.pi / 40) for k in range(41)]


def step(pose, action, params):
    """``integrate_action`` on an ``(x, y, theta)`` tuple."""
    return integrate_action(*pose, move_table(params)[action - 1])


def full_circle_params():
    # One driven wheel turns the robot on a circle of radius b/2; a full
    # revolution takes T = 2*pi*b / (c*omega).
    duration = 2 * math.pi * PARAMS.axle_length / (PARAMS.wheel_radius * PARAMS.wheel_speed)
    return RobotParams(action_duration=duration)


def pose_derivative(theta, omega_l, omega_r, params):
    """Differential-drive ODE: instantaneous ``(dx, dy, dtheta)`` in cm/s and rad/s."""
    half_radius = 0.5 * params.wheel_radius
    drive = omega_l + omega_r
    dx = -half_radius * math.sin(theta) * drive
    dy = half_radius * math.cos(theta) * drive
    dtheta = (params.wheel_radius / params.axle_length) * (omega_r - omega_l)
    return dx, dy, dtheta


def rk4_oracle(pose, action, params, substeps=ORACLE_SUBSTEPS):
    """Textbook fixed-step RK4 over the full (x, y, theta) state."""
    omega_r, omega_l = action_to_wheels(action, params)
    h = params.action_duration / substeps
    x, y, theta = pose

    def f(state):
        return pose_derivative(state[2], omega_l, omega_r, params)

    for _ in range(substeps):
        s = (x, y, theta)
        k1 = f(s)
        k2 = f(tuple(v + 0.5 * h * k for v, k in zip(s, k1)))
        k3 = f(tuple(v + 0.5 * h * k for v, k in zip(s, k2)))
        k4 = f(tuple(v + h * k for v, k in zip(s, k3)))
        x, y, theta = (
            v + h / 6.0 * (a + 2 * b_ + 2 * c + d)
            for v, a, b_, c, d in zip(s, k1, k2, k3, k4)
        )
    return x, y, theta


def circle_oracle(pose, action, params):
    """Endpoint from the instantaneous centre of rotation (straight line if none)."""
    omega_r, omega_l = action_to_wheels(action, params)
    speed = 0.5 * params.wheel_radius * (omega_l + omega_r)
    spin = (params.wheel_radius / params.axle_length) * (omega_r - omega_l)
    T = params.action_duration
    x, y, theta0 = pose
    theta = theta0 + spin * T
    if spin == 0.0:
        travel = speed * T
        return x - travel * math.sin(theta), y + travel * math.cos(theta), theta
    radius = speed / spin
    return (
        x + radius * (math.cos(theta) - math.cos(theta0)),
        y + radius * (math.sin(theta) - math.sin(theta0)),
        theta,
    )


class TestActionCatalogue:
    def test_ids_and_labels(self):
        assert [a.value for a in Action] == [1, 2, 3, 4, 5, 6]
        assert Action(2).label == "RightForward"
        assert Action(6).label == "LeftBackward"

    @pytest.mark.parametrize(
        "action,expected",
        [
            (Action.FORWARD, (2.0, 2.0)),
            (Action.RIGHT_FORWARD, (0.0, 2.0)),
            (Action.LEFT_FORWARD, (2.0, 0.0)),
            (Action.BACKWARD, (-2.0, -2.0)),
            (Action.RIGHT_BACKWARD, (0.0, -2.0)),
            (Action.LEFT_BACKWARD, (-2.0, 0.0)),
        ],
    )
    def test_wheel_mapping(self, action, expected):
        assert action_to_wheels(action, PARAMS) == expected

    def test_accepts_raw_ids(self):
        assert action_to_wheels(1, PARAMS) == (2.0, 2.0)

    @pytest.mark.parametrize("bad", [0, 7, -1])
    def test_rejects_unknown_ids(self, bad):
        with pytest.raises(ValueError):
            action_to_wheels(bad, PARAMS)


class TestPoseDerivative:
    def test_straight_translation_along_plus_y(self):
        dx, dy, dtheta = pose_derivative(0.0, 2.0, 2.0, PARAMS)
        assert dx == 0.0
        assert dy == pytest.approx(PARAMS.wheel_radius * 2.0, abs=1e-12)
        assert dtheta == 0.0

    def test_counter_rotation_spins_in_place(self):
        dx, dy, dtheta = pose_derivative(0.7, -1.5, 1.5, PARAMS)
        assert dx == pytest.approx(0.0, abs=1e-12)
        assert dy == pytest.approx(0.0, abs=1e-12)
        assert dtheta == pytest.approx(2 * PARAMS.wheel_radius * 1.5 / PARAMS.axle_length, abs=1e-12)

    def test_quarter_turn_heading_moves_along_minus_x(self):
        dx, dy, dtheta = pose_derivative(math.pi / 2, 1.0, 1.0, PARAMS)
        assert dx == pytest.approx(-PARAMS.wheel_radius, abs=1e-12)
        assert dy == pytest.approx(0.0, abs=1e-12)
        assert dtheta == 0.0

    @given(
        theta=st.floats(-10, 10),
        omega_l=st.floats(-5, 5),
        omega_r=st.floats(-5, 5),
    )
    def test_linearity_in_wheel_speeds(self, theta, omega_l, omega_r):
        dx, dy, dt = pose_derivative(theta, omega_l, omega_r, PARAMS)
        lx, ly, lt = pose_derivative(theta, 1.0, 0.0, PARAMS)
        rx, ry, rt = pose_derivative(theta, 0.0, 1.0, PARAMS)
        assert dx == pytest.approx(omega_l * lx + omega_r * rx, abs=1e-12)
        assert dy == pytest.approx(omega_l * ly + omega_r * ry, abs=1e-12)
        assert dt == pytest.approx(omega_l * lt + omega_r * rt, abs=1e-12)


class TestIntegrateAction:
    def test_straight_line_is_exact(self):
        params = RobotParams(wheel_radius=2.8, axle_length=12.0, wheel_speed=1.0, action_duration=1.0)
        x, y, theta = step((0.0, 0.0, 0.0), Action.FORWARD, params)
        assert x == pytest.approx(0.0, abs=1e-9)
        assert y == pytest.approx(2.8, abs=1e-9)
        assert theta == 0.0

    def test_full_circle_closes(self):
        params = full_circle_params()
        x, y, theta = step((0.0, 0.0, 0.0), Action.RIGHT_FORWARD, params)
        assert math.hypot(x, y) < 1e-6
        assert theta == pytest.approx(-2 * math.pi, abs=1e-9)

    def test_zero_wheel_speed_freezes_pose(self):
        params = RobotParams(wheel_speed=0.0)
        start = (3.0, -4.0, 1.25)
        assert step(start, Action.FORWARD, params) == start

    def test_backward_reverses_forward(self):
        start = (1.0, 2.0, 0.4)
        mid = step(start, Action.FORWARD, PARAMS)
        back = step(mid, Action.BACKWARD, PARAMS)
        assert back == pytest.approx(start, abs=1e-9)

    def test_quarter_arc_endpoint_is_exact(self):
        # Right wheel frozen: a clockwise arc of radius b/2 = 6 cm about
        # (6, 0); a quarter turn from the origin facing +y ends at (6, 6).
        spin = (PARAMS.wheel_radius / PARAMS.axle_length) * PARAMS.wheel_speed
        params = RobotParams(action_duration=(math.pi / 2) / spin)
        x, y, theta = step((0.0, 0.0, 0.0), Action.RIGHT_FORWARD, params)
        assert x == pytest.approx(6.0, abs=1e-12)
        assert y == pytest.approx(6.0, abs=1e-12)
        assert theta == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_agrees_with_both_oracles_over_heading_sweep(self):
        for action in Action:
            for theta in HEADINGS:
                start = (1.5, -0.5, theta)
                end = step(start, action, PARAMS)
                for oracle in (circle_oracle, rk4_oracle):
                    ref = oracle(start, action, PARAMS)
                    assert all(abs(e - r) <= 1e-12 for e, r in zip(end, ref))

    @pytest.mark.parametrize("action", list(Action))
    @pytest.mark.parametrize("theta", [0.0, 0.9, -2.4])
    def test_matches_textbook_rk4(self, action, theta):
        start = (1.5, -0.5, theta)
        fast = step(start, action, PARAMS)
        slow = rk4_oracle(start, action, PARAMS)
        assert fast == pytest.approx(slow, abs=1e-12)

    @given(
        theta=st.floats(-6, 6),
        action=st.sampled_from(list(Action)),
    )
    def test_displacement_bounded_by_drive_speed(self, theta, action):
        x, y, _ = step((0.0, 0.0, theta), action, PARAMS)
        limit = PARAMS.wheel_radius * PARAMS.wheel_speed * PARAMS.action_duration
        assert math.hypot(x, y) <= limit + 1e-9


class TestPoseAndParams:
    def test_move_table_rejects_non_finite_entries(self):
        for params in (
            RobotParams(wheel_radius=1e200, wheel_speed=1e200),  # travel overflows
            RobotParams(axle_length=2e-308),  # the turn rate overflows before sin sees it
            RobotParams(wheel_radius=1e200, axle_length=1e-200),  # inf * 0 for straight moves
        ):
            with pytest.raises(ValueError, match="beyond float range"):
                move_table(params)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wheel_radius": 0.0},
            {"axle_length": -1.0},
            {"wheel_speed": -0.5},
            {"action_duration": 0.0},
            {"wheel_radius": math.nan},
            {"axle_length": math.nan},
            {"wheel_speed": math.nan},
            {"action_duration": math.nan},
            {"wheel_radius": math.inf},
            {"axle_length": math.inf},
            {"wheel_speed": math.inf},
            {"action_duration": math.inf},
        ],
    )
    def test_params_validation(self, kwargs):
        with pytest.raises(ValueError):
            RobotParams(**kwargs)

    @pytest.mark.parametrize("name", ["wheel_radius", "axle_length", "wheel_speed", "action_duration"])
    def test_params_reject_integers_beyond_float_range(self, name):
        with pytest.raises(ValueError, match="must be finite, got an integer beyond float range"):
            RobotParams(**{name: 10**400})
