"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for la_nav errors."""


class ConfigError(SimulationError):
    """Invalid or inconsistent run configuration.

    Carries the offending field path so CLI users can locate the problem.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def build(field: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; its ``ValueError`` becomes a ``ConfigError`` for ``field``.

    The message is kept, so a value type's check reads the same with its field named.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


class InfeasibleWorldError(SimulationError):
    """A seed's random goal found no place within 10 000 draws.

    Raised only by ``build_world``. An explicit goal is checked when its
    ``WorldSpec`` is built, and one the robot could not finish at is a
    ``ConfigError`` for ``world.goal``.
    """
