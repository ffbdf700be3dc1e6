"""Shared builders for the test suite."""
from dataclasses import dataclass

from uavclust.mobility import Fleet

# one line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@dataclass(frozen=True)
class Vehicle:
    """One vehicle of a scripted scenario or of a test oracle; the
    simulator itself keeps vehicles only as Fleet rows."""

    id: int
    x: float
    y: float
    dir: int
    speed: float


def make_vehicle(vid, x, *, y=-2.0, direction=1, speed=10.0):
    return Vehicle(id=vid, x=x, y=y, dir=direction, speed=speed)


def fleet_of(vehicles):
    """The Fleet whose rows are the given vehicles, in list order."""
    return Fleet([v.x for v in vehicles], [v.y for v in vehicles],
                 [v.dir for v in vehicles], [v.speed for v in vehicles])
