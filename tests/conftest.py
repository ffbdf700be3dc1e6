"""Shared builders for the test suite."""
import pytest

from uavclust.model import Cam, RoadPoint, Vehicle

# one line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_vehicle(vid, x, *, y=-2.0, direction=1, speed=10.0, generation=0):
    return Vehicle(id=vid, pos=RoadPoint(x, y), dir=direction, speed=speed,
                   generation=generation)


def make_cam(vid, avg_speed, *, x=0.0, y=-2.0, direction=1, neighbors=()):
    return Cam(vehicle_id=vid, pos=RoadPoint(x, y), dir=direction,
               avg_speed=avg_speed, neighbors=frozenset(neighbors))


@pytest.fixture
def vehicle_factory():
    return make_vehicle


@pytest.fixture
def cam_factory():
    return make_cam
