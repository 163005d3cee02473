"""Whole-body operational space control runtime.

Layers, bottom up: robot description and rigid-body model, task and
constraint libraries, the prioritized torque controller, the non-blocking
servo runtime, parameter binding middleware, a simulated torque-controlled
plant, and the command line harness.
"""

from .description import DescriptionError, RobotDescription, load_description
from .model import JointOrdering, RobotModel, RobotState

__all__ = [
    "DescriptionError",
    "RobotDescription",
    "load_description",
    "JointOrdering",
    "RobotModel",
    "RobotState",
]

__version__ = "0.1.0"
