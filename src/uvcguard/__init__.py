"""Safety-interlocked controller and simulator for automated UVC room
disinfection.

The package splits into room/hardware modelling (:mod:`uvcguard.room`),
dose physics (:mod:`uvcguard.dosimetry`), occupancy sensor fusion
(:mod:`uvcguard.fusion`), the lamp cycle controller
(:mod:`uvcguard.controller`), a deterministic simulator
(:mod:`uvcguard.simulator`), bundled scenarios (:mod:`uvcguard.scenarios`)
and the command line front end (:mod:`uvcguard.cli`).
"""

__version__ = "0.1.0"

from .controller import (CommandReason, ControllerState, CyclePolicy,
                         LampAction, LampCommand, load_policy, step)
from .dosimetry import (DEFAULT_TARGET_DOSE, DoseGrid, accumulate_dose,
                        coverage_report, inactivation_fraction,
                        irradiance_at_point, time_to_dose)
from .fusion import (BleAdvert, FusionParams, ManualOff, ManualRearm,
                     OccupancyFusion, OccupancySnapshot, PirMotion,
                     SensorEvent, UsPresence, rssi_to_distance)
from .room import (DeskZone, LampSpec, LampTier, Point3, RoomConfigError,
                   RoomModel, SensorKind, SensorSpec, default_room, load_room,
                   serialize_room)
from .scenarios import (load_scenario, midnight_scenario,
                        random_walk_scenario, reference_scenarios,
                        serialize_scenario)
from .simulator import (NoiseParams, OccupantScript, SafetyReport, Scenario,
                        ScenarioError, SimulationResult, Timeline, Waypoint,
                        replay, safety_check, simulate)

__all__ = [
    "__version__",
    "BleAdvert", "CommandReason", "ControllerState", "CyclePolicy",
    "DEFAULT_TARGET_DOSE", "DeskZone", "DoseGrid", "FusionParams",
    "LampAction", "LampCommand", "LampSpec", "LampTier", "ManualOff",
    "ManualRearm", "NoiseParams", "OccupancyFusion", "OccupancySnapshot",
    "OccupantScript", "PirMotion", "Point3", "RoomConfigError", "RoomModel",
    "SafetyReport", "Scenario", "ScenarioError", "SensorEvent", "SensorKind",
    "SensorSpec", "SimulationResult", "Timeline", "UsPresence", "Waypoint",
    "accumulate_dose", "coverage_report", "default_room",
    "inactivation_fraction", "irradiance_at_point", "load_policy",
    "load_room", "load_scenario", "midnight_scenario", "random_walk_scenario",
    "reference_scenarios", "replay", "rssi_to_distance", "safety_check",
    "serialize_room", "serialize_scenario", "simulate", "step",
    "time_to_dose",
]
