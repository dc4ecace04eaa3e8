"""Simulation laboratory for stealthy exponential attacks on switched
second-order consensus networks, and their detection by a switching
Luenberger observer with strategically chosen dwell times."""

from . import attacks, graphs, observer, scenario, scheduling, simulation

__all__ = [
    "attacks",
    "graphs",
    "observer",
    "scenario",
    "scheduling",
    "simulation",
]

__version__ = "0.1.0"
