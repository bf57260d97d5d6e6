"""Unified experiment pipeline.

Declarative :class:`ExperimentSpec`\\ s, a registry of experiment
definitions, and one :class:`Runner` that owns the single
build → observe → measure → summarize → persist path every experiment
takes.  ``Runner`` can fan independent measurement points out over a
``multiprocessing`` pool (``jobs > 1``) while keeping results
byte-identical to a serial run.
"""

from repro.exp.registry import (CliOption, Experiment, get_experiment,
                                list_experiments, register_experiment)
from repro.exp.runner import PointContext, Runner, RunReport, run_experiment
from repro.exp.spec import ExperimentSpec

__all__ = [
    "CliOption",
    "Experiment",
    "ExperimentSpec",
    "PointContext",
    "Runner",
    "RunReport",
    "get_experiment",
    "list_experiments",
    "register_experiment",
    "run_experiment",
]
