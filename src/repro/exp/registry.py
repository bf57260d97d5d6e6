"""The experiment registry.

Every experiment is a subclass of :class:`Experiment` registered with
:func:`register_experiment`.  The registry is what collapses the old
one-module-per-experiment sprawl into a single pipeline: the runner
asks the registered definition for the independent measurement points
of a spec, measures them (serially or across a process pool), and
hands the ordered results back for summarization — and the CLI
generates its experiment subcommands from the same registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.exp.spec import ExperimentSpec

__all__ = [
    "CliOption",
    "Experiment",
    "get_experiment",
    "list_experiments",
    "register_experiment",
]


@dataclass(frozen=True)
class CliOption:
    """One argparse option an experiment contributes to its subcommand."""

    flags: tuple[str, ...]
    kwargs: dict

    @classmethod
    def make(cls, *flags: str, **kwargs: Any) -> "CliOption":
        return cls(flags=flags, kwargs=kwargs)


class Experiment:
    """One registered experiment definition.

    Subclasses override the four pipeline hooks:

    * :meth:`default_spec` — the spec a bare ``repro run <name>`` uses,
    * :meth:`points` — the independent measurement points of a spec
      (each point is a small picklable dict; points must not depend on
      each other — the runner may execute them in separate processes),
    * :meth:`measure` — evaluate one point (runs in a worker when
      ``--jobs > 1``; must derive everything from ``spec`` + ``point``),
    * :meth:`summarize` — merge the ordered point results into the
      experiment's result object (always runs in the parent).

    CLI integration hooks (:attr:`cli_options`, :meth:`spec_from_args`,
    :meth:`render`) let the command-line interface generate one
    subcommand per registered experiment from this same definition.
    """

    #: Registered name (set by :func:`register_experiment`).
    name: str = ""
    #: One-line description for ``repro list`` / subcommand help.
    title: str = ""

    #: Options the CLI adds to this experiment's subcommand.
    cli_options: tuple[CliOption, ...] = ()

    # -- pipeline hooks ----------------------------------------------------

    def default_spec(self) -> ExperimentSpec:
        """The spec a bare ``repro run <name>`` uses."""
        return ExperimentSpec(experiment=self.name)

    def points(self, spec: ExperimentSpec) -> list[dict]:
        """The independent measurement points of ``spec``, in result
        order (each a small picklable dict)."""
        raise NotImplementedError

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        """Evaluate one point (possibly in a worker process); must
        derive everything from ``spec`` + ``point`` + ``ctx``."""
        raise NotImplementedError

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        """Merge the ordered point results into the experiment's
        result object (always runs in the parent)."""
        raise NotImplementedError

    # -- CLI hooks ---------------------------------------------------------

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        """Build a spec from this experiment's parsed CLI arguments."""
        return self.default_spec()

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        """Human-readable report for the CLI (tables, summaries)."""
        return repr(result)


_REGISTRY: dict[str, Experiment] = {}
_definitions_loaded = False


def register_experiment(
    name: str, title: str = ""
) -> Callable[[type], type]:
    """Class decorator registering an :class:`Experiment` subclass."""

    def deco(cls: type) -> type:
        if not issubclass(cls, Experiment):
            raise TypeError(f"{cls.__name__} must subclass Experiment")
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} already registered")
        # Inherit hook docstrings from the base class so every
        # override stays documented without restating the contract.
        for attr, impl in vars(cls).items():
            base = getattr(Experiment, attr, None)
            if (callable(impl) and not impl.__doc__
                    and base is not None and base.__doc__):
                impl.__doc__ = base.__doc__
        instance = cls()
        instance.name = name
        if title:
            instance.title = title
        _REGISTRY[name] = instance
        return cls

    return deco


def _load_definitions() -> None:
    """Import the built-in experiment definitions exactly once."""
    global _definitions_loaded
    if not _definitions_loaded:
        _definitions_loaded = True
        import repro.exp.experiments  # noqa: F401  (registration side effect)


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment by name."""
    _load_definitions()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {name!r}; registered: {known}"
        ) from None


def list_experiments() -> list[Experiment]:
    """All registered experiments, sorted by name."""
    _load_definitions()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]
