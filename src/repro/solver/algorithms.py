"""The common ``SolverAlgorithm`` interface and its registry.

The RSQP thesis is that the customization flow is algorithm-agnostic:
any first-order QP method built from SpMV / axpby / dot / projection
kernels runs on the same problem-specific datapaths. This module gives
the *software* side of that claim one seam: every reference algorithm
is a :class:`SolverAlgorithm` with a name, a settings type, and a
``solve`` method returning the shared
:class:`~repro.solver.results.SolverResult` surface. The serving and
fleet layers select among registered algorithms per problem structure
(:mod:`repro.solver.select`).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Dict, Optional, Tuple, Type

from .results import SolverResult
from .settings import SolverSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..qp import QProblem

__all__ = ["SolverAlgorithm", "register_algorithm", "get_algorithm",
           "available_algorithms", "solve_with"]


class SolverAlgorithm(abc.ABC):
    """One QP algorithm behind the uniform solve interface.

    Subclasses declare ``name`` (the registry key, also used by the
    serving layer's ``algorithm=`` settings), ``settings_type`` (a
    :class:`~repro.solver.settings.SolverSettings` subclass) and
    ``solver_type`` (the reference solver class).
    """

    #: Registry key; also the vocabulary of ``SolverService(algorithm=...)``.
    name: ClassVar[str] = ""
    #: The settings dataclass this algorithm consumes.
    settings_type: ClassVar[Type[SolverSettings]] = SolverSettings
    #: The reference solver class: ``solver_type(problem, settings)``
    #: supports ``warm_start`` and ``solve``.
    solver_type: ClassVar[type]

    def solve(self, problem: "QProblem",
              settings: Optional[SolverSettings] = None) -> SolverResult:
        """Solve ``problem`` and return the uniform result surface."""
        return self.solver_type(problem,
                                self.coerce_settings(settings)).solve()

    def default_settings(self) -> SolverSettings:
        return self.settings_type()

    def coerce_settings(self,
                        settings: Optional[SolverSettings]
                        ) -> SolverSettings:
        """Adapt foreign settings to this algorithm's type.

        Shared termination fields (``eps_abs``, ``eps_rel``,
        ``max_iter``, ``time_limit``, ``check_termination``,
        ``scaling``, ...) carry over; algorithm-specific fields fall
        back to this algorithm's defaults. This is what lets one
        service-level settings object drive whichever algorithm the
        per-structure selector picks.
        """
        if settings is None:
            return self.default_settings()
        if isinstance(settings, self.settings_type):
            return settings
        base = SolverSettings.__dataclass_fields__
        shared = {name: getattr(settings, name) for name in base}
        # max_iter defaults differ per algorithm (PDHG iterations are
        # much cheaper); only carry an explicit, non-default budget.
        if settings.max_iter == type(settings)().max_iter:
            shared.pop("max_iter", None)
        return self.settings_type(**shared)


_REGISTRY: Dict[str, SolverAlgorithm] = {}


def register_algorithm(algorithm: SolverAlgorithm) -> SolverAlgorithm:
    """Add an algorithm instance to the registry (latest wins)."""
    if not algorithm.name:
        raise ValueError("algorithm must declare a non-empty name")
    _REGISTRY[algorithm.name] = algorithm
    return algorithm


def get_algorithm(name: str) -> SolverAlgorithm:
    """Look up a registered algorithm by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; available: "
            f"{', '.join(available_algorithms())}") from None


def available_algorithms() -> Tuple[str, ...]:
    """Registered algorithm names, sorted."""
    return tuple(sorted(_REGISTRY))


def solve_with(name: str, problem: "QProblem",
               settings: Optional[SolverSettings] = None) -> SolverResult:
    """Solve ``problem`` with the named algorithm.

    ``settings`` may be any :class:`SolverSettings`; shared fields are
    coerced into the algorithm's own settings type (see
    :meth:`SolverAlgorithm.coerce_settings`).
    """
    algorithm = get_algorithm(name)
    return algorithm.solve(problem, algorithm.coerce_settings(settings))
