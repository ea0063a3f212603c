"""Registry of every ``REPRO_*`` environment variable.

The simulator's behaviour can be steered by a small set of environment
variables (scale knobs, debug paths, guardrails, fault injection).
Every variable the package reads **must** be declared here — the
``RL006`` reprolint rule (docs/LINTING.md) statically cross-checks
each ``os.environ`` read of a ``REPRO_*`` name in ``src/repro``
against this registry, and ``repro doctor`` prints the registry with
the live values so a misspelled override is visible instead of
silently ignored.

Adding a variable
-----------------
1. Add an :class:`EnvVar` entry to :data:`REGISTRY` below (name,
   default, consumer module, one-line description).
2. Read it through ``os.environ`` in exactly one place when possible.
3. Document the behaviour in the consumer module's docstring.

``repro lint`` fails with ``RL006`` until step 1 is done, and also
when a declared variable is no longer read anywhere (dead registry
entries rot just like dead code).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple


class EnvVar(NamedTuple):
    """One declared environment variable."""

    #: The full variable name (``REPRO_*``).
    name: str
    #: Human-readable effect of setting it.
    description: str
    #: Behaviour when unset (documentation only, not applied here).
    default: str
    #: Dotted module that consumes the variable.
    consumer: str


#: Every environment variable the package reads, keyed by name.
REGISTRY: Dict[str, EnvVar] = {
    var.name: var
    for var in (
        EnvVar("REPRO_CACHE_DIR",
               "result-cache directory for campaigns",
               ".repro-cache", "repro.experiments.campaign"),
        EnvVar("REPRO_CACHE_BUDGET",
               "cache-tier eviction budget (bytes; K/M/G suffixes)",
               "0 (unbounded, no eviction)",
               "repro.experiments.campaign"),
        EnvVar("REPRO_SERVICE_SOCKET",
               "unix socket path of the campaign service daemon",
               ".repro-cache/service.sock", "repro.service.protocol"),
        EnvVar("REPRO_LENGTH",
               "default trace length in micro-ops",
               "250000", "repro.experiments.runner"),
        EnvVar("REPRO_WARMUP",
               "override the default warmup prefix outright",
               "40% of length, capped at 100k",
               "repro.experiments.runner"),
        EnvVar("REPRO_ENGINE_BACKEND",
               "timing-loop backend: vector, scalar or reference",
               "vector (scalar when numpy is unavailable)",
               "repro.pipeline.engine"),
        EnvVar("REPRO_CHECK_INVARIANTS",
               "1 arms the post-run pipeline-invariant audit",
               "0 (audit off, zero-cost)", "repro.pipeline.engine"),
        EnvVar("REPRO_MAX_CYCLES",
               "non-termination watchdog budget in simulated cycles",
               "0 (watchdog disarmed)", "repro.pipeline.engine"),
        EnvVar("REPRO_FAULTS",
               "JSON fault-injection plan for the testing harness",
               "unset (no faults)", "repro.testing.faults"),
        EnvVar("REPRO_SYNC_CHECKS",
               "1 arms the runtime lock-order/guard sanitizer",
               "unset (sanitizer off, zero-cost)",
               "repro.testing.synccheck"),
    )
}


def declared_names() -> Tuple[str, ...]:
    """Every registered variable name, sorted."""
    return tuple(sorted(REGISTRY))


def is_declared(name: str) -> bool:
    """Whether ``name`` is a registered environment variable."""
    return name in REGISTRY


def undeclared(environ: Mapping[str, str]) -> List[str]:
    """``REPRO_*`` names set in ``environ`` but absent from the
    registry — almost always a typo that silently does nothing."""
    return sorted(name for name in environ
                  if name.startswith("REPRO_") and name not in REGISTRY)


def snapshot(environ: Mapping[str, str]
             ) -> List[Tuple[EnvVar, Optional[str]]]:
    """``(declaration, live value or None)`` per registered variable."""
    return [(REGISTRY[name], environ.get(name))
            for name in declared_names()]


def format_registry(environ: Mapping[str, str]) -> str:
    """The ``repro doctor`` rendering: one line per registered
    variable with its live value, then any undeclared overrides."""
    lines: List[str] = []
    for var, value in snapshot(environ):
        state = f"= {value}" if value is not None \
            else f"unset (default: {var.default})"
        lines.append(f"  {var.name:<24} {state}")
        lines.append(f"  {'':<24}   {var.description} "
                     f"[{var.consumer}]")
    for name in undeclared(environ):
        lines.append(f"  {name:<24} SET BUT NOT REGISTERED "
                     "(typo? see src/repro/envreg.py)")
    return "\n".join(lines)


__all__ = [
    "EnvVar",
    "REGISTRY",
    "declared_names",
    "format_registry",
    "is_declared",
    "snapshot",
    "undeclared",
]
