"""Baseline value predictors and the predictor registry.

:func:`make_predictor` builds any evaluated configuration from its
spec, a registry string that :func:`parse_spec` validates: a name that
matches a bar of Figures 10-13, or ``fvp:`` with sizing overrides for
the sensitivity studies.
"""

from __future__ import annotations

import functools
import inspect
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.pipeline.vp_interface import NoPredictor, ValuePredictor
from repro.predictors.combined import MrCompositePredictor
from repro.predictors.composite import CompositePredictor
from repro.predictors.dlvp import DlvpPredictor
from repro.predictors.eves import EvesPredictor
from repro.predictors.fcm import FcmPredictor
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.memory_renaming import MemoryRenaming
from repro.predictors.stride import StridePredictor
from repro.predictors.vtage import VtagePredictor


def _factories() -> dict:
    from repro.core import fvp as fvp_mod

    return {
        "baseline": NoPredictor,
        "lvp": LastValuePredictor,
        "stride": StridePredictor,
        "fcm": FcmPredictor,
        "vtage": VtagePredictor,
        "dvtage": lambda: VtagePredictor(with_stride=True),
        "eves": EvesPredictor,
        "dlvp": DlvpPredictor,
        "mr-8kb": lambda: MemoryRenaming.at_budget(8),
        "mr-1kb": lambda: MemoryRenaming.at_budget(1),
        "composite-8kb": lambda: CompositePredictor.at_budget(8),
        "composite-1kb": lambda: CompositePredictor.at_budget(1),
        "mr+composite-8kb": lambda: MrCompositePredictor.at_budget(8),
        "mr+composite-1kb": lambda: MrCompositePredictor.at_budget(1),
        "fvp": fvp_mod.fvp_default,
        "fvp-l1-miss": fvp_mod.fvp_l1_miss,
        "fvp-l1-miss-only": fvp_mod.fvp_l1_miss_only,
        "fvp-reg": fvp_mod.fvp_register_only,
        "fvp-mem": fvp_mod.fvp_memory_only,
        "fvp-all": fvp_mod.fvp_all_instructions,
        "fvp-br": fvp_mod.fvp_branch_chains,
        "fvp+stride": fvp_mod.fvp_with_stride,
        "fvp+store-chains": fvp_mod.fvp_store_chains,
    }


#: The registry name built from the job's own trace and core (Figure
#: 12's DDG-oracle bar): :func:`make_predictor` needs both for it.
ORACLE_SPEC = "fvp-oracle"

#: FVP sizing parameters an ``fvp:`` spec may override.
FVP_OVERRIDES = ("epoch", "lt_size", "vt_entries", "vf_entries",
                 "cit_size")


@functools.lru_cache(maxsize=None)
def predictor_names() -> tuple:
    """Every plain registry name, in registration order (for sweeps,
    tests and the daemon)."""
    return (*_factories(), ORACLE_SPEC)


@functools.lru_cache(maxsize=None)
def _name_set() -> frozenset:
    return frozenset(predictor_names())


@functools.lru_cache(maxsize=None)
def fvp_defaults() -> Dict[str, int]:
    """FVP's own value of each :data:`FVP_OVERRIDES` parameter, read
    from the signature of :class:`~repro.core.fvp.FVP`."""
    from repro.core.fvp import FVP

    parameters = inspect.signature(FVP).parameters
    return {key: parameters[key].default for key in FVP_OVERRIDES}


def parse_spec(spec: str) -> Tuple[str, Dict[str, int]]:
    """Validate a predictor spec; returns ``(name, overrides)``.

    A spec is a plain registry name (:func:`predictor_names`) or
    ``fvp:`` followed by comma-separated integer overrides of FVP's
    sizing parameters (:data:`FVP_OVERRIDES`), for example
    ``"fvp:vt_entries=96,vf_entries=128"``.  Overrides are listed in
    that order, so one configuration has one spec and one cache key.
    ``epoch`` may be 0 (no Criticality Epoch); every table size must
    be positive.  An override equal to FVP's own value
    (:func:`fvp_defaults`) is refused: that configuration is plain
    ``fvp``, and one spec keeps it one cache key.  Raises
    :class:`~repro.errors.ConfigError` for anything else.  A plain
    name costs one set lookup."""
    if not isinstance(spec, str):
        raise ConfigError(f"predictor spec must be a string, got {spec!r}")
    if spec in _name_set():
        return spec, {}
    base, colon, body = spec.partition(":")
    if not colon:
        raise ConfigError(f"unknown predictor {spec!r}; choose from "
                          f"{sorted(_name_set())} or fvp:<overrides>")
    if base != "fvp":
        raise ConfigError(f"predictor spec {spec!r}: only fvp takes "
                          f"overrides, not {base!r}")
    overrides: Dict[str, int] = {}
    last = -1
    for item in body.split(","):
        key, equals, text = item.partition("=")
        if key not in FVP_OVERRIDES or not equals:
            raise ConfigError(f"predictor spec {spec!r}: {item!r} is not "
                              f"one of {', '.join(FVP_OVERRIDES)} "
                              "set as key=integer")
        index = FVP_OVERRIDES.index(key)
        if index <= last:
            raise ConfigError(f"predictor spec {spec!r}: list each "
                              "override once, in the order "
                              f"{', '.join(FVP_OVERRIDES)}")
        last = index
        lowest = 0 if key == "epoch" else 1
        if not text.isdigit() or int(text) < lowest:
            raise ConfigError(f"predictor spec {spec!r}: {key} must be "
                              f"an integer >= {lowest}")
        if int(text) == fvp_defaults()[key]:
            raise ConfigError(f"predictor spec {spec!r}: {key}={text} is "
                              "FVP's default; leave it out (FVP's own "
                              "configuration is plain 'fvp')")
        overrides[key] = int(text)
    return base, overrides


def make_predictor(spec: str, trace=None, config=None) -> ValuePredictor:
    """Build a predictor from its spec (see :func:`parse_spec`): a
    figure-label name such as ``baseline``, ``lvp``, ``composite-8kb``,
    ``fvp`` or an FVP variant, or an ``fvp:`` override spec, whose
    predictor is labelled ``fvp``.

    ``fvp-oracle`` takes its critical roots from a DDG analysis of
    ``trace`` on the core ``config`` (:mod:`repro.criticality`), so it
    needs both; every other spec ignores them."""
    name, overrides = parse_spec(spec)
    if overrides:
        from repro.core.fvp import FVP

        return FVP(**overrides)
    if name == ORACLE_SPEC:
        if trace is None or config is None:
            raise ConfigError(f"{ORACLE_SPEC} is built from a job's trace "
                              "and core: make_predictor(spec, trace, "
                              "config)")
        from repro.core.fvp import fvp_oracle
        from repro.criticality.oracle import oracle_critical_pcs

        return fvp_oracle(oracle_critical_pcs(trace, config))
    return _factories()[name]()


__all__ = [
    "FVP_OVERRIDES",
    "ORACLE_SPEC",
    "fvp_defaults",
    "make_predictor",
    "parse_spec",
    "predictor_names",
    "ValuePredictor",
    "NoPredictor",
    "LastValuePredictor",
    "StridePredictor",
    "FcmPredictor",
    "VtagePredictor",
    "EvesPredictor",
    "DlvpPredictor",
    "CompositePredictor",
    "MrCompositePredictor",
    "MemoryRenaming",
]
