"""Serializable policy stacks: steering + scheduler + predictor specs.

A :class:`PolicySpec` declares a policy stack: a steering policy, a
per-cluster scheduler, and (when either consumes criticality) a
predictor suite.  The paper's five stacks are canonical presets in
:data:`PRESETS`; any other composition -- e.g. dependence steering with
the LoC scheduler -- is a first-class spec that runs through the same
cache, worker pool and reports.

Canonical form and cache keys
-----------------------------

Two spellings of the same stack must hash identically:

* a preset name (``"s"``) and its fully expanded spec;
* a spec that omits a defaulted parameter and one that spells it out;
* JSON dicts with keys in any order.

:func:`resolve_policy` maps any accepted form to a ``PolicySpec`` whose
sub-spec parameters are fully normalized against the registry factories'
signatures; :meth:`PolicySpec.canonical_payload` then excludes the
cosmetic ``name`` so renaming a spec never invalidates cached results.
:func:`canonical_policy` goes the other way -- a spec that equals a
preset collapses back to the preset's name string -- so legacy code
paths (figure tables, reports, goldens) keep seeing plain names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.specs.common import (
    SpecError,
    canonical_json,
    reject_unknown_keys,
    require_type,
)
from repro.specs.registry import PREDICTORS, SCHEDULERS, STEERING, Registry

__all__ = [
    "PRESETS",
    "ComponentSpec",
    "PolicySpec",
    "PredictorSpec",
    "SchedulerSpec",
    "SteeringSpec",
    "canonical_policy",
    "policy_label",
    "policy_names",
    "resolve_policy",
]


def _normalized_params(
    registry: Registry, kind: str, params: Any
) -> tuple[tuple[str, Any], ...]:
    if isinstance(params, tuple):
        params = dict(params)
    require_type(params, dict, f"{registry.label} params")
    merged = registry.normalize(kind, params)
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class ComponentSpec:
    """One registry-buildable component: a kind plus normalized parameters.

    ``params`` is stored as a sorted item tuple (hashable); construction
    validates the kind against the registry and materializes every
    factory default, so equality and hashing are spelling-independent.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    registry: Registry = None  # set by subclasses

    def __post_init__(self) -> None:
        require_type(self.kind, str, f"{self.registry.label} kind")
        object.__setattr__(
            self, "params", _normalized_params(self.registry, self.kind, self.params)
        )

    def build(self, **runtime: Any):
        return self.registry.build(self.kind, dict(self.params), **runtime)

    # ------------------------------------------------------------------
    def canonical_payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    def to_dict(self) -> dict[str, Any]:
        return self.canonical_payload()

    @classmethod
    def from_dict(cls, data: Any) -> "ComponentSpec":
        if isinstance(data, cls):
            return data
        if isinstance(data, str):
            # Shorthand: a bare kind name with default parameters.
            return cls(kind=data)
        require_type(data, dict, f"{cls.registry.label} spec")
        reject_unknown_keys(data, {"kind", "params"}, f"{cls.registry.label} spec")
        if "kind" not in data:
            raise SpecError(f"{cls.registry.label} spec requires 'kind'")
        return cls(kind=data["kind"], params=tuple((data.get("params") or {}).items()))


@dataclass(frozen=True)
class SteeringSpec(ComponentSpec):
    registry: Registry = field(default=STEERING, repr=False, compare=False)


@dataclass(frozen=True)
class SchedulerSpec(ComponentSpec):
    registry: Registry = field(default=SCHEDULERS, repr=False, compare=False)


@dataclass(frozen=True)
class PredictorSpec(ComponentSpec):
    """A predictor suite + trainer; built with runtime ``loc_mode``/``seed``."""

    registry: Registry = field(default=PREDICTORS, repr=False, compare=False)


@dataclass(frozen=True)
class PolicySpec:
    """A complete policy stack.

    ``predictor=None`` means the stack consumes no criticality state (the
    dependence baseline); runs then skip predictor warm-up entirely,
    matching the old ``needs_predictors=False``.  ``name`` is cosmetic --
    a display label, excluded from the canonical payload.
    """

    steering: SteeringSpec
    scheduler: SchedulerSpec
    predictor: PredictorSpec | None = None
    name: str = ""

    def __post_init__(self) -> None:
        require_type(self.name, str, "PolicySpec.name")
        if not isinstance(self.steering, SteeringSpec):
            object.__setattr__(
                self, "steering", SteeringSpec.from_dict(self.steering)
            )
        if not isinstance(self.scheduler, SchedulerSpec):
            object.__setattr__(
                self, "scheduler", SchedulerSpec.from_dict(self.scheduler)
            )
        if self.predictor is not None and not isinstance(self.predictor, PredictorSpec):
            object.__setattr__(
                self, "predictor", PredictorSpec.from_dict(self.predictor)
            )

    # ------------------------------------------------------------------
    @property
    def needs_predictors(self) -> bool:
        return self.predictor is not None

    @property
    def label(self) -> str:
        """Display name: the given name, or a derived ``steering+scheduler``."""
        if self.name:
            return self.name
        parts = [self.steering.kind, self.scheduler.kind]
        if self.predictor is not None and self.predictor.kind != "chunked":
            parts.append(self.predictor.kind)
        return "+".join(parts)

    def build(self):
        """Fresh ``(steering, scheduler, needs_predictors)``."""
        return self.steering.build(), self.scheduler.build(), self.needs_predictors

    def build_predictors(self, loc_mode: str, seed: int):
        """Fresh ``(PredictorSuite, trainer)`` for a run, or ``(None, None)``."""
        if self.predictor is None:
            return None, None
        return self.predictor.build(loc_mode=loc_mode, seed=seed)

    # ------------------------------------------------------------------
    def canonical_payload(self) -> dict[str, Any]:
        """Hash-stable semantics: components only, never the display name."""
        payload = {
            "steering": self.steering.canonical_payload(),
            "scheduler": self.scheduler.canonical_payload(),
        }
        if self.predictor is not None:
            payload["predictor"] = self.predictor.canonical_payload()
        return payload

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        if self.name:
            data["name"] = self.name
        data.update(self.canonical_payload())
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "PolicySpec":
        if isinstance(data, str):
            return resolve_policy(data)
        require_type(data, dict, "PolicySpec")
        reject_unknown_keys(
            data, {"name", "steering", "scheduler", "predictor"}, "PolicySpec"
        )
        for key in ("steering", "scheduler"):
            if key not in data:
                raise SpecError(f"PolicySpec requires {key!r}")
        predictor = data.get("predictor")
        return cls(
            steering=SteeringSpec.from_dict(data["steering"]),
            scheduler=SchedulerSpec.from_dict(data["scheduler"]),
            predictor=None if predictor is None else PredictorSpec.from_dict(predictor),
            name=data.get("name", ""),
        )


def _preset(
    name: str,
    steering_kind: str,
    steering_params: Mapping[str, Any],
    scheduler_kind: str,
    predictors: bool = True,
) -> PolicySpec:
    return PolicySpec(
        steering=SteeringSpec(steering_kind, tuple(steering_params.items())),
        scheduler=SchedulerSpec(scheduler_kind),
        predictor=PredictorSpec("chunked") if predictors else None,
        name=name,
    )


# The paper's five policy stacks (Figure 14's bar labels) plus the
# readiness-aware variant exercised by the differential suite.
PRESETS: dict[str, PolicySpec] = {
    "dependence": _preset("dependence", "dependence", {}, "oldest", predictors=False),
    "focused": _preset("focused", "criticality", {"preference": "binary"}, "critical"),
    "l": _preset("l", "criticality", {"preference": "loc"}, "loc"),
    "s": _preset(
        "s",
        "criticality",
        {"preference": "loc", "stall_over_steer": True},
        "loc",
    ),
    "p": _preset(
        "p",
        "criticality",
        {"preference": "loc", "stall_over_steer": True, "proactive": True},
        "loc",
    ),
    "readiness": PolicySpec(
        steering=SteeringSpec("readiness"),
        scheduler=SchedulerSpec("loc"),
        predictor=PredictorSpec("chunked"),
        name="readiness",
    ),
    # FU-affinity steering for heterogeneous machines: capability- and
    # latency-aware, needs no predictors.
    "affinity": _preset("affinity", "affinity", {}, "oldest", predictors=False),
}

# Preset lookup by canonical JSON, for collapsing specs back to names.
_PRESET_BY_PAYLOAD = {
    canonical_json(spec.canonical_payload()): name for name, spec in PRESETS.items()
}


def policy_names() -> tuple[str, ...]:
    """The paper's policy preset names, Figure 14 order."""
    return ("dependence", "focused", "l", "s", "p")


def resolve_policy(policy: "str | PolicySpec | Mapping[str, Any]") -> PolicySpec:
    """Any accepted policy form -> a normalized :class:`PolicySpec`.

    Accepts a preset name, a ``PolicySpec``, or a spec dict.  Unknown
    names raise :class:`SpecError` listing the presets.
    """
    if isinstance(policy, PolicySpec):
        return policy
    if isinstance(policy, str):
        try:
            return PRESETS[policy]
        except KeyError:
            raise SpecError(
                f"unknown policy {policy!r}; presets: "
                f"{', '.join(sorted(PRESETS))} (or pass a PolicySpec)"
            ) from None
    if isinstance(policy, Mapping):
        return PolicySpec.from_dict(dict(policy))
    raise SpecError(f"cannot interpret {policy!r} as a policy")


def canonical_policy(policy: "str | PolicySpec | Mapping[str, Any]") -> "str | PolicySpec":
    """Collapse ``policy`` to its canonical job form.

    A stack that equals a preset becomes the preset's name string (the
    form every legacy code path, report and golden file expects); any
    other composition stays a ``PolicySpec``.
    """
    if isinstance(policy, str):
        resolve_policy(policy)  # validate the name
        return policy
    spec = resolve_policy(policy)
    preset = _PRESET_BY_PAYLOAD.get(canonical_json(spec.canonical_payload()))
    if preset is not None:
        return preset
    if spec.name:
        # The name is cosmetic for hashing but keep it for display.
        return spec
    return replace(spec, name=spec.label)


def policy_label(policy: "str | PolicySpec") -> str:
    """Human-readable policy name for status lines and run reports."""
    if isinstance(policy, str):
        return policy
    return policy.label
