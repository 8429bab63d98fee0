"""Serializable experiments: :class:`SweepSpec` and :class:`ExperimentSpec`.

An experiment spec is a JSON-checkable description of a whole sweep:
which workloads, which machine geometries, which policy stacks, and the
run knobs (instructions, seed, LoC mode).  ``spec.jobs(bench)``
enumerates the exact :class:`~repro.experiments.parallel.RunJob`\\ s --
the same objects the figure modules' ``plan_*`` functions emit -- so a
spec runs through the parallel workers, the persistent cache and the run
reports without any new Python.

Job order is workload-major (all of one kernel's runs before the next
kernel), with each sweep block iterating machines then policies.  The
shipped figure specs mirror their ``plan_*`` order exactly.

A spec may link itself to a reproduced figure via ``figure``; the runner
then verifies the spec's job set matches the figure's plan and renders
the figure's own table instead of the generic sweep table.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.specs.common import SpecError, reject_unknown_keys, require_type
from repro.specs.machine import MachineSpec
from repro.specs.policy import PolicySpec, canonical_policy
from repro.specs.workload import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.harness import Workbench
    from repro.experiments.parallel import RunJob

__all__ = ["ExperimentSpec", "SweepSpec", "load_spec"]

SCHEMA = "repro.experiment_spec/1"


def _spec_tuple(values: Any, loader, what: str) -> tuple:
    require_type(values, (list, tuple), what)
    if not values:
        raise SpecError(f"{what} must not be empty")
    return tuple(loader(value) for value in values)


@dataclass(frozen=True)
class SweepSpec:
    """One block of an experiment: machines x policies."""

    machines: tuple[MachineSpec, ...]
    policies: tuple["str | PolicySpec", ...]
    collect_ilp: bool = False
    warm: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "machines",
            _spec_tuple(self.machines, MachineSpec.from_dict, "SweepSpec.machines"),
        )
        object.__setattr__(
            self,
            "policies",
            _spec_tuple(self.policies, canonical_policy, "SweepSpec.policies"),
        )
        require_type(self.collect_ilp, bool, "SweepSpec.collect_ilp")
        require_type(self.warm, bool, "SweepSpec.warm")

    # ------------------------------------------------------------------
    def canonical_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "machines": [m.canonical_payload() for m in self.machines],
            "policies": [
                p if isinstance(p, str) else p.canonical_payload()
                for p in self.policies
            ],
        }
        if self.collect_ilp:
            payload["collect_ilp"] = True
        if not self.warm:
            payload["warm"] = False
        return payload

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "machines": [m.to_dict() for m in self.machines],
            "policies": [
                p if isinstance(p, str) else p.to_dict() for p in self.policies
            ],
        }
        if self.collect_ilp:
            data["collect_ilp"] = True
        if not self.warm:
            data["warm"] = False
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "SweepSpec":
        require_type(data, dict, "SweepSpec")
        reject_unknown_keys(
            data, {"machines", "policies", "collect_ilp", "warm"}, "SweepSpec"
        )
        for key in ("machines", "policies"):
            if key not in data:
                raise SpecError(f"SweepSpec requires {key!r}")
        return cls(
            machines=tuple(data["machines"]),
            policies=tuple(data["policies"]),
            collect_ilp=data.get("collect_ilp", False),
            warm=data.get("warm", True),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serializable experiment.

    ``instructions`` / ``seed`` / ``loc_mode`` of ``None`` inherit the
    workbench's values (so CLI flags keep working); ``workloads=None``
    means the full suite.  ``figure`` optionally names a reproduced
    figure whose plan this spec claims to match.
    """

    name: str
    sweeps: tuple[SweepSpec, ...]
    workloads: tuple[WorkloadSpec, ...] | None = None
    instructions: int | None = None
    seed: int | None = None
    loc_mode: str | None = None
    figure: str | None = None
    description: str = ""
    execution: dict[str, Any] | None = None

    # Keys that override the executor's ExecutionPolicy...
    _POLICY_KEYS = ("max_retries", "job_timeout", "fail_fast")
    # ...plus knobs that pick *how* a sweep runs rather than what it
    # computes (scheduling priority for `repro serve`; the execution
    # backend name), which execution_policy() must filter out:
    # ExecutionPolicy has no such fields, and replace() would raise.
    _EXECUTION_KEYS = _POLICY_KEYS + ("priority", "executor")

    def __post_init__(self) -> None:
        require_type(self.name, str, "ExperimentSpec.name")
        if not self.name:
            raise SpecError("ExperimentSpec requires a non-empty name")
        object.__setattr__(
            self,
            "sweeps",
            _spec_tuple(self.sweeps, self._sweep_loader, "ExperimentSpec.sweeps"),
        )
        if self.workloads is not None:
            workloads = _spec_tuple(
                self.workloads, WorkloadSpec.from_dict, "ExperimentSpec.workloads"
            )
            kernels = [w.kernel for w in workloads]
            if len(set(kernels)) != len(kernels):
                # A kernel may appear once: repeated entries would be
                # ambiguous about which overrides win, and the generic
                # sweep table keys rows by kernel name.
                raise SpecError(
                    "ExperimentSpec.workloads lists a kernel more than once"
                )
            object.__setattr__(self, "workloads", workloads)
        if self.instructions is not None:
            require_type(self.instructions, int, "ExperimentSpec.instructions")
            if self.instructions <= 0:
                raise SpecError("ExperimentSpec.instructions must be positive")
        if self.seed is not None:
            require_type(self.seed, int, "ExperimentSpec.seed")
        if self.loc_mode is not None:
            require_type(self.loc_mode, str, "ExperimentSpec.loc_mode")
        if self.figure is not None:
            require_type(self.figure, str, "ExperimentSpec.figure")
        require_type(self.description, str, "ExperimentSpec.description")
        if self.execution is not None:
            require_type(self.execution, dict, "ExperimentSpec.execution")
            reject_unknown_keys(
                self.execution, set(self._EXECUTION_KEYS), "ExperimentSpec.execution"
            )
            if "max_retries" in self.execution:
                require_type(
                    self.execution["max_retries"],
                    int,
                    "ExperimentSpec.execution.max_retries",
                )
                if self.execution["max_retries"] < 0:
                    raise SpecError("ExperimentSpec.execution.max_retries must be >= 0")
            if "job_timeout" in self.execution:
                timeout = self.execution["job_timeout"]
                if timeout is not None:
                    require_type(
                        timeout, (int, float), "ExperimentSpec.execution.job_timeout"
                    )
                    if isinstance(timeout, bool) or timeout <= 0:
                        raise SpecError(
                            "ExperimentSpec.execution.job_timeout must be positive"
                        )
            if "fail_fast" in self.execution:
                require_type(
                    self.execution["fail_fast"],
                    bool,
                    "ExperimentSpec.execution.fail_fast",
                )
            if "priority" in self.execution:
                require_type(
                    self.execution["priority"],
                    int,
                    "ExperimentSpec.execution.priority",
                )
            if "executor" in self.execution:
                require_type(
                    self.execution["executor"],
                    str,
                    "ExperimentSpec.execution.executor",
                )
                from repro.experiments.executor import executor_names

                if self.execution["executor"] not in executor_names():
                    raise SpecError(
                        "ExperimentSpec.execution.executor must be one of "
                        f"{', '.join(executor_names())}, "
                        f"not {self.execution['executor']!r}"
                    )
            object.__setattr__(self, "execution", dict(self.execution))

    @staticmethod
    def _sweep_loader(data: Any) -> SweepSpec:
        if isinstance(data, SweepSpec):
            return data
        return SweepSpec.from_dict(data)

    # ------------------------------------------------------------------
    def benchmarks(self, bench: "Workbench"):
        """The suite kernels this spec runs on ``bench``."""
        if self.workloads is None:
            return [(spec, None, None) for spec in bench.benchmarks]
        return [
            (w.resolve(), w.instructions, w.seed) for w in self.workloads
        ]

    def jobs(self, bench: "Workbench") -> "list[RunJob]":
        """Every run this experiment needs, in execution (plan) order.

        Policies are canonicalized and the simulator backend is chosen by
        :meth:`Workbench.sim_for`, exactly as :meth:`Workbench.job` does
        -- a spec-built plan and a hand-built job for the same run must
        agree on one job identity (and one cache key), including the
        promotion to the batched backend.
        """
        from repro.experiments.parallel import RunJob
        from repro.specs.policy import canonical_policy

        jobs: list[RunJob] = []
        for kernel, instr_override, seed_override in self.benchmarks(bench):
            instructions = (
                instr_override
                if instr_override is not None
                else self.instructions
                if self.instructions is not None
                else bench.instructions
            )
            seed = (
                seed_override
                if seed_override is not None
                else self.seed
                if self.seed is not None
                else bench.seed
            )
            loc_mode = self.loc_mode if self.loc_mode is not None else bench.loc_mode
            for sweep in self.sweeps:
                for machine in sweep.machines:
                    config = machine.build()
                    for policy in sweep.policies:
                        policy = canonical_policy(policy)
                        jobs.append(
                            RunJob(
                                kernel=kernel.name,
                                instructions=instructions,
                                seed=seed,
                                loc_mode=loc_mode,
                                config=config,
                                policy=policy,
                                collect_ilp=sweep.collect_ilp,
                                warm=sweep.warm,
                                sim=bench.sim_for(policy, config),
                                metrics=bench.metrics,
                            )
                        )
        return jobs

    def execution_policy(self, base):
        """The spec's ``execution`` overrides applied over ``base``.

        ``base`` is an :class:`~repro.experiments.outcomes.ExecutionPolicy`
        (typically the workbench's, i.e. the CLI flags); keys the spec
        does not set keep the base values.  Returns ``base`` unchanged
        when the spec declares no overrides.  Service-only execution
        keys (``priority``) are not policy fields and are ignored here.
        """
        overrides = {
            key: value
            for key, value in (self.execution or {}).items()
            if key in self._POLICY_KEYS
        }
        if not overrides:
            return base
        from dataclasses import replace

        return replace(base, **overrides)

    # ------------------------------------------------------------------
    def canonical_payload(self) -> dict[str, Any]:
        # ``execution`` is deliberately absent: how a sweep is babysat
        # (retries, timeouts) never changes what it computes, so it must
        # not perturb spec_hash -- cached results and resume manifests
        # stay valid when someone tunes the fault-tolerance knobs.
        payload: dict[str, Any] = {
            "sweeps": [s.canonical_payload() for s in self.sweeps],
        }
        if self.workloads is not None:
            payload["workloads"] = [w.canonical_payload() for w in self.workloads]
        for key in ("instructions", "seed", "loc_mode"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"schema": SCHEMA, "name": self.name}
        if self.description:
            data["description"] = self.description
        if self.figure is not None:
            data["figure"] = self.figure
        for key in ("instructions", "seed", "loc_mode"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.execution is not None:
            data["execution"] = dict(self.execution)
        if self.workloads is not None:
            data["workloads"] = [w.to_dict() for w in self.workloads]
        data["sweeps"] = [s.to_dict() for s in self.sweeps]
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentSpec":
        require_type(data, dict, "ExperimentSpec")
        reject_unknown_keys(
            data,
            {
                "schema",
                "name",
                "description",
                "figure",
                "instructions",
                "seed",
                "loc_mode",
                "workloads",
                "sweeps",
                "execution",
            },
            "ExperimentSpec",
        )
        schema = data.get("schema", SCHEMA)
        if schema != SCHEMA:
            raise SpecError(
                f"unsupported experiment-spec schema {schema!r}; this build "
                f"reads {SCHEMA!r}"
            )
        if "name" not in data:
            raise SpecError("ExperimentSpec requires 'name'")
        if "sweeps" not in data:
            raise SpecError("ExperimentSpec requires 'sweeps'")
        workloads = data.get("workloads")
        return cls(
            name=data["name"],
            sweeps=tuple(data["sweeps"]),
            workloads=None if workloads is None else tuple(workloads),
            instructions=data.get("instructions"),
            seed=data.get("seed"),
            loc_mode=data.get("loc_mode"),
            figure=data.get("figure"),
            description=data.get("description", ""),
            execution=data.get("execution"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + ("\n" if indent else "")


def load_spec(path: "str | pathlib.Path") -> ExperimentSpec:
    """Read and validate an :class:`ExperimentSpec` JSON file."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec {path} is not valid JSON: {exc}") from exc
    return ExperimentSpec.from_dict(data)
