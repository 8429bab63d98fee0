"""Fault injection for the resilient execution layer.

The chaos harness makes :func:`repro.experiments.parallel.execute_job`
misbehave *on purpose* -- crash the worker process, hang, raise, or
return a garbled result -- on chosen attempts of chosen jobs, and can
corrupt persistent-cache bytes on demand.  The chaos test suite uses it
to prove every recovery path in the executor; it is shipped inside the
package (not ``tests/``) because lane children must be able to import it.

Two activation routes, read only by the process that runs the retry loop,
which sends each attempt's decided fault with it to a lane child:

* **monkeypatch / in-process**: :func:`install` a :class:`ChaosConfig`
  (or any ``(job, attempt) -> action`` callable);
* **environment**: set ``REPRO_CHAOS`` to the config's JSON (or
  ``@/path/to/config.json``) -- the route into another process with its
  own retry loop (``repro worker``, a CLI subprocess).

Fault decisions are **deterministic**: a rate-based fault fires iff
``sha256(seed, job_key, attempt)`` lands under the rate, so the same
schedule replays across processes and invocations, and rate faults fire
on the *first* attempt only -- bounded retries therefore always converge
to the fault-free result (the acceptance property the chaos suite
asserts).  Explicit :class:`FaultRule`\\ s can target any attempt list.

Actions:

* ``crash``   -- SIGKILL the worker (→ ``BrokenProcessPool`` in the
  parent).  In the main process it degrades to raising
  :class:`ChaosError` rather than killing the host.
* ``hang``    -- sleep ``hang_seconds`` before running (trips per-job
  timeouts; without a timeout the run merely slows).
* ``error``   -- raise :class:`ChaosError` (a retryable ``injected``
  failure).
* ``garbage`` -- run normally, then return a corrupted result (negative
  cycle count) that the executor's validator rejects and retries.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import RunJob

__all__ = [
    "ACTIONS",
    "ChaosConfig",
    "ChaosError",
    "FaultRule",
    "GarbageResult",
    "corrupt_cache_entry",
    "corrupt_file",
    "env_config",
    "install",
    "uninstall",
]

ENV_VAR = "REPRO_CHAOS"
ACTIONS = ("crash", "hang", "error", "garbage")


class ChaosError(RuntimeError):
    """An injected in-process fault (classified ``injected``, retryable)."""


# Re-exported for convenience: the validator's rejection of a garbled
# result lives with the other failure types.
from repro.experiments.outcomes import GarbageResult  # noqa: E402


def _hash01(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform-ish draw in [0, 1) for one (job, attempt)."""
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One targeted fault: which jobs, which attempts, what happens.

    ``match`` filters on job fields (``kernel``, ``policy`` -- the
    preset/label string, ``config`` -- the machine name, ``clusters``);
    an empty match hits every job.  ``attempts`` lists the attempt
    numbers (1-based) the fault fires on; ``None`` means every attempt.
    ``rate`` < 1.0 fires the rule on that deterministic fraction of
    matching (job, attempt) pairs.
    """

    mode: str
    match: dict[str, Any] = field(default_factory=dict)
    attempts: tuple[int, ...] | None = None
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ACTIONS:
            raise ValueError(f"unknown chaos mode {self.mode!r}; want one of {ACTIONS}")
        if self.attempts is not None:
            object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")

    def matches(self, job: "RunJob", attempt: int) -> bool:
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if not self.match:
            return True
        from repro.specs.policy import policy_label

        fields = {
            "kernel": job.kernel,
            "policy": policy_label(job.policy),
            "config": job.config.name,
            "clusters": job.config.num_clusters,
        }
        return all(fields.get(key) == value for key, value in self.match.items())

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"mode": self.mode}
        if self.match:
            data["match"] = dict(self.match)
        if self.attempts is not None:
            data["attempts"] = list(self.attempts)
        if self.rate != 1.0:
            data["rate"] = self.rate
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultRule":
        attempts = data.get("attempts")
        return cls(
            mode=data["mode"],
            match=dict(data.get("match", {})),
            attempts=None if attempts is None else tuple(attempts),
            rate=float(data.get("rate", 1.0)),
        )


@dataclass(frozen=True)
class ChaosConfig:
    """A complete, serializable fault schedule.

    ``crash_rate`` is the blanket "every worker has a small chance of
    dying" knob (first attempts only, see the module docstring);
    ``rules`` add targeted faults on top.  The first matching rule wins.
    """

    rules: tuple[FaultRule, ...] = ()
    crash_rate: float = 0.0
    seed: int = 0
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rules",
            tuple(
                r if isinstance(r, FaultRule) else FaultRule.from_dict(r)
                for r in self.rules
            ),
        )
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ValueError("crash_rate must be within [0, 1]")

    # ------------------------------------------------------------------
    def action_for(self, job: "RunJob", attempt: int) -> str | None:
        """The fault (if any) to inject for this (job, attempt)."""
        from repro.experiments.cache import job_key

        key = None
        for rule in self.rules:
            if not rule.matches(job, attempt):
                continue
            if rule.rate >= 1.0:
                return rule.mode
            if key is None:
                key = job_key(job)
            if _hash01(self.seed, f"{rule.mode}:{key}", attempt) < rule.rate:
                return rule.mode
        if self.crash_rate > 0.0 and attempt == 1:
            if key is None:
                key = job_key(job)
            if _hash01(self.seed, key, attempt) < self.crash_rate:
                return "crash"
        return None

    def __call__(self, job: "RunJob", attempt: int) -> str | None:
        return self.action_for(job, attempt)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "crash_rate": self.crash_rate,
            "seed": self.seed,
            "hang_seconds": self.hang_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChaosConfig":
        return cls(
            rules=tuple(data.get("rules", ())),
            crash_rate=float(data.get("crash_rate", 0.0)),
            seed=int(data.get("seed", 0)),
            hang_seconds=float(data.get("hang_seconds", 30.0)),
        )

    def env_value(self) -> str:
        """The string to place in ``REPRO_CHAOS`` to activate this config."""
        return self.to_json()


# ---------------------------------------------------------------------------
# Activation: in-process hook and environment plumbing
# ---------------------------------------------------------------------------


def install(hook: "ChaosConfig | Callable[[RunJob, int], str | None]") -> None:
    """Activate ``hook`` for in-process execution (monkeypatch route).

    ``hook`` is a :class:`ChaosConfig` or any callable mapping
    ``(job, attempt)`` to an action name (or ``None``).  It is consulted
    in this process, also for attempts that run in its lanes' children;
    use ``REPRO_CHAOS`` to reach another process's retry loop.
    """
    from repro.experiments import parallel

    parallel._chaos_hook = hook


def uninstall() -> None:
    """Deactivate any in-process hook installed by :func:`install`."""
    from repro.experiments import parallel

    parallel._chaos_hook = None


_env_cache: tuple[str, ChaosConfig] | None = None


def env_config() -> ChaosConfig | None:
    """The schedule ``REPRO_CHAOS`` holds, or ``None`` when it is unset."""
    global _env_cache
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _env_cache is None or _env_cache[0] != raw:
        text = raw
        if raw.startswith("@"):
            text = pathlib.Path(raw[1:]).read_text()
        _env_cache = (raw, ChaosConfig.from_dict(json.loads(text)))
    return _env_cache[1]


def perform(action: str, config: "ChaosConfig | None" = None) -> None:
    """Carry out a pre-run fault action (``garbage`` is applied post-run).

    ``crash`` kills the current process abruptly when it is a lane
    child (its parent sees ``BrokenProcessPool``); in a main process it
    raises :class:`ChaosError` instead, so serial chaos runs exercise the
    retry path without taking the host down.
    """
    if action == "crash":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            if hasattr(signal, "SIGKILL"):
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(99)  # windows / no-SIGKILL fallback
        raise ChaosError("injected crash (in-process)")
    if action == "hang":
        import time

        seconds = config.hang_seconds if config is not None else 30.0
        time.sleep(seconds)
        return
    if action == "error":
        raise ChaosError("injected error")
    if action == "garbage":
        return  # handled by the caller after the run
    raise ValueError(f"unknown chaos action {action!r}")


# ---------------------------------------------------------------------------
# Byte-level corruption helpers (cache self-healing tests)
# ---------------------------------------------------------------------------


def corrupt_file(path: "str | pathlib.Path", mode: str = "truncate") -> None:
    """Damage ``path`` in place: ``truncate`` to half, ``garble`` the first
    64 bytes, or, in a gzip file, set the first ``deflate`` byte to 0xFF
    (a reserved block type), leaving the gzip header intact."""
    path = pathlib.Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
    elif mode == "garble":
        head = bytes((b ^ 0xA5) for b in data[:64])
        path.write_bytes(head + data[64:])
    elif mode == "deflate":
        # The fixed header is 10 bytes; the FNAME flag (0x08 in byte 3)
        # adds a zero-terminated file name after it.
        start = data.index(0, 10) + 1 if data[3] & 0x08 else 10
        path.write_bytes(data[:start] + b"\xff" + data[start + 1 :])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


def corrupt_cache_entry(cache, job, mode: str = "truncate") -> pathlib.Path:
    """Corrupt the on-disk cache entry for ``job`` (must exist)."""
    from repro.experiments.cache import job_key

    path = cache.path_for(job_key(job))
    corrupt_file(path, mode)
    return path
