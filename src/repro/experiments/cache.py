"""Persistent, content-addressed cache of simulation results.

Every simulation is fully determined by its :class:`~repro.experiments.
parallel.RunJob` -- kernel name, instruction count, workload seed, LoC
predictor mode, machine configuration, policy, ILP collection and the
warm-up flag.  The cache keys on a SHA-256 hash of the canonical JSON of
all of those fields plus :data:`CACHE_SCHEMA_VERSION`, a salt bumped
whenever a code change legitimately alters simulation output (simulator
timing, policy behaviour, trace generation, or the serialization schema).
Stale entries from older salts are simply never looked up again.

Entries are gzipped JSON files (one per run, holding the run's
:class:`~repro.core.results.RunSummary`: under 2 KB at 300 instructions)
under ``~/.cache/repro`` by default, overridable with ``--cache-dir`` / ``REPRO_CACHE_DIR`` /
``XDG_CACHE_HOME``.  The cache is crash-safe and self-healing:

* writes go through a temp file tagged with the pid and thread id and
  ``os.replace``, so a worker killed mid-store can never leave a
  truncated entry under a real key, and concurrent invocations (and
  threads) can share a directory safely;
* a corrupt, truncated, schema-stale or wrongly shaped entry never
  propagates an exception out of :meth:`RunCache.load` -- it is
  **quarantined** to a
  ``*.corrupt`` sibling (with a single warning per cache instance), the
  lookup reports a miss, and the fresh recomputation overwrites it.

The cache counts its ``hits`` / ``misses`` / ``stores`` /
``quarantined`` so callers (the CLI prints them) can verify that a
warm-cache invocation re-executed zero simulations and spot cache decay.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import pathlib
import time
import warnings
import weakref
import zlib
from typing import TYPE_CHECKING

from repro.core.results import RunSummary
from repro.core.serialize import config_to_dict, result_from_dict, result_to_dict
from repro.experiments.journal import atomic_write
from repro.specs.policy import policy_label, resolve_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness -> parallel)
    from repro.experiments.parallel import RunJob

# Bump whenever simulation output legitimately changes (timing model,
# policies, trace generation, serialization schema): old entries must not
# satisfy new lookups.
# 2: RunJob grew the ``sim`` field (event vs reference timing loop).
# (RunJob later grew ``metrics``; it enters the key payload only when
# True, so every pre-existing hash -- and entry -- stayed valid and the
# version did not need to move.)
# 3: the ``policy`` key payload changed from a bare preset name to the
#    policy's canonical spec payload (repro.specs) so presets and novel
#    PolicySpec compositions share one hash domain.  Migration: none
#    needed -- v2 entries are simply never looked up again; delete the
#    cache directory to reclaim the space, or re-run to repopulate.
# 4: the batched sweep backend landed and the workbench now promotes
#    eligible jobs to ``sim="batched"``, whose warm-up methodology (one
#    canonical training pass per trace; measured runs use the frozen
#    suite) legitimately shifts warm-run timings by <0.1% vs the event
#    backend's per-entry warm-up.  The ``sim`` field already keys the
#    hash, but the version moves anyway so the *figure-level* outputs
#    (goldens regenerated with this bump) and the cache retire together.
# 5: ``result_to_dict`` packs ``records`` as one column per field instead
#    of one dict per record, which v4 readers cannot decode.  Simulation
#    output is unchanged; only the key's salt moves.
# 6: an entry holds the run's ``RunSummary`` (counters, breakdown, event
#    classes, LoC table, consumer statistics, latencies) instead of its
#    records.  Simulation output is unchanged; only the key's salt moves.
CACHE_SCHEMA_VERSION = 6

# Level 9 would save 2% of a 12 000-instruction entry for 3x the time.
GZIP_LEVEL = 6


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def job_key(job: RunJob) -> str:
    """Stable content hash of everything that determines a run's output.

    The policy enters the payload as its canonical spec payload
    (:meth:`repro.specs.PolicySpec.canonical_payload`), never as a name:
    a preset name, its expanded :class:`~repro.specs.PolicySpec`, and any
    dict spelling of the same stack all hash to one key.
    """
    payload = {
        "version": CACHE_SCHEMA_VERSION,
        "kernel": job.kernel,
        "instructions": job.instructions,
        "seed": job.seed,
        "loc_mode": job.loc_mode,
        "config": config_to_dict(job.config),
        "policy": resolve_policy(job.policy).canonical_payload(),
        "collect_ilp": job.collect_ilp,
        "warm": job.warm,
        "sim": job.sim,
    }
    if job.metrics:
        # Only when True: a telemetry-off job must hash exactly as it did
        # before the field existed, so old cache entries keep satisfying
        # new lookups.  A metrics run caches separately because its stored
        # artifact carries the telemetry payload.
        payload["metrics"] = True
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunCache:
    """On-disk store of :class:`RunSummary`\\ s, keyed by :func:`job_key`.

    An optional :class:`~repro.telemetry.tracing.Tracer` times every load
    and store as ``cache.load`` / ``cache.store`` spans (loads are tagged
    with whether they hit).
    """

    def __init__(self, root: pathlib.Path | str | None = None, tracer=None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.tracer = tracer
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self._warned_corrupt = False
        # job -> job_key(job), so the load, the store and a sweep's
        # manifest hash each job once.  Weak keys: an entry lives as long
        # as its job does, so a long-lived cache (the service's) does not
        # hold every job it ever saw.
        self._keys: weakref.WeakKeyDictionary[RunJob, str] = weakref.WeakKeyDictionary()

    def key_for(self, job: RunJob) -> str:
        """:func:`job_key` of ``job``, computed once per job."""
        key = self._keys.get(job)
        if key is None:
            key = self._keys[job] = job_key(job)
        return key

    def path_for(self, key: str) -> pathlib.Path:
        """Entry location (two-level fan-out keeps directories small)."""
        return self.root / key[:2] / f"{key}.json.gz"

    # ------------------------------------------------------------------
    def load(self, job: RunJob) -> RunSummary | None:
        """Return the cached result for ``job``, or None (counting hit/miss)."""
        if self.tracer is None:
            return self._load(job)
        start = time.perf_counter()
        result = self._load(job)
        self.tracer.add(
            "cache.load",
            time.perf_counter() - start,
            kernel=job.kernel,
            hit=result is not None,
        )
        return result

    def _load(self, job: RunJob) -> RunSummary | None:
        path = self.path_for(self.key_for(job))
        try:
            payload = json.loads(gzip.decompress(path.read_bytes()))
            if not isinstance(payload, dict):
                raise TypeError(f"entry is a JSON {type(payload).__name__}, not an object")
            if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
                # Stale schema under a current key should be impossible
                # (the version salts the key) -- treat a mismatch as
                # corruption rather than deserializing on hope.
                raise ValueError(
                    f"schema_version {payload.get('schema_version')!r} != "
                    f"{CACHE_SCHEMA_VERSION}"
                )
            result = result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, EOFError, TypeError, zlib.error) as exc:
            # Corrupt, truncated or schema-stale entry: quarantine it so
            # the damage is inspectable, report a miss, and let the fresh
            # recomputation overwrite it.  Never propagate.
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: pathlib.Path, exc: BaseException) -> None:
        """Move a bad entry aside (best-effort) and warn once."""
        quarantine_path = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine_path)
        except OSError:  # pragma: no cover - raced or unwritable dir
            quarantine_path = path
        self.quarantined += 1
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"quarantined corrupt cache entry {quarantine_path} "
                f"({type(exc).__name__}: {exc}); it will be recomputed "
                "(further quarantines in this run stay silent; see "
                "RunCache.stats()['quarantined'])",
                RuntimeWarning,
                stacklevel=4,
            )
        if self.tracer is not None:
            self.tracer.event("cache.quarantine", path=str(quarantine_path))

    def store(self, job: RunJob, result: RunSummary) -> None:
        """Persist ``result`` atomically under ``job``'s key."""
        if self.tracer is not None:
            with self.tracer.span("cache.store", kernel=job.kernel):
                self._store(job, result)
        else:
            self._store(job, result)

    def _store(self, job: RunJob, result: RunSummary) -> None:
        key = self.key_for(job)
        path = self.path_for(key)
        payload = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "job": {
                "kernel": job.kernel,
                "instructions": job.instructions,
                "seed": job.seed,
                "loc_mode": job.loc_mode,
                "policy": policy_label(job.policy),
                "policy_spec": resolve_policy(job.policy).canonical_payload(),
                "collect_ilp": job.collect_ilp,
                "warm": job.warm,
            },
            "result": result_to_dict(result),
        }
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        # Private sibling + atomic rename: a worker killed mid-write
        # leaves at worst an orphaned ``.tmp-<pid>-<thread>`` file (skipped
        # by lookups), never a truncated entry under a real key, and two
        # threads storing one key never share a temp file.
        data = gzip.compress(data, compresslevel=GZIP_LEVEL)
        try:
            atomic_write(path, data)
        except FileNotFoundError:  # the first entry under this fan-out prefix
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)
        self.stores += 1

    # ------------------------------------------------------------------
    def contains(self, job: RunJob) -> bool:
        """Whether an entry exists on disk (does not count as a hit/miss)."""
        return self.path_for(self.key_for(job)).exists()

    def stats(self) -> dict[str, int]:
        """Counters snapshot, for CLI reporting and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }
