"""Shared plumbing for the declarative spec layer.

Every spec in :mod:`repro.specs` is a frozen dataclass with a
``to_dict``/``from_dict`` pair (schema-validated, plain JSON types only)
and a *canonical payload* -- the JSON-type dict that defines its
semantics.  Canonical payloads are hashed with :func:`spec_hash`; the
persistent run cache keys on these hashes, so two specs that mean the
same thing must hash identically no matter how they were spelled
(dict ordering, preset name vs expanded form, defaulted vs explicit
parameters).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["SpecError", "canonical_json", "spec_hash"]

# JSON scalar types a spec parameter may take.  Compound values are
# deliberately excluded: parameters must stay trivially hashable and
# order-free so canonical hashing cannot be perturbed by spelling.
SCALAR_TYPES = (str, int, float, bool, type(None))


class SpecError(ValueError):
    """A malformed, unknown or inconsistent spec.

    Subclasses ``ValueError`` so callers that catch ``ValueError`` for
    bad input also catch spec errors.
    """


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace.

    This is the byte form that gets hashed, so two dicts with the same
    items in any order serialize -- and therefore hash -- identically.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def spec_hash(spec_or_payload: Any) -> str:
    """SHA-256 of a spec's canonical payload (or of a raw payload dict)."""
    payload = spec_or_payload
    canonical = getattr(spec_or_payload, "canonical_payload", None)
    if callable(canonical):
        payload = canonical()
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def require_type(value: Any, kind: type | tuple, what: str) -> Any:
    """``value`` if it has the expected JSON type, else a :class:`SpecError`."""
    if kind in (int, (int,)) and isinstance(value, bool):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    if not isinstance(value, kind):
        name = kind.__name__ if isinstance(kind, type) else "/".join(
            k.__name__ for k in kind
        )
        raise SpecError(f"{what} must be {name}, got {value!r}")
    return value


def reject_unknown_keys(data: dict, allowed: set[str], what: str) -> None:
    """Schema guard: unknown keys are typos, not extensions."""
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(
            f"{what} has unknown keys {unknown}; allowed: {sorted(allowed)}"
        )
