"""Shared utilities: deterministic RNG streams, statistics, retries, JSON, duration text."""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "derive_seed": "rng",
    "spawn_rng": "rng",
    "net_delta_percent": "stats",
    "DEFAULT_RETRY_POLICY": "retrying",
    "RetryPolicy": "retrying",
    "call_with_retries": "retrying",
    "to_jsonable": "serialization",
    "dump_json": "serialization",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
