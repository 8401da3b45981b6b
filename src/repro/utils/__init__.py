"""Shared utilities: deterministic RNG streams, statistics, logging, timing."""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "RNGRegistry": "rng",
    "derive_seed": "rng",
    "spawn_rng": "rng",
    "SummaryStats": "stats",
    "bootstrap_ci": "stats",
    "median_and_spread": "stats",
    "net_delta_percent": "stats",
    "summarize": "stats",
    "Stopwatch": "timer",
    "get_logger": "logging",
    "DEFAULT_RETRY_POLICY": "retrying",
    "RetryPolicy": "retrying",
    "call_with_retries": "retrying",
    "to_jsonable": "serialization",
    "dump_json": "serialization",
    "load_json": "serialization",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
