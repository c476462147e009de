"""repro.serve — simulation-as-a-service.

A long-lived asyncio job daemon in front of the experiment runner:
typed JSON job requests (:mod:`repro.serve.protocol`), a priority job
queue with bounded concurrency (:mod:`repro.serve.daemon`), a
content-addressed result cache over the persistent run index
(:mod:`repro.serve.cache`), a plain JSON-lines TCP / unix-socket
transport with no third-party web framework
(:mod:`repro.serve.transport`), and the ``repro-serve`` CLI
(:mod:`repro.serve.cli`).

Quick tour::

    # terminal 1: the daemon
    repro-serve serve --socket /tmp/repro.sock

    # terminal 2: clients
    repro-serve submit --socket /tmp/repro.sock fig8 --fast --wait
    repro-serve submit --socket /tmp/repro.sock fig8 --fast --wait
    #   -> second submission is a cache hit, served from results/
    repro-serve status --socket /tmp/repro.sock JOB_ID
    repro-serve shutdown --socket /tmp/repro.sock

Repeat requests are free: every run's manifest records a canonical
content hash of the request (platform, workload, n, noise, seed,
schedule, queue backend, macro flag, ...), the run index carries it,
and the daemon answers a matching submission from ``results/`` with a
``cache_hit`` marker instead of re-simulating.  See
``docs/SERVICE.md`` for the full protocol and operational notes.
"""

from importlib import import_module

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562) so that a client — ``repro-serve ping`` importing
# repro.serve.cli — loads neither the daemon's asyncio stack nor the
# cache's numpy-backed run index.
_EXPORTS = {
    "CANCELLED": "jobs",
    "DONE": "jobs",
    "FAILED": "jobs",
    "QUEUED": "jobs",
    "RUNNING": "jobs",
    "TERMINAL_STATES": "jobs",
    "Job": "jobs",
    "JobDaemon": "daemon",
    "JobRequest": "protocol",
    "PriorityJobQueue": "jobs",
    "PROTOCOL_VERSION": "protocol",
    "ProtocolError": "protocol",
    "ResultCache": "cache",
    "ServeClient": "client",
    "ServeServer": "transport",
    "cache_key": "cache",
    "canonical_request": "protocol",
    "decode_message": "protocol",
    "encode_message": "protocol",
    "handle_message": "transport",
    "validate_request": "protocol",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
