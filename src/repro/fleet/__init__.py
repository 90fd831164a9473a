"""The distributed evaluation fleet.

Scales the persistent evaluation service (:mod:`repro.serve`) across N
worker processes/machines without changing its protocol or its
byte-identical-results guarantee:

- :mod:`repro.fleet.hashring` — consistent-hash assignment of workload
  fingerprints to worker shards.
- :mod:`repro.fleet.coordinator` — the sharding coordinator: worker
  registration/heartbeat, health-based failover with automatic job
  re-dispatch, result caching, load shedding; protocol-compatible with
  a single server so existing clients work unchanged, and served over
  HTTP by the same front end (:mod:`repro.serve.frontend`).
- :mod:`repro.fleet.client` — the streaming client: bounded in-flight
  windows, shed-aware backoff, bulk completion polling, ordered
  delivery.
- :mod:`repro.fleet.local` — local bring-up: spawn worker subprocesses
  sharing one fingerprint-scoped artifact store (``repro fleet``).
"""

from repro.fleet.client import FleetClient
from repro.fleet.coordinator import FleetCoordinator, FleetStats
from repro.fleet.hashring import HashRing
from repro.fleet.local import LocalWorker, fleet_forever, spawn_fleet

__all__ = [
    "FleetClient",
    "FleetCoordinator",
    "FleetStats",
    "HashRing",
    "LocalWorker",
    "fleet_forever",
    "spawn_fleet",
]
