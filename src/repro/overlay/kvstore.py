"""Distributed key-value store for overlay address resolution.

Overlay networks keep the mapping from a container's private IP to the
public IP of the host it runs on in a distributed KV store (Section 2.1
— e.g. etcd or Docker's gossip-backed store). The sender consults it
during encapsulation. Lookups are cached; a cold lookup pays a control-
plane round trip, which is why first packets of a flow are slower in
real deployments (modelled, but negligible for steady-state results).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.errors import TopologyError


class KvStore:
    """The overlay control-plane store: private IP → host IP."""

    def __init__(self, lookup_latency_us: float = 50.0) -> None:
        self._mapping: Dict[int, int] = {}
        self._cache: Dict[int, int] = {}
        self.lookup_latency_us = lookup_latency_us
        self.lookups = 0
        self.cache_hits = 0

    def publish(self, container_ip: int, host_ip: int) -> None:
        """Register (or move) a container's placement."""
        self._mapping[container_ip] = host_ip
        # Invalidate any stale cached entry.
        self._cache.pop(container_ip, None)

    def withdraw(self, container_ip: int) -> None:
        self._mapping.pop(container_ip, None)
        self._cache.pop(container_ip, None)

    def resolve(self, container_ip: int) -> int:
        """Resolve a private IP, using the local cache when possible."""
        self.lookups += 1
        cached = self._cache.get(container_ip)
        if cached is not None:
            self.cache_hits += 1
            return cached
        host_ip = self._mapping.get(container_ip)
        if host_ip is None:
            raise TopologyError(f"no host mapping for container IP {container_ip}")
        self._cache[container_ip] = host_ip
        return host_ip

    def __len__(self) -> int:
        return len(self._mapping)
