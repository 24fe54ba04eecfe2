"""Cache substrate: stores and replacement policies.

The cache *server* (serve targets, rate meters, service queue) is one node's
row of :class:`repro.protocols.state.PacketState`, and its serve-or-forward
decision is the walker in :meth:`repro.protocols.scenario.Scenario.handle_arrival`.
"""

from .store import CacheError, CacheStore

__all__ = ["CacheStore", "CacheError"]
