"""Cache substrate: stores and replacement policies.

The cache *server* (serve-or-forward decision, rate meters, service queue)
lives with the packet plane's array state:
:class:`repro.protocols.state.CacheServerView` over
:class:`~repro.protocols.state.MeterBank`.
"""

from .store import CacheError, CacheStore

__all__ = ["CacheStore", "CacheError"]
