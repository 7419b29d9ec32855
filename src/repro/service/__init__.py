"""The resident query service (snapshot isolation over threaded HTTP/1.1).

See :mod:`repro.service.server` for the architecture — lock-free
snapshot reads, background rebuild, atomic swap with probe-cache purge,
one thread per kept-alive connection running handlers inline, and the
wire bounds with their status codes — and :mod:`repro.service.client`
for the matching blocking client, which keeps one connection alive.
"""

from .client import ServiceClient
from .server import QueryService, ServiceServer, serve_in_thread

__all__ = [
    "QueryService",
    "ServiceClient",
    "ServiceServer",
    "serve_in_thread",
]
