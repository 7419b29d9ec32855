"""A small blocking client for the query service.

Mirrors the server's endpoints one method each; payload/response shapes
are documented on :class:`repro.service.server.QueryService`.  One
socket speaks the server's own framing (:mod:`repro.service.wire`), so
its bounds hold for replies too.  Errors the server reports raise
:class:`~repro.errors.ServiceError` with its message and HTTP status; a
reply that breaks the framing, ``ServiceError``/``OSError``/``ValueError``.

>>> with ServiceClient("127.0.0.1", 8080) as client:   # doctest: +SKIP
...     reply = client.run(str(smugglers_system()), bindings=["C", "A"])
>>> stats = ExecutionStats.from_dict(reply["stats"])
"""

from __future__ import annotations

import json
import socket
import threading
from io import BufferedReader
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..errors import ServiceError
from .wire import read_response, write_request

__all__ = ["ServiceClient"]

#: How a kept-alive connection the server closed fails before a reply.
_STALE = (ConnectionResetError, BrokenPipeError)

#: Stored binding names, or inline ``name -> [[lo, hi], ...]`` regions.
_Bindings = Union[Sequence[str], Dict[str, Any], None]


class ServiceClient:
    """One service endpoint per method, over one kept-alive connection.

    A lock serialises calls, so threads may share an instance and each
    gets its own reply; :meth:`close` or leaving a ``with`` block ends
    the connection, as do a failed call and a ``Connection: close``
    reply.  A call whose *reused* connection fails before any byte of
    the reply arrives (EOF, ``ConnectionResetError``,
    ``BrokenPipeError``: the server closed it while idle) is retried
    once on a fresh connection — safe for ``/insert`` and ``/delete``
    too, because the server closes a connection only while waiting for
    a request line or after answering, so that request never ran.  Any
    other failure, or one after a reply has started, is raised.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conn: Optional[Tuple[socket.socket, BufferedReader]] = None  # guarded-by: _lock

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _close_locked(self) -> None:
        if self._conn is not None:
            sock, rfile = self._conn
            self._conn = None
            rfile.close()
            sock.close()

    def _request(self, method: str, path: str, payload: Optional[dict]) -> dict:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        with self._lock:
            while True:
                reused, replied = self._conn is not None, False
                try:
                    if self._conn is None:
                        sock = socket.create_connection((self.host, self.port), self.timeout)
                        self._conn = sock, sock.makefile("rb")
                        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    sock, rfile = self._conn
                    write_request(sock, method, path, f"{self.host}:{self.port}", body)
                    replied = bool(rfile.peek(1))  # a reply's first byte, or EOF
                    if not replied:
                        raise ConnectionResetError("the server closed the connection")
                    status, headers, raw = read_response(rfile)
                except BaseException as exc:
                    self._close_locked()  # closed, so a retry is not on a reused one
                    if replied or not reused or not isinstance(exc, _STALE):
                        raise
                    continue
                if headers.get("connection", "").lower() == "close":
                    self._close_locked()
                break
        data = json.loads(raw.decode("utf-8"))
        if status != 200:
            raise ServiceError(data.get("error", f"HTTP {status}"), status=status)
        return data

    # -- endpoints -------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health", None)

    def stats(self) -> dict:
        return self._request("GET", "/stats", None)

    def _query(self, path: str, system: str, bindings: _Bindings, options: Dict[str, Any]) -> dict:
        payload: Dict[str, Any] = {"system": system}
        if bindings is not None:
            payload["bindings"] = bindings if isinstance(bindings, dict) else list(bindings)
        payload.update((k, v) for k, v in options.items() if v is not None)
        return self._request("POST", path, payload)

    def run(self, system: str, bindings: _Bindings = None, **options: Any) -> dict:
        """Execute constraint text; options are the uniform Session
        keywords (``mode=``, ``limit=``) plus ``order``/``knn``/
        ``aggregate`` payloads."""
        return self._query("/run", system, bindings, options)

    def explain(
        self, system: str, bindings: _Bindings = None, analyze: bool = False, **options: Any
    ) -> dict:
        """The plan text; with ``analyze`` the per-query report of
        :meth:`repro.database.Session.explain` (``snapshot`` added)."""
        return self._query("/explain", system, bindings, dict(options, analyze=analyze or None))

    def nearest(
        self,
        table: str,
        k: int = 1,
        point: Optional[Sequence[float]] = None,
        box: Any = None,
    ) -> dict:
        payload: dict = {"table": table, "k": k}
        if point is not None:
            payload["point"] = list(point)
        if box is not None:
            payload["box"] = box
        return self._request("POST", "/nearest", payload)

    def insert(self, table: str, rows: Sequence[dict]) -> dict:
        """Append rows (``{"oid": ..., "boxes": [[lo, hi], ...]}``);
        returns the post-swap snapshot version."""
        return self._request("POST", "/insert", {"table": table, "rows": list(rows)})

    def delete(self, table: str, oids: Sequence[Any]) -> dict:
        """Delete rows by oid (idempotent — non-live oids are counted
        as ``missing``); returns the post-swap snapshot version."""
        return self._request("POST", "/delete", {"table": table, "oids": list(oids)})
