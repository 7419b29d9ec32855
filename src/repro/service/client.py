"""A small blocking client for the query service (stdlib ``http.client``).

Mirrors the server's endpoints one method each; payload/response shapes
are documented on :class:`repro.service.server.QueryService`.  Errors
reported by the server raise :class:`~repro.errors.ServiceError` with
the server's message and HTTP status.

>>> with ServiceClient("127.0.0.1", 8080) as client:   # doctest: +SKIP
...     reply = client.run(str(smugglers_system()), bindings=["C", "A"])
>>> stats = ExecutionStats.from_dict(reply["stats"])
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Dict, Optional, Sequence, Union

from ..errors import ServiceError

__all__ = ["ServiceClient"]

#: How a kept-alive connection the server closed fails before a response.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ServiceClient:
    """One service endpoint per method, over one kept-alive connection.

    A lock serialises calls, so threads may share an instance and each
    gets its own reply; :meth:`close` or leaving a ``with`` block ends
    the connection.  A call whose *reused* connection fails before any
    response arrives (``RemoteDisconnected``, ``ConnectionResetError``,
    ``BrokenPipeError``: the server closed it while idle) is retried
    once on a fresh connection — safe for ``/insert`` and ``/delete``
    too, because the server closes a connection only while waiting for
    a request line or after answering, so that request never ran.  Any
    other failure, or one after a response has started, is raised.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)  # guarded-by: _lock

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(self, method: str, path: str, payload: Optional[dict]) -> dict:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        with self._lock:
            conn = self._conn
            while True:
                reused, response = conn.sock is not None, None
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    status, raw = response.status, response.read()
                    break
                except BaseException as exc:
                    conn.close()  # closed, so a retry is not on a reused one
                    if not (reused and response is None and isinstance(exc, _STALE)):
                        raise
        data = json.loads(raw.decode("utf-8"))
        if status != 200:
            raise ServiceError(data.get("error", f"HTTP {status}"), status=status)
        return data

    def _post(self, path: str, payload: dict) -> dict:
        return self._request("POST", path, payload)

    # -- endpoints -------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health", None)

    def stats(self) -> dict:
        return self._request("GET", "/stats", None)

    def _query_payload(
        self,
        system: str,
        bindings: Union[Sequence[str], Dict, None],
        **options: Any,
    ) -> dict:
        payload = {"system": system}
        if bindings is not None:
            payload["bindings"] = (
                list(bindings)
                if not isinstance(bindings, dict)
                else bindings
            )
        payload.update(
            {k: v for k, v in options.items() if v is not None}
        )
        return payload

    def run(
        self,
        system: str,
        bindings: Union[Sequence[str], Dict, None] = None,
        **options: Any,
    ) -> dict:
        """Execute constraint text; options are the uniform Session
        keywords (``mode=``, ``join_strategy=``, ``partitions=``,
        ``parallel=``, ``limit=``) plus ``order``/``knn``/``aggregate``
        payloads."""
        return self._post(
            "/run", self._query_payload(system, bindings, **options)
        )

    def explain(
        self,
        system: str,
        bindings: Union[Sequence[str], Dict, None] = None,
        analyze: bool = False,
        **options: Any,
    ) -> dict:
        return self._post(
            "/explain",
            self._query_payload(
                system, bindings, analyze=analyze or None, **options
            ),
        )

    def bench(
        self,
        system: str,
        bindings: Union[Sequence[str], Dict, None] = None,
        **options: Any,
    ) -> dict:
        return self._post(
            "/bench", self._query_payload(system, bindings, **options)
        )

    def nearest(
        self,
        table: str,
        k: int = 1,
        point: Optional[Sequence[float]] = None,
        box: Any = None,
        access: str = "auto",
    ) -> dict:
        payload: dict = {"table": table, "k": k, "access": access}
        if point is not None:
            payload["point"] = list(point)
        if box is not None:
            payload["box"] = box
        return self._post("/nearest", payload)

    def insert(self, table: str, rows: Sequence[dict]) -> dict:
        """Append rows (``{"oid": ..., "boxes": [[lo, hi], ...]}``);
        returns the post-swap snapshot version."""
        return self._post("/insert", {"table": table, "rows": list(rows)})

    def delete(self, table: str, oids: Sequence[Any]) -> dict:
        """Delete rows by oid (idempotent — non-live oids are counted
        as ``missing``); returns the post-swap snapshot version."""
        return self._post("/delete", {"table": table, "oids": list(oids)})
