"""The resident query service: snapshot isolation over asyncio HTTP.

The execution engine is synchronous and CPU-bound; what a long-lived
server adds is *snapshot isolation*:

* every request captures the current :class:`~repro.database.Database`
  with a single attribute read (:meth:`SnapshotStore.current`) — no
  reader lock — and executes entirely against that immutable snapshot;
* a mutation (``POST /insert`` / ``POST /delete``) never touches served
  tables: it publishes an O(delta) :meth:`SpatialTable.with_staged`
  clone — shared packed base, the mutation staged in a write delta,
  statistics pre-warmed incrementally — through
  :meth:`SnapshotStore.swap`'s single atomic reference assignment.
  In-flight readers keep their old snapshot and finish bit-identically;
  new requests see the new one.  Past the repack threshold a background
  thread folds the accumulated delta into freshly packed structures
  *off* the rebuild lock and publishes the result with a second swap,
  replaying any mutations staged while it ran;
* at swap time the superseded tables are proactively purged from the
  shared :class:`~repro.spatial.table.ProbeCache` — the old objects are
  never looked up again, so without the purge their entries would
  squat in the LRU until eviction or garbage collection.

The HTTP layer is a deliberately small stdlib-only HTTP/1.1 loop over
``asyncio.start_server`` (the engine has no third-party dependencies —
see ``pyproject.toml``); query execution runs in the default thread
pool via ``run_in_executor`` so slow queries do not stall the accept
loop.  Endpoints: ``GET /health``, ``GET /stats``, and ``POST
/run | /explain | /bench | /nearest | /insert | /delete`` with JSON
bodies (see
:class:`QueryService` for payload shapes and
:mod:`repro.service.client` for a matching client).
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..algebra.regions import Region
from ..boxes.box import box_from_jsonable
from ..database import SESSION_OPTIONS, Database, Session
from ..engine.query import AggregateSpec, KNNStep, SpatialQuery
from ..errors import ReproError, ServiceError
from ..spatial.snapshot import (
    _decode_oid,
    _encode_oid,
    region_from_jsonable,
)
from ..spatial.table import ProbeCache, SpatialTable

__all__ = ["QueryService", "ServiceServer", "SnapshotStore", "serve_in_thread"]

#: What ``/run``, ``/explain`` and ``/bench`` read besides the session
#: options (:data:`~repro.database.SESSION_OPTIONS`).
_QUERY_KEYS = frozenset({"system", "bindings", "order", "knn", "aggregate"})


class SnapshotStore:
    """Lock-free-reader holder of the current database snapshot.

    Readers call :meth:`current` — one attribute read under the GIL, no
    lock.  Writers serialize on a mutex, publish with a single
    reference assignment, and purge the replaced tables from the shared
    probe cache (the fix for the stale-entry squat described in the
    module docstring).
    """

    def __init__(
        self, db: Database, cache: Optional[ProbeCache] = None
    ) -> None:
        # Writers only: readers see _current/_version through the
        # lock-free current() (single reference reads under the GIL).
        self._current = db  # guarded-by: _swap_lock
        self._cache = cache
        self._version = 1  # guarded-by: _swap_lock
        self._swap_lock = threading.Lock()

    def current(self) -> Tuple[Database, int]:
        """The live ``(database, version)`` pair (atomic, lock-free)."""
        # Read the reference before the version: a concurrent swap can
        # at worst pair the old database with the old version.
        db = self._current
        return db, self._version

    @property
    def version(self) -> int:
        return self._version

    def swap(self, new_db: Database) -> int:
        """Atomically publish ``new_db``; purge superseded cache entries.

        Returns the new snapshot version.  In-flight readers holding
        the old database object are unaffected — its tables are intact,
        only the cache entries keyed on them are dropped (they would
        never be hit again; dropping them is the proactive fix).
        """
        with self._swap_lock:
            old_db = self._current
            self._version += 1
            self._current = new_db
            version = self._version
        kept = {id(t) for t in new_db.tables.values()}
        if self._cache is not None:
            for table in old_db.tables.values():
                if id(table) not in kept:
                    self._cache.purge_table(table)
        return version


class QueryService:
    """Request handlers over a :class:`SnapshotStore`.

    All handlers are synchronous (the HTTP layer offloads them to the
    thread pool) and act on the snapshot captured at entry.  ``run``
    payloads carry the query as constraint text in the Figure-1 syntax;
    binding *names* resolve against the snapshot's stored bindings, or
    inline ``name -> [[lo, hi], ...]`` box lists define ad-hoc ones.
    """

    def __init__(
        self,
        db: Database,
        cache_size: int = 1024,
        repack_threshold: Optional[int] = None,
    ) -> None:
        self.cache = ProbeCache(maxsize=cache_size) if cache_size else None
        self.store = SnapshotStore(db, cache=self.cache)
        self._rebuild_lock = threading.Lock()
        # requests is bumped only on the HTTP server's event loop
        # thread, so it needs no lock; rebuilds/repacks are written by
        # the handlers, which serialize on the rebuild mutex.
        self.requests = 0
        self.rebuilds = 0  # guarded-by: _rebuild_lock
        self.repacks = 0  # guarded-by: _rebuild_lock
        #: Pending delta ops past which a mutation kicks a background
        #: repack; ``None`` defers to each table's own threshold.
        self.repack_threshold = repack_threshold
        self._repack_thread: Optional[threading.Thread] = None  # guarded-by: _rebuild_lock

    # -- payload decoding ------------------------------------------------------
    @staticmethod
    def _decode_bindings(
        db: Database, data: Any
    ) -> Optional[Dict[str, Region]]:
        if data is None:
            return None
        if isinstance(data, list):
            missing = [name for name in data if name not in db.bindings]
            if missing:
                raise ServiceError(
                    f"unknown binding name(s) {missing}; stored bindings: "
                    f"{sorted(db.bindings)}"
                )
            return {name: db.bindings[name] for name in data}
        return {
            name: region_from_jsonable(region_data)
            for name, region_data in data.items()
        }

    @staticmethod
    def _decode_knn(data: Any) -> Optional[KNNStep]:
        if data is None:
            return None
        return KNNStep(
            variable=str(data["variable"]),
            k=int(data["k"]),
            point=tuple(data["point"]) if data.get("point") else None,
            ref=data.get("ref"),
        )

    @staticmethod
    def _decode_aggregate(data: Any) -> Optional[AggregateSpec]:
        if data is None:
            return None
        return AggregateSpec(
            aggregates=tuple(
                (op, target) for op, target in data["aggregates"]
            ),
            group_by=tuple(data.get("group_by", ())),
            exact=bool(data.get("exact", True)),
        )

    def _session(
        self, db: Database, payload: Dict[str, Any], *extra: str
    ) -> Session:
        """The query endpoints' session; any payload key that is not a
        query part, a session option or one of ``extra`` is a 400 — an
        option the service cannot honour is refused, not ignored."""
        unknown = set(payload).difference(_QUERY_KEYS, SESSION_OPTIONS, extra)
        if unknown:
            raise ServiceError(
                f"unknown payload key(s) {sorted(unknown)}; expected "
                f"{sorted(_QUERY_KEYS)}, session options {list(SESSION_OPTIONS)}"
                + (f" or {list(extra)}" if extra else "")
            )
        options = {
            name: payload[name]
            for name in SESSION_OPTIONS
            if name in payload
        }
        return Session(db=db, cache=self.cache, **options)

    def _query(self, db: Database, payload: Dict[str, Any]) -> SpatialQuery:
        try:
            system = payload["system"]
        except KeyError:
            raise ServiceError(
                "payload needs a 'system' (constraint text)"
            ) from None
        return db.query(
            system,
            bindings=self._decode_bindings(db, payload.get("bindings")),
            order=payload.get("order"),
            knn=self._decode_knn(payload.get("knn")),
            aggregate=self._decode_aggregate(payload.get("aggregate")),
        )

    # -- endpoints -------------------------------------------------------------
    def health(self) -> dict:
        _db, version = self.store.current()
        return {"ok": True, "snapshot": version}

    def stats(self) -> dict:
        db, version = self.store.current()
        out = {
            "snapshot": version,
            "requests": self.requests,
            "rebuilds": self.rebuilds,
            "repacks": self.repacks,
            "tables": {
                key: {
                    "name": t.name,
                    "rows": len(t),
                    "index": t.index_kind,
                    "delta_pending": t.delta_pending_ops,
                }
                for key, t in db.tables.items()
            },
            "bindings": sorted(db.bindings),
        }
        if self.cache is not None:
            out["cache"] = {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
            }
        return out

    def run(self, payload: dict) -> dict:
        db, version = self.store.current()
        result = self._session(db, payload).run(self._query(db, payload))
        if result.answers and hasattr(result.answers[0], "as_dict"):
            answers = [row.as_dict() for row in result.answers]
        else:
            answers = [
                {var: _encode_oid(obj.oid) for var, obj in answer.items()}
                for answer in result.answers
            ]
        return {
            "snapshot": version,
            "order": list(result.order),
            "count": len(answers),
            "answers": answers,
            "stats": result.stats.to_dict(),
            "plan_s": result.plan_s,
            "time_to_first_s": result.time_to_first_s,
            "total_s": result.total_s,
        }

    def explain(self, payload: dict) -> dict:
        db, version = self.store.current()
        session = self._session(db, payload, "analyze")
        text = session.explain(
            self._query(db, payload),
            analyze=bool(payload.get("analyze", False)),
        )
        return {"snapshot": version, "plan": text}

    def bench(self, payload: dict) -> dict:
        db, version = self.store.current()
        session = self._session(db, payload)
        report = session.bench(self._query(db, payload))
        report["snapshot"] = version
        return report

    def nearest(self, payload: dict) -> dict:
        db, version = self.store.current()
        try:
            table = db.table(str(payload["table"]))
        except KeyError as exc:
            raise ServiceError(str(exc)) from exc
        if "point" in payload:
            anchor = payload["point"]  # checked by SpatialTable.nearest
        elif "box" in payload:
            anchor = box_from_jsonable(payload["box"])
        else:
            raise ServiceError("nearest needs a 'point' or a 'box' anchor")
        results = table.nearest(
            anchor,
            int(payload.get("k", 1)),
            access=str(payload.get("access", "auto")),
        )
        return {
            "snapshot": version,
            "results": [
                {"distance": dist, "oid": _encode_oid(obj.oid)}
                for dist, obj in results
            ],
        }

    def insert(self, payload: dict) -> dict:
        """Apply an insert via the delta write path + atomic swap.

        ``rows`` is a list of ``{"oid": ..., "boxes": [[lo, hi], ...]}``
        objects appended to ``table``.  Served tables are never mutated:
        an O(delta) shared-base clone with the rows staged is swapped in
        (see :meth:`apply_insert`).
        """
        try:
            key = str(payload["table"])
            rows = [
                (
                    _decode_oid(row["oid"]),
                    Region.from_boxes(
                        box_from_jsonable(b) for b in row["boxes"]
                    ),
                )
                for row in payload["rows"]
            ]
        except (KeyError, TypeError, IndexError) as exc:
            raise ServiceError(f"malformed insert payload: {exc}") from exc
        version = self.apply_insert(key, rows)
        return {"snapshot": version, "inserted": len(rows)}

    def delete(self, payload: dict) -> dict:
        """Apply deletes via delta tombstones + atomic swap.

        ``oids`` is a list of row ids to delete from ``table``; ids that
        are not live are reported, not errors (deletes are idempotent
        over the wire).
        """
        try:
            key = str(payload["table"])
            oids = [_decode_oid(o) for o in payload["oids"]]
        except (KeyError, TypeError) as exc:
            raise ServiceError(f"malformed delete payload: {exc}") from exc
        version, deleted = self.apply_delete(key, oids)
        return {
            "snapshot": version,
            "deleted": deleted,
            "missing": len(oids) - deleted,
        }

    # -- mutation --------------------------------------------------------------
    def apply_insert(
        self, key: str, rows: List[Tuple[object, Region]]
    ) -> int:
        """Stage ``rows`` into ``key``'s delta and swap — O(delta)."""
        return self._apply_mutation(key, inserts=rows)[0]

    def apply_delete(
        self, key: str, oids: List[object]
    ) -> Tuple[int, int]:
        """Tombstone ``oids`` in ``key``'s delta and swap.

        Returns ``(snapshot version, rows actually deleted)`` — ids that
        are not live are skipped rather than raising.
        """
        return self._apply_mutation(key, deletes=oids)

    def _apply_mutation(
        self,
        key: str,
        inserts: List[Tuple[object, Region]] = (),
        deletes: List[object] = (),
    ) -> Tuple[int, int]:
        """Publish an O(delta) shared-base clone with the writes staged.

        The served table is never touched: :meth:`SpatialTable.
        with_staged` clones it around a copied delta (shared packed
        base), the catalog is pre-warmed incrementally, and one atomic
        swap publishes the clone.  Past the repack threshold a
        background repack is kicked (never inline — the mutation stays
        O(delta)).
        """
        with self._rebuild_lock:
            db, _version = self.store.current()
            try:
                old = db.table(key)
            except KeyError as exc:
                raise ServiceError(str(exc)) from exc
            # Dedup and drop non-live oids: wire deletes are idempotent.
            live, seen = [], set()
            for oid in deletes:
                if oid in seen:
                    continue
                seen.add(oid)
                try:
                    old.get(oid)
                except KeyError:
                    continue
                live.append(oid)
            applied = len(live)
            if not inserts and not live:
                return self.store.version, 0
            new_table = old.with_staged(inserts=inserts, deletes=live)
            new_table.statistics()  # warm delta-adjusted catalog
            self.rebuilds += 1
            version = self.store.swap(self._republish(db, key, new_table))
            if self._repack_due(new_table):
                self._start_repack_locked(key)
            return version, applied

    @staticmethod
    def _republish(db: Database, key: str, table: SpatialTable) -> Database:
        """A new snapshot database with ``key`` replaced by ``table``."""
        tables = dict(db.tables)
        tables[key] = table
        new_db = Database(tables=tables, bindings=dict(db.bindings))
        # The worker pools are the service's, not the snapshot's: hand
        # the same pool registry (and the lock guarding it — one dict
        # must have one lock) to the new database so warm workers
        # survive the swap.
        new_db._pools = db._pools
        new_db._pool_lock = db._pool_lock
        return new_db

    # -- background repack -----------------------------------------------------
    def _repack_due(self, table: SpatialTable) -> bool:
        threshold = (
            self.repack_threshold
            if self.repack_threshold is not None
            else table.delta_threshold
        )
        return table.delta_pending_ops >= threshold

    def _start_repack_locked(self, key: str) -> None:
        # Callers hold _rebuild_lock.  One repack at a time: a mutation
        # landing mid-repack is replayed by the worker, and the next
        # threshold crossing starts a fresh one.
        if self._repack_thread is not None and self._repack_thread.is_alive():
            return
        thread = threading.Thread(
            target=self._repack_worker,
            args=(key,),
            name=f"repro-repack-{key}",
            daemon=True,
        )
        self._repack_thread = thread
        thread.start()

    def _repack_worker(self, key: str) -> None:
        """Fold ``key``'s delta off-lock and publish the packed table.

        Readers are never blocked or perturbed: the expensive STR
        rebuild runs on a private shared-base clone while requests keep
        hitting the delta-overlay snapshot; mutations staged meanwhile
        are replayed from the delta's op log (the published clone chain
        keeps the build snapshot's ops as a prefix) before the second
        swap publishes the packed table.
        """
        with self._rebuild_lock:
            db, _version = self.store.current()
            current = db.tables.get(key)
            if current is None or not current.delta_pending:
                return
            packed = current.with_staged()
            ops_seen = len(current._delta.ops)
        # The expensive part — STR bulk load + fresh statistics — runs
        # off the lock, against structures only this thread can see.
        packed.repack()
        packed.statistics()
        with self._rebuild_lock:
            db, _version = self.store.current()
            current = db.tables.get(key)
            if current is None:
                return
            delta = current._delta
            if delta is not None:
                for op, arg in delta.ops[ops_seen:]:
                    if op == "insert":
                        packed.stage_insert(arg.oid, arg.region)
                    else:
                        packed.stage_delete(arg)
            self.repacks += 1
            self.store.swap(self._republish(db, key, packed))

    def drain_repacks(self, timeout: float = 30.0) -> None:
        """Block until no background repack is in flight (tests)."""
        thread = self._repack_thread
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():  # pragma: no cover - hang guard
                raise RuntimeError("background repack did not finish")


# -- HTTP layer ----------------------------------------------------------------
_ROUTES = {
    ("GET", "/health"): "health",
    ("GET", "/stats"): "stats",
    ("POST", "/run"): "run",
    ("POST", "/explain"): "explain",
    ("POST", "/bench"): "bench",
    ("POST", "/nearest"): "nearest",
    ("POST", "/insert"): "insert",
    ("POST", "/delete"): "delete",
}

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}


class ServiceServer:
    """The asyncio HTTP/1.1 front end of a :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        return self.host, self.port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- request loop ----------------------------------------------------------
    async def _serve_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or not request_line.strip():
                    break
                try:
                    method, path, _proto = (
                        request_line.decode("latin-1").split(" ", 2)
                    )
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"}
                    )
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if not line.strip():
                        break
                    name, _sep, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                declared = headers.get("content-length") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    # The body's extent is unknown: answer and hang up.
                    error = {"error": f"invalid Content-Length: {declared!r}"}
                    await self._respond(writer, 400, error)
                    break
                length = int(declared)
                body = await reader.readexactly(length) if length else b""
                status, response = await self._dispatch(method, path, body)
                await self._respond(writer, status, response)
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer reset
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        self.service.requests += 1
        handler_name = _ROUTES.get((method, path.rstrip("/") or path))
        if handler_name is None:
            return 404, {"error": f"no route {method} {path}"}
        if body:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                return 400, {"error": f"body is not valid JSON: {exc}"}
            if not isinstance(payload, dict):
                kind = type(payload).__name__
                return 400, {"error": f"body must be a JSON object, not {kind}"}
        else:
            payload = {}
        handler = getattr(self.service, handler_name)
        loop = asyncio.get_running_loop()
        try:
            if method == "GET":
                result = await loop.run_in_executor(None, handler)
            else:
                result = await loop.run_in_executor(None, handler, payload)
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        return 200, result

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        data = json.dumps(payload, default=str).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()


class _ThreadedServer:
    """A :class:`ServiceServer` running in a daemon thread (tests/CLI)."""

    def __init__(
        self,
        server: ServiceServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def stop(self) -> None:
        async def _shutdown() -> None:
            await self.server.stop()

        if self._loop.is_running():
            asyncio.run_coroutine_threadsafe(
                _shutdown(), self._loop
            ).result(timeout=10)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


def serve_in_thread(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> _ThreadedServer:
    """Start a server on a background event loop; returns a stoppable
    handle whose ``address`` carries the bound ephemeral port."""
    server = ServiceServer(service, host=host, port=port)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=10):  # pragma: no cover - startup hang
        raise RuntimeError("service failed to start within 10s")
    return _ThreadedServer(server, loop, thread)
