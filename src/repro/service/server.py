"""The resident query service: snapshot isolation over threaded HTTP/1.1.

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
  replaying any mutations staged while it ran.  Every probe reads the
  index of the snapshot it was handed: there is no result cache to
  invalidate at a swap.

The HTTP layer is a small stdlib-only HTTP/1.1 server: one blocking
accept loop, and one thread per kept-alive connection that reads a
request, runs its handler inline, answers, and loops — no hand-off
between threads per request.  A thread that finishes a connection
waits for the next one.  Endpoints: ``GET /health``, ``GET /stats``,
and ``POST /run | /explain | /nearest | /insert | /delete`` with JSON
bodies (see :class:`QueryService` for payload shapes and
:mod:`repro.service.client` for a matching client); ``/explain`` with
``"analyze": true`` is the per-query report of
:meth:`~repro.database.Session.explain`.  Wire bounds: the
framing caps of :mod:`repro.service.wire`, which hold for requests and
replies alike (a breach → ``400``/``413`` and close; a body cut short
by EOF → dropped unanswered, no handler runs); a peer silent for 30 s
in one socket read or write is dropped; past 64 connections served at
once → ``503`` and close.

Handler errors (``400``/``404``/``409``/``500``) keep the connection open; a
response after which the server closes says ``Connection: close``.
"""

from __future__ import annotations

import contextlib
import json
import queue
import socket
import threading
import time
import traceback
from typing import AbstractSet, Any, Dict, List, Optional, Set, Tuple

from ..algebra.regions import Region
from ..boxes.box import box_from_jsonable
from ..database import SESSION_OPTIONS, Database, Session
from ..engine.query import AggregateSpec, KNNStep, SpatialQuery
from ..errors import DuplicateOidError, OptionError, ReproError, ServiceError
from ..spatial.snapshot import (
    _decode_oid,
    _encode_oid,
    region_from_jsonable,
)
from ..spatial.table import SpatialTable
from .wire import read_request, write_response

__all__ = ["QueryService", "ServiceServer", "SnapshotStore", "serve_in_thread"]

#: What ``/run`` and ``/explain`` read besides the session options
#: (:data:`~repro.database.SESSION_OPTIONS`).
_QUERY_KEYS = frozenset({"system", "bindings", "order", "knn", "aggregate"})
#: What ``/nearest`` reads.  ``access`` is accepted only as ``"auto"``,
#: the body older clients send: the table's index picks the kNN path.
_NEAREST_KEYS = frozenset({"table", "k", "point", "box", "access"})
_INSERT_KEYS = frozenset({"table", "rows"})
_DELETE_KEYS = frozenset({"table", "oids"})


def _refuse_unknown_keys(payload: Dict[str, Any], known: AbstractSet[str]) -> None:
    """A payload key an endpoint does not read is a 400 — an option the
    service cannot honour is refused, not ignored."""
    unknown = set(payload).difference(known)
    if unknown:
        raise ServiceError(
            f"unknown payload key(s) {sorted(unknown)}; expected {sorted(known)}"
        )


class SnapshotStore:
    """Lock-free-reader holder of the current database snapshot.

    Readers call :meth:`current` — one attribute read under the GIL, no
    lock.  Writers serialize on a mutex and publish with a single
    reference assignment.
    """

    def __init__(self, db: Database) -> None:
        # Writers only: readers see _current/_version through the
        # lock-free current() (single reference reads under the GIL).
        self._current = db  # guarded-by: _swap_lock
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
        """Atomically publish ``new_db``.

        Returns the new snapshot version.  In-flight readers holding
        the old database object are unaffected — its tables are intact.
        """
        with self._swap_lock:
            self._version += 1
            self._current = new_db
            return self._version


class QueryService:
    """Request handlers over a :class:`SnapshotStore`.

    All handlers are synchronous (the HTTP layer runs them inline on
    each connection's thread) and act on the snapshot captured at
    entry.  ``run`` payloads carry the query as constraint text in the
    Figure-1 syntax; binding *names* resolve against the snapshot's
    stored bindings, or inline ``name -> [[lo, hi], ...]`` box lists
    define ad-hoc ones.
    """

    def __init__(self, db: Database, repack_threshold: Optional[int] = None) -> None:
        self.store = SnapshotStore(db)
        self._rebuild_lock = threading.Lock()
        # Every connection thread bumps the wire counters.
        self._counter_lock = threading.Lock()
        self.requests = 0  # guarded-by: _counter_lock
        self.connections = 0  # guarded-by: _counter_lock
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
        """``None``, a list of stored binding names, or an object of
        inline ``name -> [[lo, hi], ...]`` box lists."""
        if data is None:
            return None
        if isinstance(data, list):
            if not all(isinstance(name, str) for name in data):
                raise ServiceError(f"'bindings' names must be strings, not {data!r}")
            missing = [name for name in data if name not in db.bindings]
            if missing:
                raise ServiceError(
                    f"unknown binding name(s) {missing}; stored bindings: "
                    f"{sorted(db.bindings)}"
                )
            return {name: db.bindings[name] for name in data}
        if not isinstance(data, dict):
            raise ServiceError(
                f"'bindings' must be a list of names or an object of box "
                f"lists, not {data!r}"
            )
        try:
            return {
                name: region_from_jsonable(region_data)
                for name, region_data in data.items()
            }
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ServiceError(f"malformed inline binding: {exc!r}") from exc

    @staticmethod
    def _decode_knn(data: Any) -> Optional[KNNStep]:
        """``{"variable": str, "k": int, "point": [x, ...] | "ref": str}``."""
        if data is None:
            return None
        if not isinstance(data, dict):
            raise ServiceError(f"'knn' must be an object, not {data!r}")
        variable, k, ref = data.get("variable"), data.get("k"), data.get("ref")
        if not isinstance(variable, str):
            raise ServiceError(f"'knn' needs a 'variable' name, not {variable!r}")
        if type(k) is not int:
            raise ServiceError(f"'knn' needs an integer 'k', not {k!r}")
        if ref is not None and not isinstance(ref, str):
            raise ServiceError(f"'knn' 'ref' must be a variable name, not {ref!r}")
        point = data.get("point")
        try:
            return KNNStep(
                variable=variable,
                k=k,
                point=tuple(point) if point else None,
                ref=ref,
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"'knn' 'point' {point!r}: {exc}") from exc

    @staticmethod
    def _decode_aggregate(data: Any) -> Optional[AggregateSpec]:
        """``{"aggregates": [[op, target], ...], "group_by": [var, ...],
        "exact": bool}``."""
        if data is None:
            return None
        if not isinstance(data, dict):
            raise ServiceError(f"'aggregate' must be an object, not {data!r}")
        pairs, group_by = data.get("aggregates"), data.get("group_by", [])
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            raise ServiceError(
                f"'aggregate' needs 'aggregates' as [op, target] pairs, not {pairs!r}"
            )
        if not isinstance(group_by, list) or not all(
            isinstance(name, str) for name in group_by
        ):
            raise ServiceError(f"'aggregate' 'group_by' must list names, not {group_by!r}")
        return AggregateSpec(
            aggregates=tuple((op, target) for op, target in pairs),
            group_by=tuple(group_by),
            exact=bool(data.get("exact", True)),
        )

    def _session(
        self, db: Database, payload: Dict[str, Any], *extra: str
    ) -> Session:
        """The query endpoints' session; any payload key that is not a
        query part, a session option or one of ``extra`` is a 400."""
        _refuse_unknown_keys(payload, _QUERY_KEYS.union(SESSION_OPTIONS, extra))
        options = {
            name: payload[name]
            for name in SESSION_OPTIONS
            if name in payload
        }
        return Session(db=db, **options)

    def _query(self, db: Database, payload: Dict[str, Any]) -> SpatialQuery:
        system = payload.get("system")
        if not isinstance(system, str):
            raise ServiceError(
                f"payload needs a 'system' (constraint text), not {system!r}"
            )
        return db.query(
            system,
            bindings=self._decode_bindings(db, payload.get("bindings")),
            order=payload.get("order"),
            knn=self._decode_knn(payload.get("knn")),
            aggregate=self._decode_aggregate(payload.get("aggregate")),
        )

    # -- wire counters ---------------------------------------------------------
    def count_request(self) -> None:
        with self._counter_lock:
            self.requests += 1

    def count_connection(self) -> None:
        with self._counter_lock:
            self.connections += 1

    # -- endpoints -------------------------------------------------------------
    def health(self) -> dict:
        _db, version = self.store.current()
        return {"ok": True, "snapshot": version}

    def stats(self) -> dict:
        db, version = self.store.current()
        return {
            "snapshot": version,
            "requests": self.requests,
            "connections": self.connections,
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
            # There is no probe cache, so no hits.  Kept only for
            # benchmarks/e2e/service_workload.py, which reports this
            # hit rate; it goes when that harness stops reading it.
            "cache": {"hit_rate": 0.0},
        }

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
        query = self._query(db, payload)
        if payload.get("analyze"):
            return {"snapshot": version, **session.explain(query, analyze=True)}
        return {"snapshot": version, "plan": session.explain(query)}

    def nearest(self, payload: dict) -> dict:
        _refuse_unknown_keys(payload, _NEAREST_KEYS)
        if payload.get("access", "auto") != "auto":
            raise OptionError(
                f"kNN access {payload['access']!r} is not offered: the "
                f"table's index picks the path ('auto' is accepted)"
            )
        db, version = self.store.current()
        try:
            table = db.table(str(payload["table"]))
        except KeyError as exc:
            raise ServiceError(str(exc)) from exc
        if "point" in payload:
            anchor = payload["point"]  # checked by SpatialTable.nearest
        elif "box" in payload:
            try:
                anchor = box_from_jsonable(payload["box"])
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise ServiceError(f"malformed 'box' {payload['box']!r}: {exc!r}") from exc
        else:
            raise ServiceError("nearest needs a 'point' or a 'box' anchor")
        # k is checked by SpatialTable.nearest (OptionError)
        results = table.nearest(anchor, payload.get("k", 1))
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
        (see :meth:`apply_insert`).  An oid a live row already has, or
        one repeated in ``rows``, is a ``409`` and inserts nothing.
        """
        _refuse_unknown_keys(payload, _INSERT_KEYS)
        try:
            key = str(payload["table"])
            rows = [
                (
                    _row_oid(row["oid"]),
                    Region.from_boxes(
                        box_from_jsonable(b) for b in row["boxes"]
                    ),
                )
                for row in payload["rows"]
            ]
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ServiceError(f"malformed insert payload: {exc}") from exc
        version = self.apply_insert(key, rows)
        return {"snapshot": version, "inserted": len(rows)}

    def delete(self, payload: dict) -> dict:
        """Apply deletes via delta tombstones + atomic swap.

        ``oids`` is a list of row ids to delete from ``table``; ids that
        are not live are reported, not errors (deletes are idempotent
        over the wire).
        """
        _refuse_unknown_keys(payload, _DELETE_KEYS)
        try:
            key = str(payload["table"])
            oids = [_row_oid(o) for o in payload["oids"]]
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
            try:
                new_table = old.with_staged(inserts=inserts, deletes=live)
            except DuplicateOidError as exc:
                raise ServiceError(str(exc), status=409) from exc
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
        return Database(tables=tables, bindings=dict(db.bindings))

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
            for op, arg in current._delta.ops[ops_seen:]:
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
    ("POST", "/nearest"): "nearest",
    ("POST", "/insert"): "insert",
    ("POST", "/delete"): "delete",
}

#: The server's own bounds of the module docstring (constants, not options).
_CONNECTION_TIMEOUT_S = 30.0
_MAX_CONNECTIONS = 64


class ServiceServer:
    """The threaded HTTP/1.1 front end of a :class:`QueryService`.

    The constructor binds the listening socket (``port=0`` picks an
    ephemeral port; :attr:`address` has the bound one).
    :meth:`serve_forever` runs the accept loop in the calling thread,
    :meth:`start` on a background thread; :meth:`stop` ends either.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._acceptor: Optional[threading.Thread] = None
        self._handoff: "queue.SimpleQueue[Optional[socket.socket]]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._open: Set[socket.socket] = set()  # guarded-by: _lock
        self._workers: List[threading.Thread] = []  # guarded-by: _lock
        self._stopping = False  # guarded-by: _lock

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self.host, self.port

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop`; blocks the caller."""
        while True:
            try:
                conn, _peer = self._listener.accept()
            except ConnectionError:
                continue  # the peer gave up before accept()
            except OSError:
                if self._stopping:
                    return
                raise
            self.service.count_connection()
            if not self._admit(conn):
                with conn, contextlib.suppress(OSError):  # the peer may be gone
                    write_response(conn, 503, {"error": "server busy"}, close=True)

    def start(self) -> None:
        """Run :meth:`serve_forever` on a background thread."""
        name = f"repro-service:{self.port}"
        self._acceptor = threading.Thread(target=self.serve_forever, name=name, daemon=True)
        self._acceptor.start()

    def stop(self) -> None:
        """Stop accepting, end every live connection (kept-alive ones
        too) and join the server's threads, 10 s at most in all."""
        with self._lock:
            self._stopping = True
            for conn in self._open:
                with contextlib.suppress(OSError):  # the peer may be gone
                    conn.shutdown(socket.SHUT_RDWR)
            for _ in self._workers:
                self._handoff.put(None)
            threads = list(self._workers)
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._listener.close()
        deadline = time.monotonic() + 10.0
        for thread in threads + ([self._acceptor] if self._acceptor else []):
            thread.join(max(0.0, deadline - time.monotonic()))

    def _admit(self, conn: socket.socket) -> bool:
        """Queue ``conn`` for a connection thread; ``False`` past the cap
        or once stopping."""
        with self._lock:
            if self._stopping or len(self._open) >= _MAX_CONNECTIONS:
                return False
            self._open.add(conn)
            # A thread serves one connection at a time, then waits for the
            # next: with no fewer threads than open connections, every
            # queued connection has an idle thread.
            if len(self._workers) < len(self._open):
                name = f"repro-service:{self.port}/{len(self._workers)}"
                worker = threading.Thread(target=self._work, name=name, daemon=True)
                self._workers.append(worker)
                worker.start()
            self._handoff.put(conn)
        return True

    def _work(self) -> None:
        while (conn := self._handoff.get()) is not None:
            try:
                self._serve(conn)
            except OSError:
                pass  # the peer left or went silent, or stop() shut it
            except Exception:  # one bad connection must not cost a thread
                traceback.print_exc()
            finally:
                with self._lock:
                    self._open.discard(conn)
                    conn.close()

    def _serve(self, conn: socket.socket) -> None:
        """One connection's request loop: read, run inline, answer."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(_CONNECTION_TIMEOUT_S)
        with conn.makefile("rb") as rfile:
            while True:
                try:
                    request = read_request(rfile)
                except ServiceError as exc:
                    write_response(conn, exc.status, {"error": str(exc)}, close=True)
                    return
                if request is None:
                    return
                method, path, headers, body = request
                close = headers.get("connection", "").lower() == "close"
                write_response(conn, *self._dispatch(method, path, body), close)
                if close:
                    return

    def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, Dict[str, Any]]:
        self.service.count_request()
        handler_name = _ROUTES.get((method, path.rstrip("/") or path))
        if handler_name is None:
            return 404, {"error": f"no route {method} {path}"}
        if body:
            try:
                payload = json.loads(body)
            except ValueError as exc:  # not JSON, or not UTF-8
                return 400, {"error": f"body is not valid JSON: {exc}"}
            if not isinstance(payload, dict):
                kind = type(payload).__name__
                return 400, {"error": f"body must be a JSON object, not {kind}"}
        else:
            payload = {}
        handler = getattr(self.service, handler_name)
        try:
            result = handler() if method == "GET" else handler(payload)
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        return 200, result


def _row_oid(data: object) -> object:
    """A wire oid decoded; ``TypeError`` for one no row can have (a JSON
    list, or a tuple holding one: row ids are hashed)."""
    oid = _decode_oid(data)
    hash(oid)
    return oid


def serve_in_thread(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Start a server on a background thread; returns it (``address``
    carries the bound ephemeral port, ``stop()`` ends it)."""
    server = ServiceServer(service, host=host, port=port)
    server.start()
    return server
