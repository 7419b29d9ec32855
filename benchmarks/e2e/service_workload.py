"""``service_mixed``: two closed-loop HTTP clients against a server child.

The generator and the server share no GIL: the server is ``python -u -m
repro serve <snapshot> --port 0`` in a child process, always stopped
again.  A traced run also replays the clients' payloads on an
in-process :class:`~repro.service.QueryService` over the same snapshot,
handlers called directly: round trip minus handler is what HTTP, JSON
and the second process cost.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import threading
from collections import deque
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence

from repro.boxes.box import Box
from repro.database import Database
from repro.datagen import random_box
from repro.errors import ServiceError
from repro.service import QueryService, ServiceClient
from repro.spatial.table import SpatialTable

from .harness import FIRST, LOOKUP, QUERY, ROOT, WRITE, Recorder, Tracer, median
from .workloads import (
    KNN_CHECK_RATE,
    OUT_DIR,
    WINDOW_CHECK_RATE,
    WINDOW_TEXT,
    Workload,
    _overlapping,
    _random_point,
    _random_rows,
    _span,
)

_CLIENT_ERRORS = (ServiceError, OSError, http.client.HTTPException, ValueError)


class _Client:
    """One closed-loop client's stream state."""

    def __init__(self, index: int, first_oid: int, step: int) -> None:
        self.index = index
        self.next_oid = first_oid
        self.step = step
        self.acked: deque = deque()  # inserted, acknowledged, not yet deleted
        self.inserted = 0
        self.deleted = 0
        self.to_verify: list = []


class ServiceMixed(Workload):
    """Framing-dominated: two HTTP clients, reads beside writes."""

    name = "service_mixed"
    ROWS = 5000
    SIDE = 1000.0
    WINDOW = 30.0
    CLIENTS = 2
    K = 5
    #: One block = 50 ops in the mix 60% kNN / 10% query (two of the
    #: five with limit=1) / 20% insert / 10% delete, shuffled.
    BLOCK = (("nearest", 30), ("run", 3), ("first", 2), ("insert", 10), ("delete", 5))
    BLOCKS_PER_CYCLE = 5
    START_TIMEOUT_S = 60.0
    CLIENT_TIMEOUT_S = 10.0
    #: Share of a traced cycle's reads replayed on the local mirror
    #: (every mutation is replayed, to keep the mirror in step).
    REPLAY_EVERY = 4

    _CLASS = {"nearest": LOOKUP, "run": QUERY, "first": FIRST, "insert": WRITE, "delete": WRITE}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.proc: Optional[subprocess.Popen] = None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self.local: Optional[QueryService] = None
        self.pending_max = 0
        if quick:
            self.BLOCKS_PER_CYCLE = 1

    # -- set-up / tear-down ------------------------------------------------------
    def setup(self, tr: Optional[Tracer] = None) -> None:
        self.universe = Box((0.0, 0.0), (self.SIDE, self.SIDE))
        rows = _random_rows(self.rng("rows"), self.ROWS, self.universe)
        table = SpatialTable("boxes", 2, universe=self.universe)
        table.bulk_insert(rows, pack=True)
        if tr is not None:
            with _span(tr, "rtree.bulk_load"):
                table.pack()
        with _span(tr, "table.statistics"):
            table.statistics()
        self.initial = list(table)
        #: Every row ever planned, by oid: the oracle's mirror.
        self.boxes: Dict[int, Box] = {obj.oid: obj.box for obj in self.initial}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT_DIR)
        path = os.path.join(self._tmp.name, "snapshot.json")
        with _span(tr, "snapshot.write"):
            Database(tables={"x": table}).save(path)
        self.counts["snapshot.bytes_per_row"] = os.path.getsize(path) / self.ROWS
        self._start_child(path)
        if tr is not None:
            with _span(tr, "snapshot.read"):
                mirror = Database.open(path)
            self.local = QueryService(mirror)

    def _start_child(self, path: str) -> None:
        """``python -u -m repro serve`` on an ephemeral port, answering
        ``/health`` before this returns — or stopped again."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", path, "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        # readline() has no timeout of its own: a child that never
        # prints is killed, which ends the read with an empty line.
        watchdog = threading.Timer(self.START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"serving .* on http://([^:\s]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"server child did not start: {line!r}")
            self.address = (match.group(1), int(match.group(2)))
            give_up = perf_counter() + self.START_TIMEOUT_S
            while True:
                try:
                    self._client().health()
                    break
                except _CLIENT_ERRORS:
                    if perf_counter() > give_up or self.proc.poll() is not None:
                        raise RuntimeError("server child never answered /health") from None
                    sleep(0.005)
        except BaseException:
            self._stop_child()
            raise
        finally:
            watchdog.cancel()

    def _client(self) -> ServiceClient:
        return ServiceClient(*self.address, timeout=self.CLIENT_TIMEOUT_S)

    def _stop_child(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def teardown(self) -> None:
        self._stop_child()
        if self.local is not None:
            self.local.drain_repacks()
            self.local = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def peak_rss_mb(self) -> float:
        """Of the server child; valid once it has been stopped and waited
        for (the largest child is the one that served the run)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def prepare(self) -> None:
        self.clients = [
            _Client(i, self.ROWS + i, self.CLIENTS) for i in range(self.CLIENTS)
        ]

    # -- ops -------------------------------------------------------------------
    def _plan_block(self, state: _Client, k: int, block: int) -> list:
        rng = self.rng("client", state.index, k, block)
        ops: list = []
        for kind, count in self.BLOCK:
            for _ in range(count):
                if kind == "nearest":
                    ops.append((kind, _random_point(rng, self.universe)))
                elif kind in ("run", "first"):
                    ops.append(
                        (kind, random_box(rng, self.universe, self.WINDOW, self.WINDOW))
                    )
                elif kind == "insert":
                    oid = state.next_oid
                    state.next_oid += state.step
                    box = random_box(rng, self.universe, 1.0, 10.0)
                    self.boxes[oid] = box
                    ops.append((kind, (oid, box)))
                else:
                    ops.append((kind, None))  # oldest acknowledged insert, at run time
        rng.shuffle(ops)
        if len(state.acked) < 5:
            # Only a client's very first block: nothing acknowledged yet
            # to delete, so its deletes wait for its inserts.
            ops.sort(key=lambda op: op[0] == "delete")
        return ops

    @staticmethod
    def _payload(kind: str, arg) -> dict:
        """The JSON body ``ServiceClient`` sends for this op."""
        if kind == "nearest":
            return {"table": "x", "k": ServiceMixed.K, "access": "auto", "point": list(arg)}
        if kind in ("run", "first"):
            payload = {
                "system": WINDOW_TEXT,
                "bindings": {"W": [[list(arg.lo), list(arg.hi)]]},
            }
            if kind == "first":
                payload["limit"] = 1
            return payload
        if kind == "insert":
            oid, box = arg
            return {"table": "x", "rows": [{"oid": oid, "boxes": [[list(box.lo), list(box.hi)]]}]}
        return {"table": "x", "oids": [arg]}

    def _call(self, client: ServiceClient, kind: str, arg) -> dict:
        if kind == "nearest":
            return client.nearest("x", k=self.K, point=arg)
        if kind in ("run", "first"):
            payload = self._payload(kind, arg)
            return client.run(
                payload["system"], payload["bindings"], limit=payload.get("limit")
            )
        if kind == "insert":
            return client.insert("x", self._payload(kind, arg)["rows"])
        return client.delete("x", [arg])

    def _shape_ok(self, kind: str, reply: dict) -> bool:
        if kind == "nearest":
            dists = [r["distance"] for r in reply["results"]]
            return len(dists) == self.K and dists == sorted(dists)
        if kind == "run":
            return reply["count"] == len(reply["answers"])
        if kind == "first":
            return reply["count"] == len(reply["answers"]) <= 1
        if kind == "insert":
            return reply["inserted"] == 1
        return reply["deleted"] == 1

    def _client_loop(self, state: _Client, k: int, done: list, log: Optional[list]) -> None:
        """One client's share of cycle ``k``; ``done`` collects ``(class,
        seconds, ok)`` per op, ``log`` what the traced replay needs."""
        client = self._client()
        rng = self.rng("verify", state.index, k)
        for block in range(self.BLOCKS_PER_CYCLE):
            for kind, arg in self._plan_block(state, k, block):
                if kind == "delete":
                    arg = state.acked.popleft()
                start = perf_counter()
                try:
                    reply = self._call(client, kind, arg)
                except _CLIENT_ERRORS:
                    reply = None
                end = perf_counter()
                ok = reply is not None and self._shape_ok(kind, reply)
                done.append((self._CLASS[kind], end - start, ok))
                if not ok:
                    continue
                if kind == "insert":
                    state.acked.append(arg[0])
                    state.inserted += 1
                elif kind == "delete":
                    state.deleted += 1
                elif rng.random() < (
                    KNN_CHECK_RATE if kind == "nearest" else WINDOW_CHECK_RATE
                ):
                    state.to_verify.append((kind, arg, reply))
                if log is not None:
                    log.append((kind, arg, start, end))

    def run_cycle(self, k: int, rec: Recorder, tr: Optional[Tracer] = None) -> None:
        done: List[list] = [[] for _ in self.clients]
        logs: List[Optional[list]] = [
            [] if self.local is not None else None for _ in self.clients
        ]
        errors: list = []

        def work(i: int) -> None:
            try:
                self._client_loop(self.clients[i], k, done[i], logs[i])
            except BaseException as exc:  # re-raised on the main thread below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,), daemon=True)
            for i in range(self.CLIENTS)
        ]
        # One unit per cycle: its time is the wall time of the two
        # concurrent clients, not the sum of their round trips.
        with rec.unit():
            start = perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            rec.measured_s += perf_counter() - start
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("a client thread did not finish")
            if errors:
                raise errors[0]
            for ops in done:
                for cls, seconds, ok in ops:
                    rec.add(cls, seconds, ok, busy=False)
        for state in self.clients:
            for item in state.to_verify:
                if not self._deep_ok(*item):
                    rec.fail()
            state.to_verify.clear()
        if self.local is not None:
            self._replay(logs, tr, rec.scales[-1])

    # -- oracles -----------------------------------------------------------------
    def _deep_ok(self, kind: str, arg, reply: dict) -> bool:
        """Against the initial rows, which no client ever deletes: the
        table changes under the readers, so the check is sound for any
        interleaving rather than exact for one."""
        if kind == "nearest":
            for r in reply["results"]:
                box = self.boxes.get(r["oid"])
                if box is None or abs(box.mindist_point(arg) - r["distance"]) > 1e-9:
                    return False
            floor = sorted(obj.box.mindist_point(arg) for obj in self.initial)
            return reply["results"][-1]["distance"] <= floor[self.K - 1] + 1e-9
        got = {a["x"] for a in reply["answers"]}
        if not all(oid in self.boxes and self.boxes[oid].overlaps(arg) for oid in got):
            return False
        must = _overlapping(self.initial, arg)
        if kind == "run":
            return got.issuperset(must)
        return bool(got) or not must

    def finish(self, rec: Recorder, tr: Optional[Tracer] = None) -> None:
        """Rows add up, and every acknowledged, undeleted insert reads back."""
        client = self._client()
        try:
            stats = client.stats()
            expected = self.ROWS + sum(c.inserted - c.deleted for c in self.clients)
            if stats["tables"]["x"]["rows"] != expected:
                rec.fail()
            self._sample_stats(stats)
            self.counts["service.repacks"] = stats["repacks"]
            self.counts["service.probe_cache_hit_rate"] = stats["cache"]["hit_rate"]
            for state in self.clients:
                for oid in state.acked:
                    box = self.boxes[oid]
                    near = client.nearest("x", k=8, point=box.center())
                    if oid in [r["oid"] for r in near["results"]]:
                        continue
                    payload = self._payload("run", box)
                    found = client.run(payload["system"], payload["bindings"])
                    if oid not in [a["x"] for a in found["answers"]]:
                        rec.fail()
        except _CLIENT_ERRORS:
            rec.fail()  # a dead child: never a hang, always a failed run
        self.counts["service.delta_pending_max"] = self.pending_max
        if tr is not None:
            self._time_delta_layer(tr)

    def _sample_stats(self, stats: dict) -> None:
        self.pending_max = max(self.pending_max, stats["tables"]["x"]["delta_pending"])

    # -- traced pass -------------------------------------------------------------
    def _replay(self, logs: Sequence[list], tr: Optional[Tracer], cycle_scale: float) -> None:
        """Apply a cycle's ops to the in-process mirror service, handlers
        called directly.  Traced cycles time it: round trip minus handler
        is what HTTP, JSON and the second process cost."""
        self._sample_stats(self._client().stats())
        handlers = {
            "nearest": self.local.nearest, "run": self.local.run, "first": self.local.run,
            "insert": self.local.insert, "delete": self.local.delete,
        }
        merged = sorted((op for log in logs for op in log), key=lambda op: op[2])
        if tr is None:
            for kind, arg, _start, _end in merged:
                if kind in ("insert", "delete"):
                    handlers[kind](self._payload(kind, arg))
            self.local.drain_repacks()
            return
        replayed = []  # (kind, round-trip start, end, handler span index)
        reads = 0
        with tr.batch():
            for kind, arg, start, end in merged:
                if kind not in ("insert", "delete"):
                    reads += 1
                    if reads % self.REPLAY_EVERY:
                        continue
                payload = self._payload(kind, arg)
                tr.next_op()
                s = tr.begin("service.handler_" + ("run" if kind == "first" else kind))
                response = handlers[kind](payload)
                tr.end(s)
                replayed.append((kind, start, end, s))
                # The replay squeezes a second of traffic into a tenth:
                # left running, the mirror's background repacks would
                # share the GIL with far more of the timed handlers
                # than the server's do.
                self.local.drain_repacks()
                s = tr.begin("service.encode")
                body = json.dumps(payload)
                data = json.dumps(response, default=str)
                tr.end(s)
                s = tr.begin("service.decode")
                json.loads(body)
                json.loads(data)
                tr.end(s)
        self.local.drain_repacks()
        for kind, start, end, s in replayed:
            _name, h_start, h_end, _parent, _op, h_scale = tr.spans[s]
            tr.record(f"service.roundtrip_{kind}", start, end, cycle_scale)
            round_trip = (end - start) * cycle_scale
            handler = (h_end - h_start) * h_scale
            self.derived.setdefault("service.http_overhead", []).append(round_trip - handler)
            if kind == "run":
                self.derived.setdefault("service.handler_share_run", []).append(
                    handler / round_trip
                )

    def _time_delta_layer(self, tr: Tracer) -> None:
        """``with_staged`` and a 64-op ``repack`` on the mirror's table."""
        table = self.local.store.current()[0].table("x")
        rows = _random_rows(self.rng("delta-layer"), 64, self.universe, first_oid=10**9)
        with tr.batch():
            for row in rows[:20]:
                s = tr.begin("delta.with_staged")
                table.with_staged(inserts=[row])
                tr.end(s)
        for _ in range(5):
            clone = table.with_staged(inserts=rows)
            with tr.span("delta.repack"):
                clone.repack()

    def closure(self, tr: Tracer) -> float:
        """Share of a ``/run`` round trip that the handler accounts for
        (the rest is ``service.http_overhead_s`` by definition, so there
        is no layer to go missing and no check on this number)."""
        return median(self.derived.get("service.handler_share_run", ()))
