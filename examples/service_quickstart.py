#!/usr/bin/env python
"""Snapshots & the query service: save, serve, and query over the wire.

The workflow a resident deployment uses:

1. build the smugglers workload once and ``Database.save`` it — rows
   and statistics go into one versioned snapshot file;
2. ``Database.open`` that file (the R-tree packed from the rows, no
   statistics scan) and serve it from the threaded query service (one
   thread per kept-alive connection, handlers run inline);
3. run queries over HTTP with the blocking client, which keeps one
   connection alive for all its calls — each reply carries the snapshot
   version it was answered from plus the full machine-independent
   ``ExecutionStats`` payload;
4. insert a row: the service rebuilds in the background and atomically
   swaps snapshots — readers never block, and the next query sees both
   the new snapshot version and the new row.

Run:  python examples/service_quickstart.py
Exits non-zero if the client needed more than one connection.
"""

import os
import sys
import tempfile

from repro import Database
from repro.datagen import smugglers_query
from repro.engine.stats import ExecutionStats
from repro.service import QueryService, ServiceClient, serve_in_thread


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Build once, snapshot to disk.
    # ------------------------------------------------------------------
    query, _world = smugglers_query(seed=11, n_towns=48, n_roads=48)
    system = str(query.system)
    db = Database.from_query(query)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "smugglers.snapshot.json")
        db.save(path)
        print(f"saved snapshot: {os.path.getsize(path)} bytes")

        # --------------------------------------------------------------
        # 2. Load the snapshot (warm indexes, no rebuild) and serve it.
        # --------------------------------------------------------------
        service = QueryService(Database.open(path))
        server = serve_in_thread(service)  # ephemeral 127.0.0.1 port
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                print(f"serving on {host}:{port} "
                      f"(snapshot v{client.health()['snapshot']})")

                # ------------------------------------------------------
                # 3. The paper's query, over the wire.
                # ------------------------------------------------------
                reply = client.run(system, bindings=["C", "A"])
                stats = ExecutionStats.from_dict(reply["stats"])
                print(f"answers: {reply['count']} "
                      f"(order {'-'.join(reply['order'])}, "
                      f"snapshot v{reply['snapshot']})")
                print(f"  partial tuples: {stats.partial_tuples}, "
                      f"region ops: {stats.region_ops}")
                first = reply["answers"][0]
                print(f"  e.g. town={first['T']} road={first['R']} "
                      f"state={first['B']}")

                # ------------------------------------------------------
                # 4. Mutate: background rebuild + atomic snapshot swap.
                #    Clone an answering town under a new name so the new
                #    row provably joins the answer set.
                # ------------------------------------------------------
                town = query.tables["T"].get(first["T"])
                boxes = [[list(b.lo), list(b.hi)] for b in town.region.boxes]
                swap = client.insert(
                    "T", [{"oid": "new-town", "boxes": boxes}]
                )
                after = client.run(system, bindings=["C", "A"])
                print(f"after insert: snapshot v{swap['snapshot']}, "
                      f"{after['count']} answers "
                      f"({after['count'] - reply['count']} new)")

                served = client.stats()
                print(f"served {served['requests']} requests over "
                      f"{served['connections']} connection(s), "
                      f"{served['rebuilds']} rebuild(s)")
        finally:
            server.stop()
    if served["connections"] != 1:
        sys.exit(f"the client used {served['connections']} connections, not 1")


if __name__ == "__main__":
    main()
