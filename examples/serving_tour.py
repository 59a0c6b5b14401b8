#!/usr/bin/env python3
"""Simulation as a service: the gateway, end to end, in one process.

Boots a `repro.serve` gateway on a loopback port, then walks the whole
client surface:

1. submit a sweep and stream its NDJSON progress events;
2. submit the *same* sweep from four concurrent clients and watch the
   requests coalesce onto one job (one simulation, four readers);
3. check the result is bit-identical to a direct in-process
   `runner.sweep`;
4. overload a tiny queue and read the 503 + Retry-After answer;
5. scrape /metricsz, then drain the server losslessly.

Run:  python examples/serving_tour.py        (~30 s at test scale)
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.bench.export import scaling_to_dict
from repro.bench.runner import sweep
from repro.bench.scale import builders
from repro.serve import ServeApp, ServeClient, ServeError

SPES = [1, 2]


def main() -> None:
    app = ServeApp(port=0, cache=None, workers=2)
    thread = threading.Thread(target=app.run, daemon=True)
    thread.start()
    app.ready.wait(15)
    port = app.bound_port
    print(f"gateway up on 127.0.0.1:{port}\n")

    print("1. One sweep, events streamed as they happen:")
    client = ServeClient(port=port, client="tour")
    job = client.submit("sweep", "bitcnt", scale="test", spes=SPES)
    for event in client.events(job["id"]):
        detail = event.get("message", "")
        print(f"   seq {event['seq']:>2}  {event['event']:<9} {detail}")
    payload = client.result(job["id"])
    print(f"   -> schema_version={payload['schema_version']}, "
          f"{len(payload['points'])} SPE points\n")

    print("2. Four concurrent clients ask for the same sweep:")

    def ask(name: str) -> tuple[str, dict]:
        c = ServeClient(port=port, client=name)
        j = c.submit("sweep", "bitcnt", scale="test", spes=SPES)
        c.wait(j["id"], timeout=300)
        return j["id"], c.result(j["id"])

    with ThreadPoolExecutor(4) as pool:
        outcomes = list(pool.map(ask, [f"client-{i}" for i in range(4)]))
    ids = {job_id for job_id, _ in outcomes}
    blobs = {json.dumps(p, sort_keys=True) for _, p in outcomes}
    print(f"   {len(outcomes)} clients -> {len(ids)} job(s), "
          f"{len(blobs)} distinct payload(s)\n")

    print("3. The served payload equals a direct in-process sweep:")
    direct = scaling_to_dict(sweep(builders("test")["bitcnt"], spes=SPES))
    direct["schema_version"] = payload["schema_version"]
    direct["kind"] = "sweep"
    print(f"   bit-identical: {outcomes[0][1] == direct}\n")

    print("4. Honest backpressure on a full queue:")
    tiny = ServeApp(port=0, cache=None, workers=1, max_depth=1)
    tiny_thread = threading.Thread(target=tiny.run, daemon=True)
    tiny_thread.start()
    tiny.ready.wait(15)
    squeezed = ServeClient(port=tiny.bound_port, client="flood")
    for spes in (8, 4, 2, 1):
        try:
            squeezed.submit("run", "mmul", scale="test", spes=spes)
            print(f"   spes={spes}: accepted")
        except ServeError as exc:
            print(f"   spes={spes}: {exc.status} — retry after "
                  f"{exc.retry_after}s")
    tiny.request_drain()
    tiny_thread.join(120)
    print()

    print("5. Metrics, then a lossless drain:")
    for line in client.metrics().splitlines():
        if line.startswith("repro_serve_jobs"):
            print(f"   {line}")
    app.request_drain()
    thread.join(120)
    print("   gateway drained and gone")


if __name__ == "__main__":
    main()
