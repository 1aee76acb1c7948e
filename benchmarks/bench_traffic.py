"""Traffic gate: overload behavior under an open-loop client fleet.

Four phases, all over real HTTP against ``make_server``:

1. **Capacity** -- a closed-loop client fleet (persistent connections,
   each thread waits for its response) measures what the service can
   actually sustain, in requests/second.  Closed loop is the right tool
   *here*: it finds the service's own pace without ever overloading it.
2. **Overload** -- an open-loop fleet offers 2x that capacity with
   admission control enabled.  The gates encode "degrade, don't
   collapse": goodput stays >= 90% of measured capacity, every rejection
   is an explicit, well-formed 429 (zero socket errors, zero timeouts,
   zero silently lost requests), the p99 of *admitted* requests stays
   bounded (the queue is bounded, so waiting time is too), and the
   client-side ledger reconciles with the server's admission counters.
3. **Shed contract parity** -- the same burst workload is thrown at an
   unsharded service, an in-process shard router, and a spawned cluster
   fleet; each must shed with the identical 429 contract (shed=true
   body, retry_after_ms, reconciling counters).
4. **Keep-alive reuse** -- the open-loop fleet's per-client connection
   pools must actually reuse connections at mild load (the long-carried
   HTTP keep-alive measurement, now client-side).

Result caches are disabled throughout: a Zipf workload against a warm
cache would measure memory bandwidth, not admission control.

Run it as::

    python benchmarks/bench_traffic.py                  # report only
    python benchmarks/bench_traffic.py --check          # exit 1 on any gate
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.centralized import dataset_extent
from repro.datagen.io import save_dataset
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.execution import execution_info
from repro.server import QueryService, ServiceConfig, make_server
from repro.traffic import HttpTarget, LoadGenerator, TrafficModel, WorkloadConfig

GRID = 12


class LiveServer:
    """Any started service behind a real HTTP server, as a context."""

    def __init__(self, service) -> None:
        self.service = service
        self.server = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "LiveServer":
        self.service.start()
        self.server = make_server(self.service)
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def __exit__(self, *exc_info: object) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()
        self.service.shutdown()


class ServeProcess:
    """``repro serve`` in its own process, for the load-bearing phases.

    The capacity and overload phases must NOT share a GIL with the
    client fleet: with an in-process server, engine work starves the
    open-loop scheduler thread and the offered "2x capacity" silently
    degrades back to ~1x -- the overload never happens and the gates
    measure nothing.  A subprocess keeps the offered rate honest.
    """

    def __init__(self, input_path: Path, depth: int, engines: int = 1) -> None:
        self.input_path = input_path
        self.depth = depth
        self.engines = engines
        self.process: Optional[subprocess.Popen] = None
        self.url = ""

    def __enter__(self) -> "ServeProcess":
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--input", str(self.input_path),
                "--host", "127.0.0.1", "--port", "0",
                "--engines", str(self.engines),
                "--grid-size", str(GRID),
                "--result-cache", "0",
                "--admission-depth", str(self.depth),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        for line in self.process.stdout:
            match = re.search(r"listening on (http://[0-9.]+:[0-9]+)", line)
            if match:
                self.url = match.group(1)
                break
        else:
            raise RuntimeError(
                "repro serve exited before listening "
                f"(rc={self.process.wait()})"
            )
        # Keep draining stdout so the server can never block on the pipe.
        threading.Thread(target=self.process.stdout.read, daemon=True).start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


ADMISSION_COUNTERS = (
    "offered",
    "admitted",
    "completed",
    "failed",
    "shed",
    "shed_queue_full",
    "shed_deadline",
    "deadline_miss",
)


def fetch_admission(url: str) -> Dict[str, object]:
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as response:
        return json.loads(response.read())["admission"]


def make_service(data, features, depth: int, engines: int = 2):
    return QueryService(
        data,
        features,
        config=ServiceConfig(
            engines=engines,
            default_grid_size=GRID,
            result_cache_capacity=0,
            admission_queue_depth=depth,
        ),
    )


# --------------------------------------------------------------------- #
# phase 1: closed-loop capacity


def run_capacity_phase(
    url: str, specs: List[Dict[str, object]], threads: int, seconds: float
) -> Dict[str, object]:
    """Sustained closed-loop throughput: each thread waits for answers."""
    import http.client

    stop = time.monotonic() + seconds
    completed = [0] * threads
    errors = [0] * threads

    def client(worker: int) -> None:
        netloc = url.split("//", 1)[1]
        connection = http.client.HTTPConnection(netloc, timeout=30)
        index = worker
        while time.monotonic() < stop:
            body = json.dumps(specs[index % len(specs)]).encode()
            index += threads
            try:
                connection.request(
                    "POST",
                    "/query",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    completed[worker] += 1
                else:
                    errors[worker] += 1
                if response.will_close:
                    connection.close()
                    connection = http.client.HTTPConnection(netloc, timeout=30)
            except OSError:
                errors[worker] += 1
                connection.close()
                connection = http.client.HTTPConnection(netloc, timeout=30)
        connection.close()

    started = time.monotonic()
    workers = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.monotonic() - started
    total = sum(completed)
    return {
        "threads": threads,
        "seconds": elapsed,
        "completed": total,
        "errors": sum(errors),
        "rps": total / elapsed if elapsed else 0.0,
    }


# --------------------------------------------------------------------- #
# phase 2: open-loop overload


def run_overload_phase(
    url: str,
    features,
    extent,
    rate: float,
    seconds: float,
    deadline_ms: float,
    seed: int,
) -> Dict[str, object]:
    before = fetch_admission(url)
    model = TrafficModel(
        features,
        extent,
        WorkloadConfig(
            seed=seed,
            duration_seconds=seconds,
            rate=rate,
            zipf_exponent=1.1,
            keywords_per_query=2,
            k=5,
            deadline_ms=deadline_ms,
            clients=16,
        ),
    )
    schedule = model.schedule()
    target = HttpTarget(url)
    generator = LoadGenerator(schedule, target)
    try:
        ledger = generator.run()
    finally:
        target.close()
    summary = ledger.summary()
    counts = summary["counts"]
    malformed_sheds = sum(
        1 for r in ledger.records if r.outcome == "shed" and r.error
    )
    after = fetch_admission(url)
    # The warm-up and capacity phases hit the same server; only this
    # phase's deltas have to reconcile with the client-side ledger.
    delta = {
        key: after[key] - before[key] for key in ADMISSION_COUNTERS
    }
    delta["inflight"] = after["inflight"]
    return {
        "offered_rate_rps": rate,
        "scheduled": len(schedule),
        "ledger": summary,
        "lost_threads": generator.lost,
        "malformed_sheds": malformed_sheds,
        "goodput_rps": summary["goodput_rps"],
        "ok": counts["ok"],
        "shed": counts["shed"],
        "errors": counts["error"],
        "timeouts": counts["timeout"],
        "admission": delta,
        "reconciles_with_server": (
            delta["offered"] == counts["ok"] + counts["shed"]
            and delta["completed"] == counts["ok"]
            and delta["shed"] == counts["shed"]
            and after["inflight"] == 0
        ),
    }


# --------------------------------------------------------------------- #
# phase 3: shed-contract parity across serving modes


def run_contract_phase(
    mode: str, service, features, extent, seed: int
) -> Dict[str, object]:
    """Burst traffic against a depth-1 admission queue: sheds guaranteed."""
    with LiveServer(service) as live:
        model = TrafficModel(
            features,
            extent,
            WorkloadConfig(
                seed=seed,
                duration_seconds=1.2,
                rate=20.0,
                burst_every_seconds=0.4,
                burst_size=30,
                k=5,
                deadline_ms=5_000.0,
                clients=8,
            ),
        )
        target = HttpTarget(live.url)
        generator = LoadGenerator(model.schedule(), target)
        try:
            ledger = generator.run()
        finally:
            target.close()
        counts = ledger.counts()
        malformed = sum(
            1 for r in ledger.records if r.outcome == "shed" and r.error
        )
        snapshot = service.stats()["admission"]
    contract_ok = (
        counts["shed"] > 0
        and counts["error"] == 0
        and counts["timeout"] == 0
        and malformed == 0
        and generator.lost == 0
        and snapshot["offered"] == counts["ok"] + counts["shed"]
        and snapshot["inflight"] == 0
    )
    return {
        "mode": mode,
        "offered": sum(counts.values()),
        "ok": counts["ok"],
        "shed": counts["shed"],
        "errors": counts["error"],
        "timeouts": counts["timeout"],
        "malformed_sheds": malformed,
        "lost_threads": generator.lost,
        "admission_offered": snapshot["offered"],
        "contract_ok": contract_ok,
    }


def contract_services(data, features, input_path, workdir):
    """Yield (mode, service, cleanup) triples for the parity phase."""
    yield (
        "unsharded",
        make_service(data, features, depth=1, engines=1),
        lambda: None,
    )

    from repro.sharding import ShardRouter, ShardingConfig

    yield (
        "sharded",
        ShardRouter(
            data,
            features,
            service_config=ServiceConfig(
                engines=1,
                default_grid_size=GRID,
                result_cache_capacity=0,
                admission_queue_depth=1,
            ),
            sharding=ShardingConfig(shards=2),
        ),
        lambda: None,
    )

    from repro.cluster import (
        ClusterConfig,
        ClusterRouter,
        NodeSpec,
        spawn_local_nodes,
        terminate_nodes,
    )

    nodes = spawn_local_nodes(
        input_path,
        2,
        grid_size=GRID,
        engines=1,
        log_dir=workdir / "contract-node-logs",
    )
    router = ClusterRouter(
        data,
        features,
        [NodeSpec(url=node.url, shard_index=node.shard_index) for node in nodes],
        cluster=ClusterConfig(shards=2),
        service_config=ServiceConfig(
            result_cache_capacity=0,
            engines=1,
            default_grid_size=GRID,
            admission_queue_depth=1,
        ),
    )
    yield "cluster", router, (lambda: terminate_nodes(nodes))


# --------------------------------------------------------------------- #
# phase 4: keep-alive reuse at mild load


def run_keepalive_phase(
    url: str, features, extent, rate: float, seed: int
) -> Dict[str, object]:
    model = TrafficModel(
        features,
        extent,
        WorkloadConfig(
            seed=seed,
            duration_seconds=3.0,
            rate=rate,
            k=5,
            clients=2,
        ),
    )
    target = HttpTarget(url)
    generator = LoadGenerator(model.schedule(), target)
    try:
        ledger = generator.run()
    finally:
        target.close()
    summary = ledger.summary()
    return {
        "offered": summary["offered"],
        "counts": summary["counts"],
        "ok_latency_ms": summary.get("ok_latency_ms"),
        "pool": target.reuse_stats(),
        "lost_threads": generator.lost,
    }


# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=30_000,
                        help="dataset size; large enough that per-query cost "
                             "dominates connection handling on small CI boxes")
    parser.add_argument("--capacity-threads", type=int, default=8)
    parser.add_argument("--capacity-seconds", type=float, default=2.0)
    parser.add_argument("--overload-seconds", type=float, default=5.0)
    parser.add_argument("--max-capacity-rps", type=float, default=250.0,
                        help="clamp the measured capacity before doubling it "
                             "(keeps the open-loop thread count CI-friendly)")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="overload-phase admission queue depth (the p99 "
                             "gate bounds depth x per-query service time)")
    parser.add_argument("--deadline-ms", type=float, default=2_000.0,
                        help="per-request deadline carried on the wire")
    parser.add_argument("--p99-budget-ms", type=float, default=1_000.0,
                        help="gate: p99 of admitted requests under overload")
    parser.add_argument("--goodput-floor", type=float, default=0.9,
                        help="gate: goodput under 2x load as a fraction of "
                             "measured capacity")
    parser.add_argument("--reuse-floor", type=float, default=2.0,
                        help="gate: requests per opened connection at mild load")
    parser.add_argument("--seed", type=int, default=37)
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    args = parser.parse_args(argv)

    data, features = generate_uniform(
        SyntheticDatasetConfig(num_objects=args.objects, seed=args.seed)
    )
    extent = dataset_extent(data, features)
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-traffic-"))
    input_path = workdir / "dataset.tsv"
    save_dataset(input_path, data, features)
    print(f"dataset: {args.objects} objects, grid {GRID}, file {input_path}")

    # Phases 1, 2 and 4 share one *subprocess* server (see ServeProcess)
    # so the client fleet never competes with the engines for a GIL, and
    # capacity and overload see the same service configuration (the
    # closed-loop fleet never fills a 32-deep queue with 8 threads, so
    # capacity is unaffected by admission control).
    capacity_specs = [
        dict(r.spec)
        for r in TrafficModel(
            features,
            extent,
            WorkloadConfig(
                seed=args.seed, duration_seconds=2.0, rate=300.0, k=5
            ),
        ).schedule()
    ]
    with ServeProcess(input_path, depth=args.queue_depth) as live:
        run_capacity_phase(  # warm-up: engines, planner, TCP stacks
            live.url, capacity_specs, args.capacity_threads, 0.5
        )
        capacity = run_capacity_phase(
            live.url, capacity_specs, args.capacity_threads,
            args.capacity_seconds,
        )
        capacity_rps = min(capacity["rps"], args.max_capacity_rps)
        print(
            f"capacity phase: {capacity['completed']} requests over "
            f"{capacity['seconds']:.1f}s with {capacity['threads']} "
            f"closed-loop clients = {capacity['rps']:.0f} rps "
            f"(using {capacity_rps:.0f})"
        )
        overload = run_overload_phase(
            live.url,
            features,
            extent,
            rate=2.0 * capacity_rps,
            seconds=args.overload_seconds,
            deadline_ms=args.deadline_ms,
            seed=args.seed,
        )
        keepalive = run_keepalive_phase(
            live.url, features, extent,
            rate=max(8.0, 0.3 * capacity_rps),
            seed=args.seed,
        )
    goodput_floor_rps = args.goodput_floor * capacity_rps
    p99 = (overload["ledger"].get("ok_latency_ms") or {}).get("p99", 0.0)
    print(
        f"overload phase: offered 2x capacity = "
        f"{overload['offered_rate_rps']:.0f} rps for "
        f"{args.overload_seconds:.0f}s: {overload['ok']} ok, "
        f"{overload['shed']} shed, {overload['errors']} errors, "
        f"{overload['timeouts']} timeouts; goodput "
        f"{overload['goodput_rps']:.0f} rps (floor {goodput_floor_rps:.0f}), "
        f"admitted p99 {p99:.0f}ms, reconciled="
        f"{overload['reconciles_with_server']}"
    )

    contracts = []
    for mode, mode_service, cleanup in contract_services(
        data, features, input_path, workdir
    ):
        try:
            contracts.append(
                run_contract_phase(mode, mode_service, features, extent, args.seed)
            )
        finally:
            cleanup()
        last = contracts[-1]
        print(
            f"contract phase [{last['mode']}]: {last['offered']} offered, "
            f"{last['ok']} ok, {last['shed']} shed, "
            f"{last['malformed_sheds']} malformed, ok={last['contract_ok']}"
        )

    print(
        f"keep-alive phase: {keepalive['pool']['requests']} requests over "
        f"{keepalive['pool']['opened']} connections "
        f"(x{keepalive['pool']['reuse_ratio']:.1f} reuse, floor "
        f"{args.reuse_floor:.1f})"
    )

    summary = {
        "execution": execution_info(),
        "workload": {
            "objects": args.objects,
            "grid_size": GRID,
            "queue_depth": args.queue_depth,
            "deadline_ms": args.deadline_ms,
            "seed": args.seed,
        },
        "capacity": dict(capacity, used_rps=capacity_rps),
        "overload": overload,
        "contracts": contracts,
        "keepalive": keepalive,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if capacity["errors"]:
            failures.append(
                f"capacity phase saw {capacity['errors']} non-200 responses"
            )
        if overload["errors"] or overload["timeouts"]:
            failures.append(
                "overload produced non-explicit rejections: "
                f"{overload['errors']} errors, {overload['timeouts']} "
                "timeouts (every rejection must be a clean 429)"
            )
        if overload["lost_threads"]:
            failures.append(
                f"{overload['lost_threads']} requests were silently lost"
            )
        if overload["malformed_sheds"]:
            failures.append(
                f"{overload['malformed_sheds']} 429 bodies violated the "
                "shed contract"
            )
        if not overload["reconciles_with_server"]:
            failures.append(
                "client ledger and server admission counters disagree: "
                f"{json.dumps(overload['admission'])}"
            )
        if overload["goodput_rps"] < goodput_floor_rps:
            failures.append(
                f"goodput collapsed under 2x load: "
                f"{overload['goodput_rps']:.0f} rps < floor "
                f"{goodput_floor_rps:.0f} rps "
                f"({args.goodput_floor:.0%} of capacity)"
            )
        if not p99 or p99 > args.p99_budget_ms:
            failures.append(
                f"admitted p99 unbounded under overload: {p99:.0f}ms > "
                f"{args.p99_budget_ms:.0f}ms budget"
            )
        for contract in contracts:
            if not contract["contract_ok"]:
                failures.append(
                    f"{contract['mode']} mode broke the shed contract: "
                    f"{json.dumps(contract)}"
                )
        if keepalive["pool"]["reuse_ratio"] < args.reuse_floor:
            failures.append(
                "keep-alive reuse collapsed: "
                f"{keepalive['pool']['reuse_ratio']:.2f} requests/connection "
                f"< floor {args.reuse_floor:.1f}"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            "OK: goodput held >= "
            f"{args.goodput_floor:.0%} of capacity under 2x offered load, "
            "every rejection was an explicit well-formed 429, admitted p99 "
            "stayed bounded, all three serving modes shed identically, and "
            "keep-alive connections were reused"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
