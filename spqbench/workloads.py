"""The four benchmark workloads and the phases they share.

Every workload runs on one dataset file generated from a fixed data seed
(the CLI's default seed, 7) so that runs with different ``--seed`` values
differ only in their queries and write batches: a clustered layout drawn
afresh per seed would move shard imbalance, and with it the sharded
latency, more than any change under test.  For the same reason the
open-loop send times do not depend on the seed (see :func:`evenly_spaced`).
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spqbench import spans as tracing
from spqbench.common import (
    Ledger,
    Op,
    cpu_seconds,
    highest_supported_percentile,
    live_pids_with,
    mean,
    median,
    peak_rss_mb,
    percentile,
    reported_percentile,
)
from spqbench.driver import HttpClient, run_closed_loop, run_open_loop
from spqbench.reference import ReferenceBook, response_entries

GRID = 16
K = 10
RADIUS = 2.5
OBJECTS = 20_000
DATA_SEED = 7
#: Seed of the inputs that do not vary with ``--seed``.
FIXED_SEED = 7
VOCABULARY = [f"w{i:04d}" for i in range(1000)]
SETUPS = 3
#: Share of ``--seconds`` spent in the open-loop phase of a serving workload.
OPEN_SHARE = 0.6
SENDERS = 2


@dataclass(frozen=True)
class Workload:
    """Static description of one workload."""

    name: str
    dataset: str               # "uniform" or "clustered"
    serve_args: Tuple[str, ...] = ()
    rate: float = 0.0          # open-loop ops/second; 0 = closed loop only
    capacity: float = 1.0      # closed-loop q/s at the parent; sizes the closed phase
    write_every: int = 0       # every n-th open-loop op is a write batch
    seeded_reads: bool = True  # False: one fixed draw of reads for every seed


WORKLOADS = {
    "paper-batch": Workload("paper-batch", "uniform", capacity=9.0),
    "serve-zipf": Workload("serve-zipf", "uniform", rate=5.0, capacity=18.0),
    "sharded-ingest": Workload(
        "sharded-ingest", "clustered",
        serve_args=("--shards", "4", "--compact-threshold", "4"),
        rate=1.0, capacity=3.0, write_every=10, seeded_reads=False,
    ),
    "cluster-read": Workload("cluster-read", "uniform", serve_args=("--cluster", "2"),
                             rate=5.5, capacity=13.0),
}

PAPER_ALGORITHMS = ("pspq", "espq-len", "espq-sco")
SERVE_ALGORITHM = "espq-sco"  # the `repro serve` default


@dataclass
class RunResult:
    """Everything a workload run measured, before formatting."""

    ledger: Ledger = field(default_factory=Ledger)
    setup_s: List[float] = field(default_factory=list)
    open_reads: List[Op] = field(default_factory=list)
    writes: List[Op] = field(default_factory=list)
    closed_ops: List[Op] = field(default_factory=list)
    cpu_seconds: float = 0.0
    rss_mb: float = 0.0
    leaked: List[int] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# inputs


def make_dataset(root_work: str, dataset: str) -> str:
    """Write the workload's dataset file; returns its path."""
    from repro.datagen.io import save_dataset
    from repro.datagen.synthetic import (
        SyntheticDatasetConfig,
        generate_clustered,
        generate_uniform,
    )

    generator = generate_uniform if dataset == "uniform" else generate_clustered
    data, features = generator(SyntheticDatasetConfig(num_objects=OBJECTS, seed=DATA_SEED))
    path = os.path.join(root_work, f"{dataset}.tsv")
    save_dataset(path, data, features)
    return path


def random_spec(rng: random.Random, algorithm: Optional[str] = None) -> Dict[str, object]:
    """A uniform random 3-keyword query spec."""
    spec: Dict[str, object] = {
        "keywords": sorted(rng.sample(VOCABULARY, 3)), "k": K, "radius": RADIUS,
    }
    if algorithm is not None:
        spec["algorithm"] = algorithm
    return spec


def distinct_specs(rng: random.Random, count: int) -> List[Dict[str, object]]:
    """``count`` random 3-keyword specs, no two alike (no cache hits)."""
    seen, specs = set(), []
    while len(specs) < count:
        spec = random_spec(rng)
        key = tuple(spec["keywords"])
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs


def evenly_spaced(rate: float, duration: float) -> List[float]:
    """Due times of an open loop that sends every ``1 / rate`` seconds.

    Poisson arrivals made the median latency of a run swing by 20 to 60
    percent between runs: a burst queues reads behind each other (and, on
    ``sharded-ingest``, behind compactions), and how long that queue lasts
    depends on the machine's speed of the moment.
    """
    return [(i + 0.5) / rate for i in range(int(duration * rate))]


def write_batch(rng: random.Random, index: int, seed: int, extent,
                base_data: List[str], base_features: List[str]) -> Dict[str, object]:
    """Write batch ``index``: 2 data + 2 feature appends, 1 + 1 base deletes."""
    def point():
        pad_x = (extent.max_x - extent.min_x) * 0.01
        pad_y = (extent.max_y - extent.min_y) * 0.01
        return (rng.uniform(extent.min_x + pad_x, extent.max_x - pad_x),
                rng.uniform(extent.min_y + pad_y, extent.max_y - pad_y))

    data, features = [], []
    for j in range(2):
        x, y = point()
        data.append({"oid": f"bench{seed}w{index}d{j}", "x": x, "y": y})
        x, y = point()
        features.append({"oid": f"bench{seed}w{index}f{j}", "x": x, "y": y,
                         "keywords": sorted(rng.sample(VOCABULARY, 20))})
    return {
        "append": {"data_objects": data, "feature_objects": features},
        "delete": {"data_oids": [base_data.pop()], "feature_oids": [base_features.pop()]},
    }


# --------------------------------------------------------------------- #
# paper-batch: in-process, closed loop


def run_paper_batch(root: str, work: str, seed: int, seconds: float, traced: bool) -> RunResult:
    from repro import BatchQuery, EngineConfig, SPQEngine, SpatialPreferenceQuery
    from repro.datagen.io import load_dataset

    result = RunResult()
    closed_count = _closed_count(WORKLOADS["paper-batch"], seconds)
    path = make_dataset(work, "uniform")
    data, features = load_dataset(path)
    book = ReferenceBook(path, GRID, SERVE_ALGORITHM)
    rng = random.Random(f"{seed}-paper-batch")
    specs: List[Dict[str, object]] = []

    def spec_at(i: int) -> Dict[str, object]:
        while len(specs) <= i:
            specs.append(random_spec(rng, PAPER_ALGORITHMS[len(specs) % 3]))
        return specs[i]

    def item(spec) -> "BatchQuery":
        return BatchQuery(
            query=SpatialPreferenceQuery.create(
                k=spec["k"], radius=spec["radius"], keywords=set(spec["keywords"])),
            algorithm=spec["algorithm"], grid_size=GRID)

    probe = spec_at(0)
    book.compute([(0, probe)])
    recorder = tracing.Recorder() if traced else None
    if recorder is not None:
        tracing.install(recorder)
    engine = None
    for _ in range(1 if traced else SETUPS):
        if engine is not None:
            engine.close()
        started = time.perf_counter()
        data, features = load_dataset(path)
        engine = SPQEngine(data, features, config=EngineConfig(grid_size=GRID))
        answer = engine.execute_many([item(probe)], grid_size=GRID)[0]
        if not book.check(probe, [(e.obj.oid, e.score) for e in answer]):
            raise RuntimeError("setup probe answered wrongly")
        result.setup_s.append(time.perf_counter() - started)

    def send(op: Op):
        answer = engine.execute_many([item(op.body)], grid_size=GRID)[0]
        return "ok", {
            "results": [{"oid": e.obj.oid, "score": e.score} for e in answer],
            "stats": {"simulated_seconds": answer.stats["simulated_seconds"]},
        }, ""

    def make_op(i: int) -> Op:
        return Op("read", spec_at(i + 1), phase="closed")

    cpu_start = time.process_time()
    if recorder is not None:
        untraced, traced_ops = _toggled_closed_loop(
            make_op, [send], closed_count, lambda on: setattr(recorder, "enabled", on))
        result.closed_ops = untraced + traced_ops
    else:
        result.closed_ops = run_closed_loop(make_op, [send], closed_count)
    result.cpu_seconds = time.process_time() - cpu_start
    result.rss_mb = peak_rss_mb(os.getpid())
    engine.close()
    if recorder is not None:
        recorder.unpatch()
        result.layers = tracing.layer_metrics(
            recorder.spans, {"index_cache": engine.index_cache_stats}, [], {})
        result.layers.update(_trace_shares(recorder.spans, traced_ops, untraced,
                                           "core.engine.execute_many"))
    _verify(book, result.closed_ops, lambda op: (0,))
    result.ledger.add(result.closed_ops)
    return result


# --------------------------------------------------------------------- #
# serving workloads


class Server:
    """One ``repro serve`` subprocess (optionally traced) and its node pids."""

    LISTEN = re.compile(r"listening on http://[\d.]+:(\d+)")
    NODE = re.compile(r"node shard \d+ replica \d+: (\S+)\s+\(pid (\d+),")

    def __init__(self, root: str, work: str, dataset: str, args: Sequence[str],
                 index: int, spans_path: Optional[str]) -> None:
        self.log_path = os.path.join(work, f"server-{index}.log")
        self.spans_path = spans_path
        entry = ([sys.executable, os.path.join(root, "spqbench", "serve_traced.py"), spans_path]
                 if spans_path else [sys.executable, "-m", "repro"])
        command = entry + [
            "serve", "--input", dataset, "--port", "0", "--grid-size", str(GRID),
            "--node-log-dir", os.path.join(work, f"nodes-{index}"), *args,
        ]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   TMPDIR=os.path.join(work, "tmp"))
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(command, cwd=root, env=env, stdout=self._log,
                                        stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        self.port = 0
        self.node_urls: List[str] = []
        self.node_pids: List[int] = []

    def wait_listening(self, timeout: float = 120.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
                text = handle.read()
            match = self.LISTEN.search(text)
            if match:
                self.port = int(match.group(1))
                for url, pid in self.NODE.findall(text):
                    self.node_urls.append(url)
                    self.node_pids.append(int(pid))
                return
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text[-2000:]}")
            time.sleep(0.005)
        raise RuntimeError("server did not start listening in time")

    @property
    def pids(self) -> List[int]:
        return [self.process.pid] + self.node_pids

    def cpu(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()


def run_serving(workload: Workload, root: str, work: str, seed: int, seconds: float,
                traced: bool) -> RunResult:
    from repro.datagen.io import load_dataset

    result = RunResult()
    path = make_dataset(work, workload.dataset)
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    data, features = load_dataset(path)
    open_s = seconds * OPEN_SHARE
    closed_count = _closed_count(workload, seconds - open_s)
    rng = random.Random(f"{seed}-{workload.name}")
    open_ops, closed_specs, probe = _serving_inputs(workload, seed, rng, data, features, open_s)
    writes = [op for op in open_ops if op.kind == "write"]
    book = ReferenceBook(path, GRID, SERVE_ALGORITHM, [w.body for w in writes])
    book.compute([(0, probe)])

    server: Optional[Server] = None
    clients: List[HttpClient] = []
    untraced: List[Op] = []
    traced_ops: List[Op] = []
    try:
        for index in range(1 if traced else SETUPS):
            if server is not None:
                _stop(server, clients, work, result)
            started = time.perf_counter()
            spans_path = os.path.join(work, "spans.jsonl") if traced else None
            server = Server(root, work, path, workload.serve_args, index, spans_path)
            server.wait_listening()
            clients = [HttpClient(server.port) for _ in range(SENDERS)]
            outcome, response, detail = clients[0].send(Op("read", probe))
            if outcome != "ok" or not book.check(probe, response_entries(response)):
                raise RuntimeError(f"setup probe failed: {outcome} {detail}")
            result.setup_s.append(time.perf_counter() - started)
        senders = [client.send for client in clients]
        opened_before = sum(client.opened for client in clients)

        cpu_start = server.cpu()
        run_open_loop(open_ops, senders)

        def make_op(i: int) -> Op:
            return Op("read", closed_specs[i % len(closed_specs)], phase="closed")

        if traced:
            untraced, traced_ops = _toggled_closed_loop(
                make_op, senders, closed_count,
                lambda on: server.signal(signal.SIGUSR2 if on else signal.SIGUSR1))
            result.closed_ops = untraced + traced_ops
        else:
            result.closed_ops = run_closed_loop(make_op, senders, closed_count)
        result.cpu_seconds = server.cpu() - cpu_start
        result.rss_mb = server.rss_mb()
        ops_sent = len(open_ops) + len(result.closed_ops)
        conn_per_op = (sum(c.opened for c in clients) - opened_before) / ops_sent
        server_stats, node_stats = {}, []
        if traced:
            server.signal(signal.SIGUSR1)
            server_stats = clients[0].request("GET", "/stats")[1]
            node_stats = [_get_json(url + "/stats") for url in server.node_urls]
    finally:
        if server is not None:
            _stop(server, clients, work, result)

    if traced:
        spans, extra = tracing.load_dump(server.spans_path)
        result.layers = tracing.layer_metrics(
            spans, server_stats, node_stats, extra.get("pool", {}))
        result.layers.update(_trace_shares(spans, traced_ops, untraced, "server.http.post"))
        lags = [op.lag for op in open_ops]
        result.layers["traffic.lag_p90_ms"] = percentile(lags, 90) * 1000 if lags else 0.0
        result.layers["traffic.conn_opened_per_op"] = conn_per_op

    def epochs(op: Op) -> range:
        """Write epochs a read may have seen (acked before sent .. sent before done)."""
        if op.phase == "closed":
            return range(len(writes), len(writes) + 1)
        low = sum(1 for w in writes if w.done <= op.sent)
        high = sum(1 for w in writes if w.sent < op.done)
        return range(low, high + 1)

    result.open_reads = [op for op in open_ops if op.kind == "read"]
    result.writes = writes
    _verify(book, result.open_reads + result.closed_ops, epochs)
    result.ledger.add(open_ops + result.closed_ops)
    result.info = {"open_ops": len(open_ops), "writes": len(writes)}
    return result


def _serving_inputs(workload: Workload, seed: int, rng: random.Random, data, features,
                    open_s: float):
    """(open-loop ops, closed-loop specs, setup probe spec) of a serving workload."""
    from repro.core.centralized import dataset_extent

    extent = dataset_extent(data, features)
    if workload.name == "serve-zipf":
        from repro.traffic import TrafficModel, WorkloadConfig

        def zipf(stream: int, duration: float, rate: float):
            config = WorkloadConfig(seed=FIXED_SEED * 10 + stream, duration_seconds=duration,
                                    rate=rate, zipf_exponent=1.1, keywords_per_query=2,
                                    k=K, radius=RADIUS)
            return TrafficModel(features, extent, config).schedule()

        # The Zipf streams (which request repeats which) are fixed draws too;
        # the seed relabels the vocabulary, so each seed asks different
        # keywords with the same repeat structure.  Words of the uniform
        # dataset are interchangeable: every feature draws its keywords
        # uniformly from the whole vocabulary.
        shuffled = list(VOCABULARY)
        rng.shuffle(shuffled)
        relabel = dict(zip(VOCABULARY, shuffled))

        def specs(stream: int, duration: float, rate: float):
            return [dict(r.spec, keywords=sorted(relabel[w] for w in r.spec["keywords"]),
                         stats=True) for r in zipf(stream, duration, rate)]

        open_ops = [Op("read", spec, due=due)
                    for due, spec in zip(evenly_spaced(workload.rate, open_s),
                                         specs(1, 60.0, 50.0))]
        return open_ops, specs(2, 60.0, 50.0), specs(3, 10.0, 1.0)[0]

    # On clustered data a read's cost depends on how many data objects lie
    # near its candidate features, which varies several-fold between
    # queries; with a dozen timed reads a run, seed-drawn reads moved the
    # median by 30 % between seeds.  Such a workload reads one fixed draw,
    # and the seed chooses its write batches.
    read_rng = rng if workload.seeded_reads else random.Random(f"{FIXED_SEED}-reads")
    reads = [dict(spec, stats=True) for spec in distinct_specs(read_rng, 4000)]
    probe, reads = reads[0], reads[1:]
    open_ops: List[Op] = []
    base_data = [obj.oid for obj in data]
    base_features = [obj.oid for obj in features]
    rng.shuffle(base_data)
    rng.shuffle(base_features)
    for due in evenly_spaced(workload.rate, open_s):
        position = len(open_ops) + 1
        if workload.write_every and position % workload.write_every == workload.write_every // 2:
            index = sum(1 for op in open_ops if op.kind == "write") + 1
            body = write_batch(rng, index, seed, extent, base_data, base_features)
            open_ops.append(Op("write", body, due=due))
        else:
            open_ops.append(Op("read", reads.pop(), due=due))
    return open_ops, reads, probe


def _stop(server: Server, clients: List[HttpClient], work: str, result: RunResult) -> None:
    for client in clients:
        client.close()
    server.stop()
    leaked = live_pids_with(work)
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    # Leaked processes are not our children, so they cannot be waited for;
    # poll until they are gone.
    deadline = time.perf_counter() + 10.0
    while live_pids_with(work) and time.perf_counter() < deadline:
        time.sleep(0.05)
    result.leaked.extend(leaked)


def _get_json(url: str) -> Dict[str, object]:
    import json
    import urllib.request

    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def _toggled_closed_loop(make_op, senders, count: int, set_tracing: Callable[[bool], None]):
    """Closed loop with tracing paused for the first half, recording for the second."""
    set_tracing(False)
    time.sleep(0.05)
    first = run_closed_loop(make_op, senders, count // 2)
    set_tracing(True)
    time.sleep(0.05)
    offset = len(first)
    second = run_closed_loop(lambda i: make_op(offset + i), senders, count - count // 2)
    return first, second


def _closed_count(workload: Workload, seconds: float) -> int:
    """Ops in the closed phase: what the parent serves in ``seconds``."""
    return max(2, round(workload.capacity * seconds))


def throughput(ops: Sequence[Op]) -> float:
    """Verified answers per second over the phase (first send to last answer)."""
    done = [op.done for op in ops if op.outcome == "ok"]
    if not done:
        return 0.0
    return len(done) / (max(done) - min(op.sent for op in ops))


def _trace_shares(spans, traced_ops: Sequence[Op], untraced_ops: Sequence[Op],
                  root_name: str) -> Dict[str, float]:
    """Tracing overhead and how much of the traced latency the span trees explain."""
    plain, traced = throughput(untraced_ops), throughput(traced_ops)
    lo = min(op.sent for op in traced_ops) if traced_ops else 0.0
    hi = max(op.done for op in traced_ops) if traced_ops else 0.0
    own = tracing.self_times(spans)
    children: Dict[int, List] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    explained = 0.0
    roots = [s for s in children.get(None, ()) if s.name == root_name and lo <= s.start <= hi]
    stack = list(roots)
    while stack:
        span = stack.pop()
        explained += own[span.sid]
        stack.extend(children.get(span.sid, ()))
    latency = sum(op.latency for op in traced_ops)
    return {
        "trace.overhead_share": 1.0 - traced / plain if plain else 0.0,
        "trace.blocking_path_share": explained / latency if latency else 0.0,
    }


def _verify(book: ReferenceBook, ops: Sequence[Op], epochs) -> None:
    """Check every successful read against its reference; mismatches fail."""
    reads = [op for op in ops if op.kind == "read" and op.outcome == "ok"]
    book.compute((epoch, op.body) for op in reads for epoch in epochs(op))
    for op in reads:
        if not book.check(op.body, response_entries(op.response), epochs(op)):
            op.outcome, op.detail = "wrong", "answer differs from the reference"


def run(name: str, root: str, work: str, seed: int, seconds: float, traced: bool) -> RunResult:
    """Run workload ``name`` once."""
    if name == "paper-batch":
        return run_paper_batch(root, work, seed, seconds, traced)
    return run_serving(WORKLOADS[name], root, work, seed, seconds, traced)


def summarize(result: RunResult) -> Tuple[Dict[str, float], Dict[str, object]]:
    """End-to-end metrics of an untraced run, plus the report-only figures.

    Open-loop reads give the latency (timed from when they were due); a
    closed-loop-only workload falls back to per-call latency.
    """
    closed = result.closed_ops
    served = [op for op in result.open_reads + closed if op.outcome == "ok"]
    reads = [op.latency for op in result.open_reads if op.outcome == "ok"] or [
        op.latency for op in closed if op.outcome == "ok"]
    writes = [op.latency for op in result.writes if op.outcome == "ok"]
    ok_ops = sum(1 for op in result.ledger.ops if op.outcome == "ok")
    metrics = {
        "setup_s": median(result.setup_s),
        "read_p50_ms": median(reads) * 1000,
        "throughput_qps": throughput(closed),
        "cpu_ms_per_op": result.cpu_seconds * 1000 / ok_ops if ok_ops else 0.0,
        "server_rss_mb": result.rss_mb,
        "sim_s_per_query": mean(op.response["stats"]["simulated_seconds"]
                                for op in served if not op.response.get("cached")),
    }
    p90 = reported_percentile(reads, 90)
    extra = {
        "reads_timed": len(reads),
        "highest_supported_percentile": highest_supported_percentile(len(reads)),
        "read_p90_ms": None if p90 is None else p90 * 1000,
        "writes_timed": len(writes),
        "write_p50_ms": median(writes) * 1000 if writes else None,
        "cache_hits": sum(1 for op in served if op.response.get("cached")),
        "reads_served": len(served),
    }
    return metrics, extra
