"""Bounded load drivers: an open-loop schedule and a closed-loop phase.

``repro.traffic.LoadGenerator`` is not used here and stays unchanged: it
starts one thread per request and times each request from when it was sent,
so a stalled server hides its own queueing from the latency it reports.  The
benchmark instead runs at most ``nproc`` sender threads, each with one
keep-alive connection, and times every op from when it was *due*; how late
the senders ran is reported separately as the generator lag.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spqbench.common import Op

#: Seconds one request may take before it counts as timed out.
REQUEST_TIMEOUT = 60.0

#: ``send(op)`` executes one op and returns (outcome, response-or-None, detail).
SendFn = Callable[[Op], Tuple[str, Optional[Dict[str, object]], str]]


class HttpClient:
    """One keep-alive connection to the server; reconnects after a failure."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.opened = 0
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
            self._conn.connect()
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.opened += 1
        return self._conn

    def request(self, method: str, path: str, body: Optional[object] = None):
        """Send one request; returns (status, decoded body)."""
        payload = None if body is None else json.dumps(body).encode()
        try:
            conn = self._connection()
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            status = response.status
            if response.will_close:
                self.close()
        except BaseException:
            self.close()
            raise
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError:
            decoded = {"error": raw[:200].decode(errors="replace")}
        return status, decoded

    def send(self, op: Op):
        """Execute ``op`` over HTTP; classify the outcome."""
        path = "/query" if op.kind == "read" else "/objects"
        try:
            status, decoded = self.request("POST", path, op.body)
        except socket.timeout:
            return "timeout", None, "no response within the request timeout"
        except (OSError, http.client.HTTPException) as exc:
            return "error", None, f"{type(exc).__name__}: {exc}"
        if status == 200:
            return "ok", decoded, ""
        if status == 429:
            return "shed", None, str(decoded.get("error", ""))
        return "error", None, f"HTTP {status}: {decoded.get('error', '')}"

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _finish(op: Op, send: SendFn) -> None:
    op.sent = time.perf_counter()
    try:
        op.outcome, op.response, op.detail = send(op)
    except Exception as exc:  # noqa: BLE001 - an op failure, counted
        op.outcome, op.response, op.detail = "error", None, f"{type(exc).__name__}: {exc}"
    op.done = time.perf_counter()


def run_open_loop(ops: Sequence[Op], senders: Sequence[SendFn]) -> None:
    """Send ``ops`` at their due times from ``len(senders)`` threads.

    Ops are taken strictly in due order; a sender that is free sleeps until
    the next op is due.  Writes are serialized (the next write waits for the
    previous acknowledgement), so write epochs are totally ordered.
    """
    ordered = sorted(ops, key=lambda op: op.due)
    lock = threading.Lock()
    write_lock = threading.Lock()
    position = [0]
    origin = time.perf_counter() + 0.02
    for op in ordered:
        op.due_at = origin + op.due

    def sender(send: SendFn) -> None:
        while True:
            with lock:
                if position[0] >= len(ordered):
                    return
                op = ordered[position[0]]
                position[0] += 1
            delay = op.due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if op.kind == "write":
                with write_lock:
                    _finish(op, send)
            else:
                _finish(op, send)

    _join_all([threading.Thread(target=sender, args=(send,)) for send in senders])


def run_closed_loop(make_op: Callable[[int], Op], senders: Sequence[SendFn],
                    count: int) -> List[Op]:
    """Each sender sends its next op as soon as the previous one returned.

    The phase sends exactly ``count`` ops.  A fixed count, not a fixed
    time, keeps the request mix identical on every run: on a Zipf stream a
    faster run would otherwise reach further into the stream, hit the
    result cache more often, and look faster still.
    """
    lock = threading.Lock()
    sent: List[Op] = []

    def sender(send: SendFn) -> None:
        # A failed op already fails the run; stop rather than spin on a
        # dead server.
        while True:
            with lock:
                if len(sent) >= count:
                    return
                op = make_op(len(sent))
                sent.append(op)
            _finish(op, send)
            if op.outcome != "ok":
                return

    _join_all([threading.Thread(target=sender, args=(send,)) for send in senders])
    return sent


def _join_all(threads: List[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
