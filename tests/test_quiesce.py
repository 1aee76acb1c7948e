"""The quiesce gate: pauses exclude in-flight work, close drains and rejects."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.server.quiesce import QuiesceGate


def test_paused_block_never_overlaps_entered_work():
    gate = QuiesceGate()
    lock = threading.Lock()
    state = {"active": 0, "entered": 0}
    overlaps = []

    def worker():
        for _ in range(300):
            with gate.entered():
                with lock:
                    state["active"] += 1
                    state["entered"] += 1
                time.sleep(0.0001)  # hold the slot across a thread switch
                with lock:
                    state["active"] -= 1

    def pauser():
        for _ in range(100):
            with gate.paused():
                with lock:
                    if state["active"]:
                        overlaps.append(state["active"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        threads.append(threading.Thread(target=pauser))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert overlaps == []
    assert state == {"active": 0, "entered": 6 * 300}


def test_close_drains_in_flight_work_then_rejects():
    gate = QuiesceGate()
    inside = threading.Event()
    finished = []

    def slow():
        with gate.entered():
            inside.set()
            time.sleep(0.1)
            finished.append(True)

    thread = threading.Thread(target=slow)
    thread.start()
    assert inside.wait(5)
    assert gate.close() is True
    assert finished == [True]  # close returned only after the work ended
    assert gate.close() is False
    assert gate.closed
    with pytest.raises(RuntimeError, match="shut down"):
        with gate.entered():
            pass
    thread.join(5)
    assert not thread.is_alive()


def test_work_waits_at_a_paused_gate():
    gate = QuiesceGate()
    released = threading.Event()
    done = threading.Event()
    seen = []

    def work():
        with gate.entered():
            seen.append(released.is_set())
        done.set()

    with gate.paused():
        thread = threading.Thread(target=work)
        thread.start()
        assert not done.wait(0.1)
        released.set()
    assert done.wait(5)
    thread.join(5)
    assert not thread.is_alive()
    assert seen == [True]  # it entered only after the pause ended
