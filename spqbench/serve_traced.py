"""Run ``repro.cli.main`` with the trace patches installed (traced runs only).

Usage: ``python spqbench/serve_traced.py SPANS_OUT serve --input ... [args]``.
SIGUSR1 pauses span recording and SIGUSR2 resumes it, so one traced server
can also measure its own untraced throughput.  The spans and the router's
connection-pool counters are written to ``SPANS_OUT`` when the server exits.
"""

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    # Drop the script directory: the package is imported from ROOT instead.
    sys.path[:1] = [os.path.join(ROOT, "src"), ROOT]
    from repro.cli import main as repro_main
    from repro.cluster.transport import pool_stats
    from spqbench.spans import Recorder, install

    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", False))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(recorder, "enabled", True))
    code = repro_main(argv[1:])
    recorder.dump(argv[0], {"pool": pool_stats()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
