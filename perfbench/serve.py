"""Traced launcher of the default verification server.

    PYTHONPATH=src python3 perfbench/serve.py SPANS.json

Wraps the server-side layers (see ``spans.SERVER``), then runs exactly
``repro-qcec serve --port 0``.  When the server exits (on SIGINT or SIGTERM),
the recorded spans and per-job aggregates are written to ``SPANS.json`` for
the benchmark process to merge.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans  # noqa: E402
from repro import cli  # noqa: E402


def main() -> int:
    recorder = spans.Recorder()
    for target, layer, options in spans.SERVER:
        recorder.wrap(target, layer, **options)
    try:
        return cli.main(["serve", "--port", "0"])
    finally:
        recorder.restore()
        recorder.dump(sys.argv[1], os.getpid(), "repro-qcec serve")


if __name__ == "__main__":
    sys.exit(main())
