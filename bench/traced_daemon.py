"""Run the campaign-service daemon with the benchmark's tracer installed.

    python3 bench/traced_daemon.py --cache-dir DIR --jobs N --run-id ID --out DIR

Builds the daemon as ``repro serve --jobs N --cache-dir DIR`` does, serves
until a client sends ``shutdown``, then writes the daemon's spans (and,
from each pool worker, that worker's spans) to ``<out>/<run-id>.<pid>``
span files.  The program must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse

import tracing
from repro.experiments.campaign import ResultCache
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import socket_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    tracer = tracing.Tracer(args.run_id, args.out)
    tracing.instrument(tracer, predictors=("baseline", "fvp"))
    tracing.instrument_service(tracer)
    try:
        ServiceDaemon(socket_path(args.cache_dir),
                      cache=ResultCache(args.cache_dir),
                      jobs=args.jobs).serve_forever()
    finally:
        tracer.restore()
        tracer.flush()


if __name__ == "__main__":
    main()
