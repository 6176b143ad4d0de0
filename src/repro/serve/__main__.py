"""CLI for the sweep service: ``python -m repro.serve <command>``.

Commands::

    serve     --listen ADDR [--local-workers N] [--batch N]
              [--store DIR | --no-store] [--memory-entries N] [--threads]
    ping      --connect ADDR [--wait SECONDS]
    stats     --connect ADDR
    shutdown  --connect ADDR

``ADDR`` is ``host:port`` (``:0`` picks a free port) or ``unix:/path``.
The default on-disk store root is the bench cache directory
(``$REPRO_BENCH_CACHE`` or ``.bench_cache``), so service results and
local ``run_tasks`` caching share one content-addressed population.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..bench.parallel import default_cache_root
from .client import ServiceError, SweepClient, wait_ready
from .service import run_service
from .store import ResultStore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the sweep service")
    serve.add_argument("--listen", default="127.0.0.1:8637", metavar="ADDR")
    serve.add_argument("--local-workers", type=int, default=1, metavar="N",
                       help="local executor lanes (0: admit and queue "
                            "requests, compute nothing)")
    serve.add_argument("--batch", type=int, default=4, metavar="N",
                       help="max tasks per dispatch batch")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="on-disk store root (default: the bench cache)")
    serve.add_argument("--no-store", action="store_true",
                       help="memory-only store (no disk tier)")
    serve.add_argument("--memory-entries", type=int, default=4096,
                       metavar="N")
    serve.add_argument("--threads", action="store_true",
                       help="thread executor instead of processes")

    for name, help_text in (("ping", "readiness probe"),
                            ("stats", "print service+store counters"),
                            ("shutdown", "stop the service")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--connect", required=True, metavar="ADDR")
        if name == "ping":
            sub.add_argument("--wait", type=float, default=0.0,
                             metavar="SECONDS",
                             help="poll until ready for up to this long")

    args = parser.parse_args(argv)

    if args.command == "serve":
        root = None if args.no_store else (args.store or default_cache_root())
        store = ResultStore(root=root, memory_entries=args.memory_entries)
        run_service(args.listen, store=store,
                    local_workers=args.local_workers,
                    batch_size=args.batch, use_threads=args.threads)
        return 0

    try:
        if args.command == "ping":
            if args.wait:
                reply = wait_ready(args.connect, timeout=args.wait)
            else:
                with SweepClient(args.connect, timeout=10.0) as client:
                    reply = client.ping()
            print(json.dumps(reply, sort_keys=True))
        elif args.command == "stats":
            with SweepClient(args.connect, timeout=10.0) as client:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
        elif args.command == "shutdown":
            with SweepClient(args.connect, timeout=10.0) as client:
                client.shutdown()
            print("service shut down")
    except (OSError, ServiceError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
