"""One timed command, run in its own process.

    python3 bench/child.py --rss FILE [--spans FILE] cli <eventcrawl arguments...>
    python3 bench/child.py --rss FILE [--spans FILE] open <index file> <seconds>

``cli`` runs the eventcrawl command line exactly as the ``eventcrawl``
entry point does. ``open`` loads an index with ``ArchiveIndex.open``
once, then again until the opens add up to <seconds>, and prints
``{"open_s": <median seconds>, "captures": ...}``. One
open takes tens of milliseconds, so the median of many is steadier.
With ``--spans`` the trace hooks are installed first and the spans are
written to FILE at exit.

At exit the process writes its peak RSS in kB to the ``--rss`` file. It
reads ``VmHWM`` from /proc/self/status because ``ru_maxrss`` of a child
starts from its parent's size at exec.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from inputs import import_eventcrawl

def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    rss, argv = argv[1], argv[2:]
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    eventcrawl = import_eventcrawl()
    tracer = None
    if spans:
        import tracing

        tracer = tracing.Tracer(run_id=" ".join(argv[:2]))
        tracing.install(tracer, eventcrawl)
    try:
        if argv[0] == "cli":
            from eventcrawl.cli import main as cli_main

            return cli_main(argv[1:])
        if argv[0] == "open":
            times = []
            while not times or sum(times) < float(argv[2]):
                started = perf_counter()
                index = eventcrawl.ArchiveIndex.open(argv[1])
                times.append(perf_counter() - started)
            print(json.dumps({"open_s": statistics.median(times), "captures": index.record_count}))
            return 0
        print(f"child: unknown command {argv[0]!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(spans)
        with open(rss, "w", encoding="ascii") as handle:
            handle.write(str(peak_rss_kb()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
