"""One groverlab CLI invocation as a child of the benchmark.

    python bench/child.py <report-file> <spans-file or -> <groverlab arguments...>

Runs ``groverlab.cli.main`` in this process, under the span tracer when a
spans file is given, and writes the process's peak resident set size in KiB
(``VmHWM``) to the report file when the invocation ends.  The parent cannot
take the peak from ``wait4``: a child started by vfork or posix_spawn has
the parent's own high-water mark folded into its ``ru_maxrss``.
"""

import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv) -> int:
    report, spans, cli_args = argv[0], argv[1], argv[2:]
    tracer = None
    if spans != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from groverlab.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(spans)
        with open(report, "w") as fh:
            fh.write(str(peak_rss_kib()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
