"""Stand-in for the ``perfdamp`` console script, run as one cold process.

Usage: python3 cli_child.py SPAN_FILE|- <perfdamp arguments...>

Runs ``perfdamp.cli.main`` with the remaining arguments, as the console
script does; standard output and the exit code are the CLI's. At exit it
writes ``peak_rss_kb N`` as the last line of standard error: the peak
resident memory of this process since it started.

With a SPAN_FILE in place of ``-``, it also times the numpy and perfdamp
imports, installs the benchmark's tracer and writes the span totals and
import times to SPAN_FILE as JSON.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB (VmHWM).

    Unlike ru_maxrss it does not include the memory of the parent that
    spawned the process, which Linux carries over the exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    if span_file == "-":
        import perfdamp.cli
        code = perfdamp.cli.main(argv)
    else:
        t0 = time.perf_counter()
        import numpy  # noqa: F401
        t1 = time.perf_counter()
        import perfdamp.cli
        t2 = time.perf_counter()
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            code = perfdamp.cli.run(argv)
        finally:
            tracer.uninstall()
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.totals(), "numpy_import_s": t1 - t0,
                       "package_import_s": t2 - t1,
                       "inside_s": time.perf_counter() - T_START}, fh)
    sys.stdout.flush()
    print(f"peak_rss_kb {peak_rss_kb()}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
