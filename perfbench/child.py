"""Fresh-process entry points of the benchmark.

    child.py setup <workload> <seed> <workdir>
        Import quadrix and build the workload's inputs, then exit; the parent
        times the whole process as the set-up cost.
    child.py cli [--trace-out PATH] -- <quadrix CLI arguments>
        Run the quadrix command line in this process, as the `quadrix`
        script does.  With --trace-out, wrap the layers and write the spans
        and the import time to PATH.

Both modes print their peak resident set size as the last line on stderr.
The quadrix sources must be importable (the parent sets PYTHONPATH).
"""

import time

T0 = time.perf_counter()

import resource  # noqa: E402
import sys  # noqa: E402

RSS_TAG = "perfbench-peak-rss-kb="


def _setup(workload: str, seed: int, workdir: str) -> int:
    from pathlib import Path

    import workloads

    workloads.build(workload, seed, Path(workdir))
    return 0


def _cli(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py cli [--trace-out PATH] -- ARGS", file=sys.stderr)
        return 2
    from quadrix import cli

    import_s = time.perf_counter() - T0
    if trace_out is None:
        return cli.main(argv[1:])

    import json
    import warnings

    import tracer

    rec = tracer.Recorder()
    rec.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv[1:])
    rec.uninstall()
    doc = {"import_s": import_s, "spans": rec.spans,
           "target_warnings": sum("exceeds the target" in str(w.message) for w in caught)}
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    try:
        if mode == "setup":
            return _setup(rest[0], int(rest[1]), rest[2])
        if mode == "cli":
            return _cli(rest)
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        sys.stdout.flush()
        print(f"{RSS_TAG}{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
