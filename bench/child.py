"""Run one linsing CLI command in this fresh interpreter and time it.

Usage: child.py RESULT_JSON TRACE SRC_DIR ARG...

Times `import linsing.cli` and the in-process `linsing.cli.main(ARG...)` call,
and writes both, with the process's peak resident set, to RESULT_JSON. With
TRACE = 1 it first installs span recorders around the package's public entry
points (see spans.py) and adds the per-layer totals. SRC_DIR is the directory
the package must be imported from, so a stray installed copy is never timed.
"""

import json
import os
import resource
import sys
import time


def main():
    result_path, trace, src_dir = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[4:]

    t0 = time.perf_counter()
    import linsing.cli

    import_s = time.perf_counter() - t0
    modules = len(sys.modules)
    if not os.path.abspath(linsing.cli.__file__).startswith(src_dir + os.sep):
        sys.stderr.write(f"bench: linsing imported from {linsing.cli.__file__}, "
                         f"not from {src_dir}\n")
        return 99

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        t0 = time.perf_counter()
        rc = recorder.root("cli.main", linsing.cli.main, argv)
    else:
        t0 = time.perf_counter()
        rc = linsing.cli.main(argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()

    doc = {
        "rc": rc,
        "import_s": import_s,
        "modules": modules,
        "main_s": main_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        doc["totals"] = spans.summarize(recorder.spans)
        doc["unwrapped"] = recorder.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
