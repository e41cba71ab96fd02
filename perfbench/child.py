"""Run one relspin CLI command in this fresh interpreter and record it.

    python3 child.py RECORD.json [--probe | --spans SPANS.jsonl] -- CLI-ARGS...

Records ``libs`` and ``entry`` (``time.monotonic()`` after the numpy and
scipy imports and at entry to ``relspin.cli.main``; the parent subtracts its
own clock reading taken just before starting this interpreter), ``wall_s``
(duration of ``main``), the exit code and ``maxrss_kb``.  ``--probe`` stops at
the entry point without running the command.  ``--spans`` traces the command
and writes its spans, one JSON list per line after a header line naming
absent trace targets.
"""

import json
import resource
import sys
import time
import traceback


def main():
    record_path, rest = sys.argv[1], sys.argv[2:]
    split = rest.index("--")
    opts, argv = rest[:split], rest[split + 1:]
    probe = "--probe" in opts
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    # the libraries relspin imports, first, so that their import time (a
    # fixed piece of interpreter-bound work) is measured on its own
    import numpy, scipy.fft, scipy.linalg  # noqa: F401,E401
    libs = time.monotonic()
    from relspin.cli import main as cli_main

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer().install()
    record = {"libs": libs, "entry": time.monotonic()}
    if not probe:
        start = time.perf_counter()
        try:
            rc = tracer.run_root(cli_main, argv) if tracer else cli_main(argv)
        except Exception:
            rc = None
            record["error"] = traceback.format_exc()
        record["wall_s"] = time.perf_counter() - start
        record["rc"] = rc
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"absent": tracer.absent}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
