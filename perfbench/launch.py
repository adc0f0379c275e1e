"""Run one ``smfpca`` CLI command in this process, with probes installed.

    python3 perfbench/launch.py <mode> <report.json> <cli args...>

``mode`` is ``plain`` (set-up and fit probes only), ``traced`` (a span
around every layer function) or ``setup`` (exit with status 0 at the
first numerical call). The report file receives the probe readings and
spans when the command ends; the exit status is the CLI's.
"""

import json
import os
import resource
import sys
import time

import spans


def main():
    mode, report_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("plain", "traced", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    recorder = spans.Recorder(traced=mode == "traced")
    spans.instrument(recorder)
    if mode == "setup":
        def stop():
            _write(report_path, recorder, None, None)
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)
        recorder.on_first_numeric = stop

    import smfpca.cli

    main_start = time.monotonic()
    code = 1
    try:
        code = smfpca.cli.main(argv)
    finally:
        _write(report_path, recorder, main_start, time.monotonic())
    sys.exit(code)


def _write(path, recorder, main_start, main_end):
    document = recorder.dump()
    document["main_start"] = main_start
    document["main_end"] = main_end
    document["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


if __name__ == "__main__":
    main()
