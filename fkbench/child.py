"""Run one fklab CLI command in this fresh process and report how it went.

Usage: python3 child.py RESULT_JSON CONFIG COMMAND OUT_DIR SEED [SPANS_JSON_GZ]

Ready means ``fklab.cli`` is imported and the config is loaded; the ready
time is ``time.monotonic()``, which the parent compares with its spawn time.
The command then runs through ``fklab.cli.main`` with ``--threads 1``.  With
a spans path, the tracer is installed first and its spans are written there.
"""

import json
import resource
import sys
import time


def main(argv):
    result_path, config, command, out_dir, seed = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    import fklab.cli

    fklab.cli.load_config(config)
    ready = time.monotonic()
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_args = [command, "--config", config, "--out", out_dir, "--seed", seed, "--threads", "1"]
    t0, c0 = time.perf_counter(), time.process_time()
    code = fklab.cli.main(cli_args)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    record = {
        "ready_monotonic": ready,
        "exit_code": code,
        "command_s": wall,
        "command_cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["trace"] = tracer.summary(wall)
        tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
