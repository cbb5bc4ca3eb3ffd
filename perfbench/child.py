"""Run one ssrna CLI operation in this process and report its timings.

Usage: python3 child.py SRC_DIR REPORT_JSON OP_ID MODE -- CLI_ARGS...

MODE is ``plain`` (run ``ssrna.cli.main``), ``traced`` (the same, with the
tracer's wrappers installed around it) or ``setup`` (stop once the config has
been loaded and validated).  The report holds CLOCK_MONOTONIC stamps in ns,
comparable with the parent's, the peak resident memory of this process and
the spans of a traced run.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kib() -> int:
    """VmHWM of this process's own address space.  ru_maxrss is not used: after
    a vfork it also counts the parent's peak, which exec folds into it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    started = time.monotonic_ns()
    src_dir, report_path, op_id, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "traced", "setup"):
        raise SystemExit("usage: child.py SRC_DIR REPORT_JSON OP_ID plain|traced|setup -- CLI_ARGS...")
    sys.path.insert(0, src_dir)
    import ssrna.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(os.path.abspath(src_dir), "")):
        raise SystemExit(f"ssrna was imported from {cli.__file__}, not from {src_dir}")
    imported = time.monotonic_ns()
    cfg = cli.load_config(cli_args[cli_args.index("--config") + 1])
    cli.parse_model(cfg)
    cli.parse_noise(cfg)
    ready = time.monotonic_ns()
    report = {"started_ns": started, "imported_ns": imported, "ready_ns": ready, "spans": []}

    rc = 0
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer(int(op_id))
            tracer.install()
        try:
            rc = cli.main(cli_args)
        finally:
            if tracer is not None:
                tracer.uninstall()
                report["spans"] = tracer.export()
    report["peak_rss_kib"] = peak_rss_kib()
    with open(report_path, "w") as fh:
        fh.write(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
