"""One launch of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --t-launch T --run-id ID --out DIR --result FILE

run.py starts it and passes --t-launch, the CLOCK_MONOTONIC reading taken
just before the interpreter was started; that clock is system-wide on Linux,
so set-up and wall times include interpreter start and `import snls`.  The
launch writes one JSON object to --result: its timings and layer metrics, and
whether the outputs passed their check.  A run that raises BlowUpError
reports no timings, and a launch that dies writes nothing; run.py counts
either as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _rusage():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is in KiB on Linux
    rss_mib = (self_.ru_maxrss + kids.ru_maxrss) / 1024.0
    cpu_s = self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime
    return rss_mib, cpu_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t-launch", type=float, required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.monotonic()
    import snls
    import snls.cli
    import_s = time.monotonic() - t0
    if not Path(snls.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"snls imported from {snls.__file__}, not from {src}")

    setup = {"import.snls_s": import_s}
    args.out.mkdir(parents=True, exist_ok=True)
    text = wl.config_text(args.seed, ROOT)
    config_path = args.out / "workload.cfg"
    config_path.write_text(text)
    t = time.monotonic()
    cfg = snls.parse_config(text)
    setup["config.parse_config.s"] = time.monotonic() - t
    t = time.monotonic()
    snls.compute_constants(cfg)
    setup["config.compute_constants.s"] = time.monotonic() - t
    t = time.monotonic()
    ops = snls.build_operators(cfg)
    setup["dynamics.build_operators.s"] = time.monotonic() - t
    initial = wl.initial(snls, cfg, ops)
    t_setup = time.monotonic()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        tracer.install()
    try:
        output = wl.run(snls, cfg, initial, config_path, args.out)
    except snls.BlowUpError as exc:
        # a partial run has no timings to report
        args.result.write_text(json.dumps({"run_id": args.run_id, "ok": False,
                                           "error": f"BlowUpError: {exc}"}))
        return 0
    t_done = time.monotonic()
    rss_mib, cpu_s = _rusage()
    if tracer is not None:
        tracer.uninstall()

    error = None
    try:
        wl.check(output, cfg, initial, text, args.out)
        workloads.check_nonlinear_reference(snls, cfg)
    except workloads.CheckError as exc:
        error = f"check failed: {exc}"

    setup_s = t_setup - args.t_launch
    wall_s = t_done - args.t_launch
    result = {
        "run_id": args.run_id,
        "ok": error is None,
        "error": error,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "path_steps": wl.path_steps(cfg),
        "path_steps_per_s": wl.path_steps(cfg) / (t_done - t_setup),
        "peak_rss_mib": rss_mib,
        "process.cpu_s": cpu_s,
        "layers": dict(setup),
        "absent_layers": [],
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "snls": getattr(snls, "__version__", "unknown")},
    }
    if tracer is not None:
        result["layers"].update(tracer.layer_metrics())
        result["absent_layers"] = tracer.absent
        tracer.write(args.out.parent / f"spans-{args.workload}.csv")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
