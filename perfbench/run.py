"""snls benchmark: end-to-end and per-layer metrics for the workloads in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed or
built, the package is imported from ./src.  Load model: closed loop with one
client.  This process starts one fresh interpreter (perfbench/worker.py) at a
time, waits for it, and starts the next until S seconds have passed, so every
launch pays interpreter start, `import snls` and cold module caches as a CLI
user does.  With --trace 0 it reports the end-to-end metrics over the
launches: wall_s and path_steps_per_s of the slowest launch, the others'
medians (see SLOWEST).  With --trace 1 the first launch only warms the file
caches; the rest run traced and untraced in the order t u u t, repeated, so
neither kind always goes first.  It reports the per-layer metrics of the
traced launches, plus their median wall time over that of the untraced ones
as trace.overhead_frac.  --workload all runs every workload for S seconds
each, one after the other.

Human-readable lines and the run's provenance come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Full per-launch records go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# counted from the start of the run: no new launch after the first bound, and
# every launch ends before the second, so a run exits within 180 s whatever
# --seconds says
LAUNCH_CUTOFF_S = 100.0
HARD_LIMIT_S = 170.0
# thread pools of the numerical libraries, and bytecode caching, which moves import time
RECORDED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE")


class HarnessError(RuntimeError):
    pass


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_state() -> dict:
    """Commit and dirty flag when the checkout is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=20, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=20,
                               check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def provenance(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    why = {w["name"]: w["why"] for w in spec.get("workloads", [])}
    wl = workloads.WORKLOADS[workload]
    return {
        "workload": workload,
        "why": why.get(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": wl.config_text(seed, ROOT),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git": _git_state(),
        "env": {k: os.environ.get(k) for k in RECORDED_ENV},
    }


def launch(workload: str, seed: int, traced: bool, run_id: str, started: float) -> dict:
    """Start one worker, wait for it, and return its record (ok False on any failure)."""
    work = OUT / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    log = work / "worker.log"
    t_launch = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--t-launch", repr(t_launch),
           "--run-id", run_id, "--out", str(work), "--result", str(result)]
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        try:
            rc = proc.wait(timeout=max(1.0, HARD_LIMIT_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            # also on KeyboardInterrupt: never leave a worker running
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc == 0 and result.is_file():
        rec = json.loads(result.read_text())
    else:
        tail = log.read_text().strip().splitlines()[-1:] if log.is_file() else []
        why = "timed out" if rc is None else f"exit code {rc}"
        rec = {"run_id": run_id, "ok": False, "error": f"{why}: {' '.join(tail)}"}
    rec["traced"] = traced
    shutil.rmtree(work, ignore_errors=True)
    return rec


def _traced(i: int) -> bool:
    """Launch i of a traced run: 0 is the warm-up, then t u u t, repeated."""
    return i > 0 and (i - 1) % 4 in (0, 3)


def run_workload(workload: str, seed: int, seconds: float, trace: int, started: float) -> list:
    """Launch until `seconds` have passed; a traced run needs a traced and an untraced launch."""
    records = []
    begun = time.monotonic()
    while True:
        i = len(records)
        traced = bool(trace) and _traced(i)
        run_id = f"{workload}-s{seed}-{i}{'t' if traced else 'u'}"
        rec = launch(workload, seed, traced, run_id, started)
        rec["warmup"] = bool(trace) and i == 0
        records.append(rec)
        now = time.monotonic()
        if now - started >= HARD_LIMIT_S - 1.0:
            break
        paired = not trace or (any(r["traced"] for r in records)
                               and any(not (r["traced"] or r["warmup"]) for r in records))
        if paired and (now - begun >= seconds or now - started >= LAUNCH_CUTOFF_S):
            break
    return records


# wall_s and path_steps_per_s report a run's slowest launch, the rest the
# median launch.  On the shared 2-core VM the baseline was measured on,
# launches vary by 10-20%, in spells as long as a run, and the slowest launch
# was the steadier figure from run to run: in two sets of 10 seeds on the
# three workloads its quartile spread was below the median's in 11 of 12
# cases (0.06-0.14 against 0.07-0.20).
SLOWEST = {"wall_s": max, "path_steps_per_s": min}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(records: list, trace: int, spec: dict) -> tuple:
    """(metrics, human lines) for one workload's launches."""
    # a launch whose outputs failed their check still ran to the end and is timed
    timed = [r for r in records if "wall_s" in r]
    plain = [r for r in timed if not (r["traced"] or r["warmup"])]
    traced = [r for r in timed if r["traced"]]
    if not timed or (trace and not (plain and traced)):
        raise HarnessError("no launch ran to the end: "
                           + "; ".join(str(r.get("error")) for r in records[:3]))
    values = {}
    n = len(records)
    failed = sum(not r["ok"] for r in records)
    if trace:
        layer = {}
        for r in traced:
            for k, v in r["layers"].items():
                layer.setdefault(k, []).append(v)
            layer.setdefault("process.cpu_s", []).append(r["process.cpu_s"])
        layer["trace.overhead_frac"] = [statistics.median(r["wall_s"] for r in traced)
                                        / statistics.median(r["wall_s"] for r in plain) - 1.0]
        values = layer
        wanted = spec["per_layer"]
        basis = len(traced)
    else:
        for key in ("setup_s", "wall_s", "path_steps_per_s", "peak_rss_mib"):
            values[key] = [r[key] for r in plain]
        values["pass_frac"] = [(n - failed) / n]
        wanted = spec["end_to_end"]
        basis = len(plain)
    metrics, lines = {}, []
    for m in wanted:
        if m["name"] not in values:
            raise HarnessError(f"metric {m['name']!r} in BENCHMARK.json is not measured")
        vals = values[m["name"]]
        pick = SLOWEST.get(m["name"]) if not trace else None
        value = pick(vals) if pick else statistics.median(vals)
        q1, q3 = _quartiles(vals)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"  {m['name']:<40} {value:>14.6g} {m['unit']:<6} "
                     f"({'slowest' if pick else 'median'} of {len(vals)}; "
                     f"q1 {q1:.6g}, q3 {q3:.6g})")
    absent = sorted({a for r in traced for a in r.get("absent_layers", [])})
    if absent:
        lines.append(f"  absent layers (reported as 0): {', '.join(absent)}")
    lines.append(f"  launches: {n} attempted, {failed} failed, {basis} measured")
    for r in records:
        if not r["ok"]:
            lines.append(f"  FAILED {r['run_id']}: {r['error']}")
    return metrics, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so launch() still stops its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if not (ROOT / "src" / "snls" / "__init__.py").is_file():
            raise HarnessError(f"no package source at {ROOT / 'src' / 'snls'}")
        spec = _load_spec()
        names = [w["name"] for w in spec["workloads"]] if args.workload == "all" \
            else [args.workload]
        OUT.mkdir(exist_ok=True)
        started = time.monotonic()
        all_metrics, attempted, failed, correct = {}, 0, 0, True
        for name in names:
            if time.monotonic() - started >= LAUNCH_CUTOFF_S:
                raise HarnessError(f"no time left for {name}; lower --seconds or run "
                                   "the workloads one at a time")
            prov = provenance(name, args.seed, args.seconds, args.trace, spec)
            records = run_workload(name, args.seed, args.seconds, args.trace, started)
            metrics, lines = summarize(records, args.trace, spec)
            attempted += len(records)
            failed += sum(not r["ok"] for r in records)
            correct = correct and all(r["ok"] for r in records)
            prov["versions"] = next(r["versions"] for r in records if "versions" in r)
            print(f"{name} (seed {args.seed}, trace {args.trace}): {prov['why']}")
            print("\n".join(lines))
            print("  provenance: " + json.dumps(prov, sort_keys=True))
            (OUT / f"result-{name}-s{args.seed}-trace{args.trace}.json").write_text(
                json.dumps({"provenance": prov, "metrics": metrics, "launches": records},
                           indent=1, sort_keys=True))
            prefix = f"{name}." if len(names) > 1 else ""
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
