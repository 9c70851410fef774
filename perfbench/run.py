"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-exact --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` repeats (set up, timed call) for ``--seconds`` seconds
with tracing off and reports the end-to-end metrics, scaled to a
reference host speed by interleaved probes; ``--trace 1`` does
the same untraced passes, then one traced pass that wraps the library's
layer boundaries (see ``recorder.py``) and reports the per-layer
ledger.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the host record, the
stage table and any output mismatches are printed above it and saved,
with the traced spans, under ``.perfbench_out/``.  The program is
imported from ``src/`` of the same checkout; without it the script
exits with status 2 and prints no result.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = REPO_ROOT / ".perfbench_out"
#: Set-up is repeated at least this often per run; ``setup_s`` is the
#: median, so one cold first set-up (lazy imports) does not dominate.
MIN_SETUPS = 3
#: Host-speed probes: ``PROBE_REPEATS`` runs of :func:`host_probe` before
#: and after every set-up and timed call (and at each ``pause`` of a
#: long call).  Timings are scaled by ``PROBE_REFERENCE_S`` over the
#: run's mean probe time -- the mean, because a timed call pays the
#: host's average slowdown over its span: the figures are what the run
#: would have taken on a host as fast as the reference, so neighbours
#: slowing a shared host for tens of seconds move the probe, not the
#: metric.
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.005


def host_probe():
    """Seconds of a fixed pure-Python + numpy computation (~5 ms).

    It shares no code with the program, so only the host's speed moves
    it.
    """
    import numpy as np

    began = time.perf_counter()
    table = {}
    for value in range(12_000):
        table[value % 997] = table.get(value % 997, 0) + value * value % 7
    data = np.arange(200_000, dtype=np.float64)[::-1]
    np.sort(data)
    np.cumsum(data)
    return time.perf_counter() - began


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` on the path; False when it is absent."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


class _Run:
    """Accounting of one benchmark invocation."""

    def __init__(self, workload, seed, profiler):
        self.workload = workload
        self.seed = seed
        self.profiler = profiler
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup_s = []
        self.op_s = []
        self.work = []
        self.probes = []
        self.digest = None

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def probe(self):
        """Probe the host's speed; returns the seconds it took."""
        began = time.perf_counter()
        self.probes.extend(host_probe() for _ in range(PROBE_REPEATS))
        seconds = time.perf_counter() - began
        self.profiler.add("probe", seconds)
        return seconds

    def scale(self):
        """Reference-host seconds per host second over the run."""
        return PROBE_REFERENCE_S / statistics.mean(self.probes)

    def setup(self, tmp_dir):
        """Set up between two probes; returns the state."""
        self.probe()
        before = self.profiler.seconds("setup")
        with self.profiler.stage("setup"):
            state = self.workload.setup(self.seed, tmp_dir)
        self.setup_s.append(self.profiler.seconds("setup") - before)
        self.probe()
        return state

    def op(self, state):
        """The timed call, net of its pauses; returns ``(result, raw
        seconds)``."""
        paused = 0.0

        def pause():
            nonlocal paused
            paused += self.probe()

        began = time.perf_counter()
        result = self.workload.op(state, pause)
        seconds = time.perf_counter() - began - paused
        self.profiler.add("op", seconds)
        self.probe()
        return result, seconds

    def one_pass(self, first):
        """One untraced (set up, timed call, check) pass."""
        tmp_dir = tempfile.mkdtemp(dir=OUT_DIR)
        try:
            state = self.setup(tmp_dir)
            try:
                self.attempted += 1
                try:
                    (work, outputs, _), seconds = self.op(state)
                except Exception:  # repro-lint: allow-broad-except-audit (a raising operation is counted as failed and its traceback printed)
                    traceback.print_exc()
                    self.fail("%s raised" % self.workload.name)
                    return
                self.check(outputs, full=first)
                self.op_s.append(seconds)
                self.work.append(work)
            finally:
                self.workload.close(state)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    def check(self, outputs, full):
        """Full output check on the first pass; later passes (same seed,
        same inputs) must reproduce its digest exactly."""
        problems = []
        if full:
            problems = self.workload.check(outputs, self.seed)
            self.digest = outputs["digest"]
        elif outputs["digest"] != self.digest:
            problems = ["%s: pass digest %s != first pass %s"
                        % (self.workload.name, outputs["digest"],
                           self.digest)]
        if problems:
            self.fail("; ".join(problems))

    def extra_setups(self):
        while len(self.setup_s) < MIN_SETUPS:
            tmp_dir = tempfile.mkdtemp(dir=OUT_DIR)
            try:
                self.workload.close(self.setup(tmp_dir))
            finally:
                shutil.rmtree(tmp_dir, ignore_errors=True)


def _traced_pass(run, recorder_module):
    """One traced pass; returns ``(ledger values, recorder)``, or
    ``(None, recorder)`` when the traced call raised."""
    recorder = recorder_module.SpanRecorder(
        "%s/seed%d/traced" % (run.workload.name, run.seed))
    tmp_dir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        state = run.workload.setup(run.seed, tmp_dir, span=recorder.span)
        calibrate_s = recorder.busy_s.pop("service_model.calibrate", 0.0)
        try:
            run.attempted += 1
            recorder_module.install_layers(recorder)
            try:
                began = time.perf_counter()
                with recorder.span("bench.op"):
                    _, outputs, counts = run.workload.op(state)
                wall_s = time.perf_counter() - began
            except Exception:  # repro-lint: allow-broad-except-audit (a raising operation is counted as failed and its traceback printed)
                traceback.print_exc()
                run.fail("%s raised in the traced pass" % run.workload.name)
                return None, recorder
            finally:
                recorder.restore()
            if outputs["digest"] != run.digest:
                run.fail("%s: traced digest %s != untraced %s"
                         % (run.workload.name, outputs["digest"],
                            run.digest))
        finally:
            run.workload.close(state)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    counts["service_model.calibrate_s"] = calibrate_s
    values = recorder_module.ledger(recorder, wall_s, counts)
    values["bench.trace_overhead_s"] = wall_s - statistics.median(run.op_s)
    return values, recorder


def main(argv=None):
    args = _parse(argv)
    if not _import_program():
        print("error: the program under test (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    import recorder as recorder_module
    from workloads import WORKLOADS, host_record

    from repro.obs import StageProfiler, format_stage_table

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    run = _Run(workload, args.seed, StageProfiler())
    while not run.op_s or sum(run.op_s) < args.seconds:
        run.one_pass(first=run.digest is None)
        if run.failed:
            break
    run.extra_setups()

    host = host_record()
    if not run.op_s:
        metrics = {}
    elif args.trace:
        values, recorder = _traced_pass(run, recorder_module)
        recorder.write(OUT_DIR / ("spans-%s-seed%d.json"
                                  % (workload.name, args.seed)))
        metrics = {} if values is None else {
            name: {"value": values[name], "unit": unit}
            for name, unit in recorder_module.PER_LAYER}
    else:
        metrics = workload.end_to_end(
            work=run.work, op_s=run.op_s,
            setup_s=statistics.median(run.setup_s), scale=run.scale(),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    print("host: %s" % json.dumps(host, sort_keys=True))
    print(format_stage_table(run.profiler.totals()))
    for error in run.errors:
        print("MISMATCH: %s" % error)
    result = {"correct": not run.errors,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = dict(result, workload=workload.name, seed=args.seed,
                  trace=args.trace, host=host, errors=run.errors,
                  stages=run.profiler.totals(), setup_s=run.setup_s,
                  op_s=run.op_s, work=run.work, probe_s=run.probes,
                  scale=run.scale())
    with open(OUT_DIR / ("result-%s-seed%d-trace%d.json"
                         % (workload.name, args.seed, args.trace)),
              "w") as handle:
        json.dump(record, handle, indent=1, allow_nan=False)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
