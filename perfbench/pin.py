"""Pin each workload's simulated outputs for a range of seeds.

Usage (from the repository root)::

    python3 perfbench/pin.py --seeds 0-15 [--workload serve-exact]

Runs one untimed (set up, call) per workload and seed and writes the
output digests to ``golden.json``, which ``run.py`` compares every run
against.  Existing pins for other seeds and workloads are kept.
Re-pin only for a change that is meant to alter simulated outputs.
"""

import argparse
import json
import shutil
import sys
import tempfile

from run import OUT_DIR, _import_program


def _seeds(text):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    if not _import_program():
        print("error: src/repro is not in this checkout", file=sys.stderr)
        return 2
    from workloads import GOLDEN_PATH, WORKLOADS

    pins = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() \
        else {}
    OUT_DIR.mkdir(exist_ok=True)
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            tmp_dir = tempfile.mkdtemp(dir=OUT_DIR)
            try:
                state = workload.setup(seed, tmp_dir)
                try:
                    _, outputs, _ = workload.op(state)
                finally:
                    workload.close(state)
            finally:
                shutil.rmtree(tmp_dir, ignore_errors=True)
            pins.setdefault(name, {})[str(seed)] = outputs["digest"]
            print(name, seed, outputs["digest"], flush=True)
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True,
                                      allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
