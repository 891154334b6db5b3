"""Print every benchmark metric by name, value and unit, for every workload.

    python3 perfbench/report.py [--seconds S] [--seed N]

Runs ``run.py`` untraced and traced for each workload, each in its own
process, at each workload's default seed unless ``--seed`` is given.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=0.0, help="per run; 0 times the minimum")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    failed = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                print(f"{workload:16} {name:45} {metric['value']:14.6g} {metric['unit']}")
            if not trace:
                share = result["failed"] / result["attempted"]
                print(f"{workload:16} {'failed_share':45} {share:14.6g} share")
            failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
