#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload eagle-qv --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout. Builds the `perfbench` package and the
`nassc-serve` daemon into $CARGO_TARGET_DIR (default: `.bench_build` at the
checkout root), runs one measurement, passes its standard output through,
and appends the provenance and result lines to `.bench_results/runs.jsonl`.
Exits non-zero, printing no result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    builds = [
        ["--manifest-path", "perfbench/Cargo.toml"],
        ["-p", "nassc-serve", "--bin", "nassc-serve"],
    ]
    for build in builds:
        command = ["cargo", "build", "--release", "--offline", "--quiet", *build]
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(command), file=sys.stderr)
            return 1

    command = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--serve-bin",
        str(target / "release" / "nassc-serve"),
    ]
    run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    record = {**json.loads(lines[-2]), "result": json.loads(lines[-1])}
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    with open(results / "runs.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
