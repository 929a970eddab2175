#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Workloads: paper-tables, cones-5k, scale-50k, serve-mix. `all` runs each
in its own process and prints every metric by name with its unit.

The benchmark is built from source into `$CARGO_TARGET_DIR` (default
`.bench_build` under the current directory). Each workload runs in a
process of its own, so its peak resident set is its own. The last line
of standard output is the result object of the (last) run.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-tables", "cones-5k", "scale-50k", "serve-mix"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("crates", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_child(cmd, **kwargs):
    """Runs `cmd`, killing and reaping it if this process is interrupted."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")) or not os.path.isfile(manifest):
        fail("the lily sources are missing; run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    code, _ = run_child(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr,
    )
    if code != 0:
        fail(f"build failed (exit {code})", code or 1)
    return os.path.join(target, "release", "perfbench"), os.path.join(target, "perfbench")


def run_workload(binary, out_dir, rev, workload, args):
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", out_dir, "--rev", rev,
    ]
    code, out = run_child(cmd, stdout=subprocess.PIPE, text=True)
    return code, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary, out_dir = build()
    rev = source_rev()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    last = None
    for workload in workloads:
        code, lines = run_workload(binary, out_dir, rev, workload, args)
        if code != 0 or not lines:
            fail(f"{workload} exited with code {code}", code or 1)
        if args.workload == "all":
            result = json.loads(lines[-1])
            print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
            print(f"  report: {lines[-2]}")
        else:
            print("\n".join(lines[:-1]))
        last = lines[-1]
    print(last)


if __name__ == "__main__":
    main()
