#!/usr/bin/env python3
"""Build and run the verification-cascade benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline, locked) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload. The
build log goes to stderr; the benchmark's stdout is passed through, so its
last line is the JSON result. Exits with the benchmark's code, or with
cargo's code when the build fails (for example when the repository's
crates are missing).
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    env.setdefault("LV_PERFBENCH_WORK", os.path.join(root, ".perfbench_work"))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, check=False).stdout.strip()
    except OSError:
        commit = ""
    env.setdefault("LV_PERFBENCH_COMMIT", commit or "unknown")
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
