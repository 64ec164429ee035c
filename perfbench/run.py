#!/usr/bin/env python3
"""Build and run the Meta-Chaos simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the `perfbench` package in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs it with
the same arguments.  Build output goes to standard error; the benchmark's
last line of standard output is its JSON result.

The benchmark runs with glibc's malloc thresholds fixed.  Left dynamic,
they put the lossy workload, process by process and for the same seed,
in one of several modes between 1.2 and 8 s of host time (3-6 million
minor page faults from returning and refaulting its 256 KiB frames), so
no host metric could be compared between runs.  Fixed, buffers of up to
32 MiB come from the heap and the heap is not trimmed.  For the same
reason it runs without address-space randomization: the 1024 coroutine
stacks of `scale_p1024` otherwise land differently in every process and
its host time moves by about 10% from run to run.
"""

import ctypes
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd().resolve()
MANIFEST = pathlib.Path(__file__).resolve().parent / "Cargo.toml"


def commit():
    """The commit, when the repository root is a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=ROOT,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and pathlib.Path(lines[0]) == ROOT:
        return lines[1]
    return "none"


def source_digest():
    """A digest of the sources the benchmark builds from."""
    h = hashlib.sha256()
    files = sorted(ROOT.glob("crates/**/*.rs")) + sorted(ROOT.glob("crates/*/Cargo.toml"))
    files += sorted(MANIFEST.parent.glob("src/*.rs"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fixed_layout():
    """Turn off address-space randomization for the benchmark process."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE"] = source_digest()
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    exe = target / "release" / "perfbench"
    return subprocess.run([str(exe)] + sys.argv[1:], env=env, preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
