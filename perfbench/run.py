#!/usr/bin/env python3
"""Build the perfbench Go module from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 30 --trace 0

Everything the build and the run write goes under .bench_build/ in the
current directory: the Go build cache, the binary, the fleet workers' spill
directories and the span dumps of traced runs. The benchmark's last line of
standard output is its JSON result. When the build fails (for example when
perfbench/ is checked out without the repository around it) this exits 2
without printing a result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env(build):
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for key, sub in dirs.items():
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off", CGO_ENABLED="0")
    return env


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    # A terminated runner must not leave the build or the benchmark behind:
    # SystemExit reaches run(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = go_env(build)
    binary = os.path.join(build, "bin", "perfbench")
    try:
        code = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S, cwd=here, env=env,
                   stdout=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run the Go toolchain: {err}", file=sys.stderr)
        return 2
    if code != 0:
        print("perfbench: build failed" if code is not None else "perfbench: build timed out",
              file=sys.stderr)
        return 2
    code = run([binary] + sys.argv[1:], RUN_TIMEOUT_S, cwd=root, env=env)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
