#!/usr/bin/env python3
"""Per-package CPU share of a traced run's CPU profile.

    python3 perfbench/cpushare.py .bench_build/trace/fig7-warm-http-seed1.setup.cpu.pprof

Reads the profile offline with `go tool pprof -top` and sums each function's
flat CPU time into its Go package.
"""
import re
import subprocess
import sys

ROW = re.compile(r"^\s*([\d.]+)(\w+)\s+[\d.]+%\s+[\d.]+%\s+[\d.]+\w*\s+[\d.]+%\s+(.+)$")
UNIT = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0, "mins": 60.0, "hrs": 3600.0}


def package(func):
    """rest/internal/cpu.(*Pipeline).Run -> rest/internal/cpu; assembly
    routines without a package prefix (aeshashbody) belong to the runtime."""
    if "." not in func:
        return "runtime"
    slash = func.rfind("/")
    dot = func.find(".", slash + 1)
    return func[:dot] if dot > 0 else func


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: cpushare.py PROFILE")
    top = subprocess.run(["go", "tool", "pprof", "-top", "-nodecount=1000000", sys.argv[1]],
                         capture_output=True, text=True, check=True).stdout
    shares, total = {}, 0.0
    for line in top.splitlines():
        m = ROW.match(line)
        if not m:
            continue
        secs = float(m.group(1)) * UNIT[m.group(2)]
        pkg = package(m.group(3).strip())
        shares[pkg] = shares.get(pkg, 0.0) + secs
        total += secs
    print(f"# per-package flat CPU share of {sys.argv[1].rsplit('/', 1)[-1]} ({total:.2f} s sampled)")
    for pkg, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"{100 * secs / total:6.2f}%  {secs:8.2f}s  {pkg}")


if __name__ == "__main__":
    main()
