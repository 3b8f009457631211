#!/usr/bin/env python3
"""Fail when a `go test -run` or `-bench` pattern in a workflow selects nothing.

usage: scripts/check-run-patterns.py [WORKFLOW]   (default .github/workflows/ci.yml)

`go test -run 'A|B'` passes quietly when B matches no test, so a renamed or
deleted test makes a step run less than it says; `-bench` patterns fail
the same way. For every `go test` line of WORKFLOW that sets -run or
-bench, each `|` alternative of the pattern is listed with
`go test -list ALT` on the line's packages (and its -race/-tags flags); a
-run alternative that lists no test, benchmark, fuzz target or example is
an error, and so is a -bench alternative that lists no benchmark. The -run
pattern '^$', which selects no test on purpose (a benchmark-only or
fuzz-only step), is skipped.
"""
import re
import shlex
import subprocess
import sys

NAME = re.compile(r"^(Test|Benchmark|Fuzz|Example)")
BENCH = re.compile(r"^Benchmark")


def run_lines(path):
    """Yield (line number, tokens) for every `go test` command of path."""
    with open(path) as f:
        for n, line in enumerate(f, 1):
            _, sep, cmd = line.partition("go test ")
            if sep and not line.lstrip().startswith("#"):
                yield n, shlex.split("go test " + cmd)


def parse(tokens):
    """The -run and -bench patterns, build flags and packages of one go test command."""
    patterns, build, pkgs = {}, [], []
    it = iter(tokens[2:])
    for tok in it:
        flag, eq, val = tok.partition("=")
        if flag in ("-run", "-bench"):
            patterns[flag] = val if eq else next(it)
        elif tok == "-race":
            build.append(tok)
        elif tok == "-tags":
            build += [tok, next(it)]
        elif tok.startswith("-tags="):
            build.append(tok)
        elif tok == "." or tok.startswith("./"):
            pkgs.append(tok)
    return patterns, build, pkgs


def listed(alt, build, pkgs, name):
    out = subprocess.run(["go", "test", "-list", alt, *build, *pkgs],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"go test -list {alt!r} {' '.join(pkgs)} failed:\n{out.stderr}")
    return [l for l in out.stdout.splitlines() if name.match(l)]


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    problems = checked = 0
    for n, tokens in run_lines(path):
        patterns, build, pkgs = parse(tokens)
        if patterns.get("-run") == "^$":
            del patterns["-run"]
        for flag, pattern in patterns.items():
            name, what = (BENCH, "benchmark") if flag == "-bench" else (NAME, "test")
            for alt in pattern.split("|"):
                checked += 1
                if not listed(alt, build, pkgs or ["."], name):
                    problems += 1
                    print(f"{path}:{n}: {flag} alternative {alt!r} matches no {what} in {' '.join(pkgs) or '.'}")
    print(f"{checked} -run and -bench alternatives checked, {problems} match nothing")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
