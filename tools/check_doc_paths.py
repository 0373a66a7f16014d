#!/usr/bin/env python3
"""Fail when a document names a repository path that does not exist.

Run from the repository root after building into build/:

    python3 tools/check_doc_paths.py

Scans the documents below for backticked paths under src/, bench/, tests/,
tools/ and examples/. A `:line` suffix is stripped and a `{a,b}` list is
expanded. A path resolves when it exists (a file, a directory or a glob
match), when it is a module stem with a .h or .cpp file, or when it names a
binary built under build/. Every path that does not resolve is printed and
the exit status is 1.

perfbench/README.md is not scanned: it may change only together with the
benchmark, so it can keep naming files that the rest of the tree dropped.
"""

import glob
import os
import re
import sys

DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
PATH = re.compile(r"`((?:src|bench|tests|tools|examples)/[^`\s]*)")
BUILD = "build"


def expand(path):
    """`a.{h,cpp}` -> [`a.h`, `a.cpp`]; other paths map to themselves."""
    m = re.search(r"\{([^}]*)\}", path)
    if not m:
        return [path]
    return [path[:m.start()] + alt + path[m.end():] for alt in m.group(1).split(",")]


def resolves(path):
    return (bool(glob.glob(path))
            or any(os.path.isfile(path + ext) for ext in (".h", ".cpp"))
            or os.path.isfile(os.path.join(BUILD, path)))


def main():
    missing = []
    for doc in DOCS:
        with open(doc, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for ref in PATH.findall(line):
                    ref = re.sub(r":\d+(-\d+)?$", "", ref)
                    missing += [(doc, lineno, p) for p in expand(ref) if not resolves(p)]
    for doc, lineno, path in missing:
        print(f"{doc}:{lineno}: `{path}` does not exist")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
