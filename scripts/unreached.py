#!/usr/bin/env python3
"""Lists the code under src/ that a test run never executed.

Usage:
  cmake -B build-cov -S . -DCMAKE_CXX_FLAGS="--coverage -O1"
  cmake --build build-cov -j && ctest --test-dir build-cov -j
  python3 scripts/unreached.py build-cov [--out unreached.txt]

Runs `gcov --json-format --stdout` over every .gcda file under
BUILD/src and prints:
  * each source file under src/ with its count of unexecuted lines, most
    first. A line of a header compiled into several objects counts as
    executed if any object ran it.
  * every `prisma::` function (lambdas included) that no object entered,
    by file and line.

gcov's text summaries (`gcov -f -n`) list an object's functions apart
from their files and cannot merge a header's lines across objects, so
the script reads gcov's JSON records instead. Functions the compiler
inlined everywhere or never emitted have no record and are not listed.

The report is advisory: the script exits 0 whatever it finds.
"""

import argparse
import collections
import json
import os
import subprocess
import sys


def gcov_records(gcda):
    """Yields the per-file records gcov reports for one object."""
    result = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names", gcda],
        cwd=os.path.dirname(gcda), capture_output=True, text=True,
        check=False)
    for text in result.stdout.splitlines():
        text = text.strip()
        if not text:
            continue
        data = json.loads(text)
        cwd = data.get("current_working_directory", os.path.dirname(gcda))
        for record in data.get("files", []):
            yield os.path.normpath(os.path.join(cwd, record["file"])), record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build", help="coverage build tree, after ctest ran")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's parent)")
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args()

    build = os.path.abspath(args.build)
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src") + os.sep
    gcdas = []
    for dirpath, _, files in os.walk(os.path.join(build, "src")):
        gcdas += [os.path.join(dirpath, f) for f in files
                  if f.endswith(".gcda")]
    if not gcdas:
        print(f"no .gcda files under {build}/src: build with "
              "--coverage and run ctest first", file=sys.stderr)
        return 0

    # file -> line -> executions, summed over objects.
    lines = collections.defaultdict(collections.Counter)
    # (file, start line, name) -> entries, summed over objects.
    functions = collections.Counter()
    for gcda in sorted(gcdas):
        for path, record in gcov_records(gcda):
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            for line in record["lines"]:
                lines[rel][line["line_number"]] += line["count"]
            for fn in record["functions"]:
                name = fn.get("demangled_name", fn["name"])
                if name.startswith("prisma::"):
                    key = (rel, fn["start_line"], name)
                    functions[key] += fn["execution_count"]

    unexecuted = {rel: sum(1 for count in counts.values() if count == 0)
                  for rel, counts in lines.items()}
    report = ["# Unexecuted lines per file"]
    for rel, count in sorted(unexecuted.items(),
                             key=lambda kv: (-kv[1], kv[0])):
        if count > 0:
            report.append(f"{count:>6}  {rel}")
    report.append("")
    report.append("# prisma:: functions no test entered")
    for (rel, start, name), entries in sorted(functions.items()):
        if entries == 0:
            report.append(f"{rel}:{start}: {name}")
    text = "\n".join(report) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
