#!/usr/bin/env python3
"""Docs cross-reference lint (ctest case `check_docs`).

The documentation map (README "Documentation map", DESIGN.md section
index, EXPERIMENTS.md registry) is load-bearing: sources cite design
sections by number and benches emit JSON artifacts that EXPERIMENTS.md
interprets. This check fails the build when any of those links dangle:

  1. every `DESIGN.md §N[.M]` reference in sources, tests, benches,
     examples and the other docs resolves to a real DESIGN.md heading;
  2. every `BENCH_*.json` artifact at the repo root has a matching
     mention in EXPERIMENTS.md (a section interprets it);
  3. every `bench/bench_*.cc` binary appears in the DESIGN.md §3
     experiment index, and every `bench_*` named there exists on disk;
  4. every `BENCH_*.json` name EXPERIMENTS.md mentions has a bench
     source that actually emits it (the string literal appears in some
     bench/bench_*.cc) — no phantom artifacts in the registry;
  5. every `bench_<name> --<flag>` invocation in the docs, sources and
     bench/CMakeLists.txt names a flag the bench parses: its string
     literal ("--<flag>") appears in bench/bench_<name>.cc, or in
     bench/bench_util.h when the bench includes it (`--smoke`). CHANGES.md
     is history and keeps the flags as they were;
  6. every backticked `<Name>Process` in the root documents of the README
     "Documentation map" names a class declared (`class <Name>Process`)
     in src/ — no doc describes a process that is gone. CHANGES.md is
     history, and the frozen vbench/ is not a root document;
  7. every backticked source path in those root documents
     (`gdh/transport.h`, `tests/chaos_test.cc: SomeTest`,
     `gdh/optimizer.cc:64`) names a file that exists, as written or under
     src/ — no doc points at a deleted or moved file;
  8. every backticked `<Name>Request`, `<Name>Reply` or `<Name>Msg` in
     those root documents names a message struct declared
     (`struct <Name>...`) in src/ — no doc describes a message that is
     gone. A name src/ declares as a function (`SendConsumerReply(`) is
     not a message name.

Usage: check_docs.py [repo-root]   (defaults to the parent of scripts/)
"""

import os
import re
import sys


def fail(problems):
    for p in problems:
        print(f"check_docs: {p}")
    print(f"check_docs: FAILED ({len(problems)} problem(s))")
    return 1


def design_sections(design_text):
    """Section numbers declared by DESIGN.md headings: {'3', '10', '10.2', ...}."""
    sections = set()
    for line in design_text.splitlines():
        m = re.match(r"^##\s+(\d+)\.\s", line)
        if m:
            sections.add(m.group(1))
        m = re.match(r"^###\s+(\d+\.\d+)\s", line)
        if m:
            sections.add(m.group(1))
    return sections


def iter_source_files(root):
    scan_dirs = ["src", "tests", "bench", "examples", "tools", "scripts"]
    for d in scan_dirs:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for f in files:
                if f.endswith((".h", ".cc", ".cpp", ".py", ".md", ".txt")):
                    yield os.path.join(dirpath, f)
    for f in os.listdir(root):
        if f.endswith(".md"):
            yield os.path.join(root, f)


# "DESIGN.md §10.2", "`DESIGN.md` §14" — an optional closing backtick may
# sit between the filename and the section sigil.
REF_RE = re.compile(r"DESIGN\.md`?\s*§(\d+(?:\.\d+)?)")


def check_section_refs(root, sections, problems):
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError):
            continue
        for lineno, line in enumerate(lines, 1):
            for m in REF_RE.finditer(line):
                if m.group(1) not in sections:
                    problems.append(
                        f"{rel}:{lineno}: dangling reference DESIGN.md "
                        f"§{m.group(1)} (no such section heading)")


def check_bench_artifacts(root, problems):
    experiments = open(os.path.join(root, "EXPERIMENTS.md"),
                       encoding="utf-8").read()
    for f in sorted(os.listdir(root)):
        if f.startswith("BENCH_") and f.endswith(".json"):
            if f not in experiments:
                problems.append(
                    f"{f}: benchmark artifact has no mention in "
                    f"EXPERIMENTS.md (add the section that interprets it)")


def check_bench_emitters(root, problems):
    experiments = open(os.path.join(root, "EXPERIMENTS.md"),
                       encoding="utf-8").read()
    bench_dir = os.path.join(root, "bench")
    emitted = set()
    for f in os.listdir(bench_dir):
        if f.startswith("bench_") and f.endswith(".cc"):
            src = open(os.path.join(bench_dir, f), encoding="utf-8").read()
            emitted.update(re.findall(r"BENCH_\w+\.json", src))
    for name in sorted(set(re.findall(r"BENCH_\w+\.json", experiments))):
        if name not in emitted:
            problems.append(
                f"EXPERIMENTS.md: mentions {name} but no bench/bench_*.cc "
                f"emits it (write the bench or drop the artifact)")


def check_experiment_index(root, problems):
    design = open(os.path.join(root, "DESIGN.md"), encoding="utf-8").read()
    m = re.search(r"^## 3\.\s.*?(?=^## \d+\.)", design, re.M | re.S)
    if not m:
        problems.append("DESIGN.md: cannot locate the §3 experiment index")
        return
    index = m.group(0)
    on_disk = {f[:-3] for f in os.listdir(os.path.join(root, "bench"))
               if f.startswith("bench_") and f.endswith(".cc")}
    for name in sorted(on_disk):
        if name not in index:
            problems.append(
                f"bench/{name}.cc: not listed in the DESIGN.md §3 "
                f"experiment index")
    for name in sorted(set(re.findall(r"bench_\w+", index))):
        if name not in on_disk:
            problems.append(
                f"DESIGN.md §3: experiment index names {name} but "
                f"bench/{name}.cc does not exist")


# "bench_main_memory --vectorized", "bench_network --loss --smoke".
INVOCATION_RE = re.compile(r"\bbench_(\w+)((?:[ \t]+--[\w-]+)+)")


def check_bench_flags(root, problems):
    bench_dir = os.path.join(root, "bench")
    shared = open(os.path.join(bench_dir, "bench_util.h"),
                  encoding="utf-8").read()
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        if rel == "CHANGES.md":
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError):
            continue
        for lineno, line in enumerate(lines, 1):
            for m in INVOCATION_RE.finditer(line):
                name = "bench_" + m.group(1)
                source = os.path.join(bench_dir, name + ".cc")
                if not os.path.exists(source):
                    problems.append(f"{rel}:{lineno}: {name} is invoked but "
                                    f"bench/{name}.cc does not exist")
                    continue
                text = open(source, encoding="utf-8").read()
                parsed = text + (shared if '"bench_util.h"' in text else "")
                for flag in m.group(2).split():
                    if f'"{flag}"' not in parsed:
                        problems.append(
                            f"{rel}:{lineno}: {name} {flag}: bench/{name}.cc "
                            f"parses no such flag")


# Names inside a backtick span: a process class (`OfmProcess`,
# `QueryProcess::Scatter`, `gdh::GdhProcess`) and a message struct
# (`ExecPlanRequest`, `gdh::TupleBatchMsg`).
PROCESS_RE = re.compile(r"\b([A-Z]\w*Process)\b")
MESSAGE_RE = re.compile(r"\b([A-Z]\w*(?:Request|Reply|Msg))\b")


def root_documents(root):
    """The root documents of the README "Documentation map", CHANGES.md
    (history) excluded."""
    readme = open(os.path.join(root, "README.md"), encoding="utf-8").read()
    docs = re.findall(r"^\| `(\w+\.md)`", readme, re.M)
    return sorted(set(docs) - {"CHANGES.md"})


def backtick_spans(doc_text):
    """Yields (line number, text) of every backtick span. Backticks pair
    up within a paragraph: a span may wrap lines, but blank lines and code
    fences end it."""
    block, start = [], 1
    for lineno, line in enumerate(doc_text.splitlines() + [""], 1):
        if line.strip() and not line.lstrip().startswith("```"):
            if not block:
                start = lineno
            block.append(line)
            continue
        text = "\n".join(block)
        block = []
        for span in re.finditer(r"`([^`]+)`", text):
            yield start + text.count("\n", 0, span.start()), span.group(1)


def check_declared_names(root, problems):
    """Rules 6 and 8: backticked process and message names are declared."""
    classes, structs, functions = set(), set(), set()
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith((".h", ".cc")):
                text = open(os.path.join(dirpath, f), encoding="utf-8").read()
                classes.update(re.findall(r"\bclass\s+(\w+Process)\b", text))
                structs.update(re.findall(r"\bstruct\s+(\w+)\b", text))
                functions.update(re.findall(r"\b(\w+)\(", text))
    for doc in root_documents(root):
        doc_text = open(os.path.join(root, doc), encoding="utf-8").read()
        for at, span in backtick_spans(doc_text):
            for name in PROCESS_RE.findall(span):
                if name not in classes:
                    problems.append(
                        f"{doc}:{at}: `{name}` is not declared "
                        f"(class {name}) anywhere in src/")
            for name in MESSAGE_RE.findall(span):
                if name not in structs and name not in functions:
                    problems.append(
                        f"{doc}:{at}: `{name}` is not declared "
                        f"(struct {name}) anywhere in src/")


# A whole backtick span naming a source file by a relative path, maybe
# followed by a line reference or a test name: `gdh/stage.h`,
# `gdh/optimizer.cc:64`, `tests/chaos_test.cc: LinkDownMidShuffle...`.
SOURCE_PATH_RE = re.compile(
    r"^([\w.-]+(?:/[\w.-]+)+\.(?:h|cc|py|txt))(?::.*)?$", re.S)


def check_source_paths(root, problems):
    for doc in root_documents(root):
        doc_text = open(os.path.join(root, doc), encoding="utf-8").read()
        for at, span in backtick_spans(doc_text):
            m = SOURCE_PATH_RE.match(span.strip())
            if not m:
                continue
            path = m.group(1)
            if not (os.path.isfile(os.path.join(root, path)) or
                    os.path.isfile(os.path.join(root, "src", path))):
                problems.append(
                    f"{doc}:{at}: `{path}` names no file (neither {path} "
                    f"nor src/{path} exists)")


def main():
    root = os.path.abspath(
        sys.argv[1] if len(sys.argv) > 1
        else os.path.join(os.path.dirname(__file__), os.pardir))
    problems = []
    design = open(os.path.join(root, "DESIGN.md"), encoding="utf-8").read()
    check_section_refs(root, design_sections(design), problems)
    check_bench_artifacts(root, problems)
    check_bench_emitters(root, problems)
    check_experiment_index(root, problems)
    check_bench_flags(root, problems)
    check_declared_names(root, problems)
    check_source_paths(root, problems)
    if problems:
        return fail(problems)
    print("check_docs: OK (section references, bench artifacts, the "
          "experiment index, bench flags, process and message names and "
          "source paths are in sync)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
