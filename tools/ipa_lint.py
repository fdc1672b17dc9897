#!/usr/bin/env python3
"""ipa-lint: source-level concurrency and hygiene checks for the IPA tree.

The third layer of the concurrency-contract tooling (see
docs/static-analysis.md): Clang thread-safety analysis proves lock/field
relationships at compile time, the lock-rank runtime catches ordering
inversions, and this linter enforces the invariants neither can see —
that all locking goes *through* src/common/sync.hpp in the first place,
and a few project hygiene rules.

Rules (each suppressible, see below):

  raw-mutex           std::mutex / std::shared_mutex / std::recursive_mutex /
                      std::condition_variable[_any] / std::lock_guard /
                      std::unique_lock / std::shared_lock / std::scoped_lock
                      anywhere except src/common/sync.hpp|sync.cpp. Raw
                      primitives bypass both the thread-safety annotations
                      and the lock-rank checker.
  detach              std::thread/jthread .detach() — detached threads
                      outlive their state and race shutdown.
  blocking-under-lock a blocking call (RPC invoke, send_all/write_all,
                      ::connect, sleep_for, read_exact/read_some) lexically
                      inside a LockGuard/UniqueLock scope. Holding a lock
                      across the network turns one slow peer into a pile-up.
  wallclock           std::chrono::system_clock::now() outside
                      common/clock.cpp — all timing goes through ipa::Clock
                      so gridsim/ManualClock tests stay deterministic.
  include-guard       a .hpp file without #pragma once.
  sleep-sync          sleep_for / this_thread::yield in tests/ — sleeping is
                      not synchronization: a sleep that "waits for" another
                      thread is a race with a timer attached, and makes the
                      suite slow on fast machines and flaky on loaded ones.
                      Wait on a CondVar, future, or polling deadline loop
                      instead. Unlike other rules, an allow() for this one
                      must carry a reason after the marker, e.g.
                      `// ipa-lint: allow(sleep-sync) -- paces the writer, not sync`.
  raw-thread          constructing a std::thread / std::jthread (a temporary,
                      a named variable, or a container of them) in src/
                      outside the blessed owners: the pool
                      (common/thread_pool.*), the reactor loop, the model
                      checker and the load generator.
                      Everything else posts to a ThreadPool or a reactor, so
                      the site keeps one executor.
  metric-name         a Registry counter()/gauge()/histogram() registration
                      whose literal name breaks the conventions: counters
                      end in _total; histograms end in a unit suffix
                      (_seconds/_records/_bytes); gauges never end in _total;
                      nothing ends in the reserved exposition suffixes
                      _bucket/_sum/_count; label literals sorted by key
                      (the registry sorts at render time — unsorted literals
                      make grep and the rendered output disagree).
  metric-inventory    the metric inventory table in docs/observability.md
                      disagrees with src/: an ipa_* family registered under
                      src/ that the table omits, a table row naming a family
                      nothing registers, or a row whose type is not the one
                      registered. A tree-level rule: it reads every src/ file
                      and the doc, so it has no per-line suppression.

Suppressions: a comment `// ipa-lint: allow(rule)` on the violating line or
the line above suppresses one finding. For blocking-under-lock the comment
may also sit on (or directly above) the lock declaration that opens the
scope, blessing the whole critical section — that is the idiom for channel
locks whose entire point is to serialize wire traffic.
`// ipa-lint: skip-file(rule)` anywhere in a file suppresses the rule for
the whole file; `skip-file(*)` skips the file entirely.

Usage:
  tools/ipa_lint.py [--root DIR]       lint src/ and tests/ (exit 1 on findings)
  tools/ipa_lint.py --self-test        run each tests/lint/fixtures sample and
                                       require exactly its named rule to fire
"""

import argparse
import os
import re
import sys

RULES = ("raw-mutex", "detach", "blocking-under-lock", "wallclock", "include-guard",
         "metric-name", "sleep-sync", "raw-thread", "metric-inventory")

# Files allowed to use raw std primitives: the wrapper itself.
RAW_MUTEX_ALLOWED = {
    os.path.join("src", "common", "sync.hpp"),
    os.path.join("src", "common", "sync.cpp"),
}
# The one blessed wall-clock site.
WALLCLOCK_ALLOWED = {os.path.join("src", "common", "clock.cpp")}
# The only src/ files that may start threads of their own.
RAW_THREAD_ALLOWED = {
    os.path.join("src", "common", "thread_pool.hpp"),
    os.path.join("src", "common", "thread_pool.cpp"),
    os.path.join("src", "net", "reactor.cpp"),
    os.path.join("src", "common", "sched_test.cpp"),
    os.path.join("src", "loadgen", "loadgen.cpp"),
}

RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)
DETACH_RE = re.compile(r"\.detach\s*\(")
# A thread temporary (`std::jthread(...)`), a named one (`std::thread t(...)`)
# or a container of them; a bare `std::jthread member_;` starts nothing.
RAW_THREAD_RE = re.compile(
    r"std::j?thread\s*[({]|std::j?thread\s+\w+\s*[({]|<\s*std::j?thread\s*>"
)
WALLCLOCK_RE = re.compile(r"system_clock\s*::\s*now")
# Lock-scope openers for blocking-under-lock: the annotated guards plus the
# raw std ones (so a file that also violates raw-mutex still gets scoped).
LOCK_DECL_RE = re.compile(
    r"\b(?:ipa::)?(?:LockGuard|UniqueLock|WriterLock|ReaderLock)\s+\w+\s*[({]"
    r"|std::(?:lock_guard|unique_lock|scoped_lock)\s*(?:<[^;]*>)?\s+\w+\s*[({]"
)
BLOCKING_RES = (
    re.compile(r"\binvoke\s*\("),
    re.compile(r"\bsend_all\s*\("),
    re.compile(r"\bwrite_all\s*\("),
    re.compile(r"\bread_exact\s*\("),
    re.compile(r"\bread_some\s*\("),
    re.compile(r"(?<![A-Za-z0-9_])::connect\s*\("),  # bare ::connect, not net::connect
    re.compile(r"\bsleep_for\s*\("),
)
# Metric registrations: kind + literal name, labels scanned in a small
# window after the call (registrations put labels right after the name).
METRIC_CALL_RE = re.compile(r"\b(counter|gauge|histogram)\s*\(\s*\"(ipa_[A-Za-z0-9_]*)\"")
METRIC_LABEL_RE = re.compile(r"\{\s*\"([A-Za-z_][A-Za-z0-9_]*)\"\s*,")
# metric-inventory: the documented table, one row per family:
# | layer | `ipa_name` | type ... | labels |
INVENTORY_DOC = os.path.join("docs", "observability.md")
INVENTORY_ROW_RE = re.compile(r"^\|[^|]*\|\s*`(ipa_[A-Za-z0-9_]+)`\s*\|\s*([a-z]+)")
HISTOGRAM_SUFFIXES = ("_seconds", "_records", "_bytes")
RESERVED_SUFFIXES = ("_bucket", "_sum", "_count")
SLEEP_SYNC_RES = (
    re.compile(r"\bsleep_for\s*\("),
    re.compile(r"\bsleep_until\s*\("),
    re.compile(r"this_thread\s*::\s*yield\s*\("),
)
ALLOW_RE = re.compile(r"ipa-lint:\s*allow\(([a-z*-]+)\)")
# sleep-sync allows must justify themselves: marker plus a non-empty reason.
ALLOW_REASON_RE = re.compile(r"ipa-lint:\s*allow\(([a-z*-]+)\)\s*(?:--|:)?\s*(\S.+)")
SKIP_FILE_RE = re.compile(r"ipa-lint:\s*skip-file\(([a-z*-]+)\)")

SOURCE_EXTS = (".hpp", ".cpp", ".h", ".cc")


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def strip_comment(line):
    """Code portion of a line (string-literal '//' is rare enough to ignore)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def allowed(lines, i, rule):
    """True when line i (0-based) carries an allow() for `rule`, or one sits
    in the contiguous comment block directly above it."""
    m = ALLOW_RE.search(lines[i])
    if m and m.group(1) in (rule, "*"):
        return True
    j = i - 1
    while j >= 0 and lines[j].lstrip().startswith("//"):
        m = ALLOW_RE.search(lines[j])
        if m and m.group(1) in (rule, "*"):
            return True
        j -= 1
    return False


def allowed_with_reason(lines, i, rule):
    """Like allowed(), but the marker must be followed by a written reason
    (sleep-sync: every surviving sleep documents why it is not sync)."""
    for j in range(i, -1, -1):
        if j < i and not lines[j].lstrip().startswith("//"):
            break
        m = ALLOW_REASON_RE.search(lines[j])
        if m and m.group(1) in (rule, "*"):
            return True
    return False


def lint_file(path, rel, lines):
    findings = []
    skip = set()
    for line in lines:
        m = SKIP_FILE_RE.search(line)
        if m:
            skip.add(m.group(1))
    if "*" in skip:
        return findings

    is_header = rel.endswith((".hpp", ".h"))
    if (
        is_header
        and "include-guard" not in skip
        and not any(line.lstrip().startswith("#pragma once") for line in lines)
    ):
        findings.append(Finding(rel, 1, "include-guard", "header missing '#pragma once'"))

    # Brace-tracked lexical lock scopes: (depth_at_entry, scope_allowed).
    lock_scopes = []
    depth = 0
    for i, raw in enumerate(lines):
        line_no = i + 1
        code = strip_comment(raw)

        if (
            "raw-mutex" not in skip
            and rel not in RAW_MUTEX_ALLOWED
            and RAW_MUTEX_RE.search(code)
            and not allowed(lines, i, "raw-mutex")
        ):
            findings.append(
                Finding(rel, line_no, "raw-mutex",
                        "raw std sync primitive; use ipa::Mutex/LockGuard from "
                        "common/sync.hpp (annotated + rank-checked)")
            )

        if "detach" not in skip and DETACH_RE.search(code) and not allowed(lines, i, "detach"):
            findings.append(
                Finding(rel, line_no, "detach",
                        "detached thread; keep a jthread handle so shutdown can join")
            )

        if (
            "raw-thread" not in skip
            and rel.startswith("src" + os.sep)
            and rel not in RAW_THREAD_ALLOWED
            and RAW_THREAD_RE.search(code)
            and not allowed(lines, i, "raw-thread")
        ):
            findings.append(
                Finding(rel, line_no, "raw-thread",
                        "thread started outside the pool; post to a ThreadPool "
                        "(common/thread_pool.hpp) or a net::Reactor instead")
            )

        if (
            "wallclock" not in skip
            and rel not in WALLCLOCK_ALLOWED
            and WALLCLOCK_RE.search(code)
            and not allowed(lines, i, "wallclock")
        ):
            findings.append(
                Finding(rel, line_no, "wallclock",
                        "system_clock::now outside common/clock.cpp; go through "
                        "ipa::Clock so virtual-time tests stay deterministic")
            )

        if (
            "sleep-sync" not in skip
            and rel.startswith("tests" + os.sep)
        ):
            for rx in SLEEP_SYNC_RES:
                if rx.search(code) and not allowed_with_reason(lines, i, "sleep-sync"):
                    findings.append(
                        Finding(rel, line_no, "sleep-sync",
                                "sleep/yield in a test is not synchronization; "
                                "wait on a CondVar/future/deadline poll, or add "
                                "'// ipa-lint: allow(sleep-sync) -- <reason>'")
                    )
                    break

        if "metric-name" not in skip:
            # A registration may wrap (name on this line, labels on the
            # next); scan a 3-line window but only report matches that
            # start on this line, so wrapped calls aren't double-counted.
            window = " ".join(strip_comment(l) for l in lines[i:i + 3])
            for m in METRIC_CALL_RE.finditer(window):
                if m.start() >= len(code):
                    break
                if allowed(lines, i, "metric-name"):
                    break
                kind, name = m.group(1), m.group(2)
                problem = None
                if name.endswith(RESERVED_SUFFIXES):
                    problem = (f"'{name}' ends in a reserved exposition suffix "
                               "(_bucket/_sum/_count are generated at render time)")
                elif kind == "counter" and not name.endswith("_total"):
                    problem = f"counter '{name}' must end in _total"
                elif kind == "histogram" and not name.endswith(HISTOGRAM_SUFFIXES):
                    problem = (f"histogram '{name}' needs a unit suffix "
                               "(_seconds, _records or _bytes)")
                elif kind == "gauge" and name.endswith("_total"):
                    problem = f"gauge '{name}' must not end in _total (counters do)"
                if problem is None:
                    rest = window[m.end():]
                    block = re.match(r"\s*,\s*\{\{", rest)
                    if block:
                        end = rest.find("}}")
                        if end >= 0:
                            keys = METRIC_LABEL_RE.findall(rest[block.start():end])
                            if keys != sorted(keys):
                                problem = (f"'{name}' label literals {keys} not "
                                           "sorted by key (registry renders sorted)")
                if problem:
                    findings.append(Finding(rel, line_no, "metric-name", problem))

        if "blocking-under-lock" not in skip:
            if LOCK_DECL_RE.search(code):
                scope_allowed = allowed(lines, i, "blocking-under-lock")
                lock_scopes.append((depth, scope_allowed))
            elif lock_scopes and not lock_scopes[-1][1]:
                for rx in BLOCKING_RES:
                    if rx.search(code) and not allowed(lines, i, "blocking-under-lock"):
                        findings.append(
                            Finding(rel, line_no, "blocking-under-lock",
                                    f"blocking call '{rx.pattern}' inside a lock "
                                    "scope; move the I/O outside the critical "
                                    "section or bless the scope explicitly")
                        )
                        break

        # Track braces after the checks so a lock declared on this line sees
        # the depth at its declaration point.
        depth += code.count("{") - code.count("}")
        while lock_scopes and depth < lock_scopes[-1][0]:
            lock_scopes.pop()

    return findings


def registered_metrics(path, rel):
    """{family: (kind, rel, line)} for every literal Registry registration in
    one file; the name may sit on the line after the call."""
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    found = {}
    for m in METRIC_CALL_RE.finditer(text):
        line_no = text.count("\n", 0, m.start()) + 1
        found.setdefault(m.group(2), (m.group(1), rel, line_no))
    return found


def documented_metrics(path, rel):
    """{family: (kind, rel, line)} for every inventory table row of a doc."""
    documented = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            m = INVENTORY_ROW_RE.match(line)
            if m:
                documented.setdefault(m.group(1), (m.group(2), rel, line_no))
    return documented


def inventory_findings(registered, documented, doc_rel):
    findings = []
    for name, (kind, rel, line_no) in sorted(registered.items()):
        row = documented.get(name)
        if row is None:
            findings.append(Finding(rel, line_no, "metric-inventory",
                                    f"{kind} '{name}' is registered but missing from "
                                    f"the metric inventory in {doc_rel}"))
        elif row[0] != kind:
            findings.append(Finding(row[1], row[2], "metric-inventory",
                                    f"'{name}' is listed as a {row[0]} but registered "
                                    f"as a {kind} ({rel}:{line_no})"))
    for name, (kind, rel, line_no) in sorted(documented.items()):
        if name not in registered:
            findings.append(Finding(rel, line_no, "metric-inventory",
                                    f"'{name}' is listed but nothing under src/ "
                                    "registers it"))
    return findings


def walk(root, subdirs, exclude_prefixes):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                if any(rel.startswith(p) for p in exclude_prefixes):
                    continue
                yield path, rel


def lint_tree(root):
    findings = []
    fixture_prefix = os.path.join("tests", "lint", "fixtures")
    registered = {}
    for path, rel in walk(root, ("src", "tests"), (fixture_prefix,)):
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        findings.extend(lint_file(path, rel, lines))
        if rel.startswith("src" + os.sep):
            for name, where in registered_metrics(path, rel).items():
                registered.setdefault(name, where)
    doc = os.path.join(root, INVENTORY_DOC)
    findings.extend(inventory_findings(registered, documented_metrics(doc, INVENTORY_DOC),
                                       INVENTORY_DOC))
    return findings


def self_test(root):
    """Each fixture file is named <rule>[_*].cpp/.hpp and must trigger exactly
    that rule (and no other)."""
    fixture_dir = os.path.join(root, "tests", "lint", "fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"ipa-lint self-test: no fixture dir at {fixture_dir}", file=sys.stderr)
        return 1
    failures = 0
    ran = 0
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith(SOURCE_EXTS):
            continue
        stem = name.rsplit(".", 1)[0]
        rule = next((r for r in RULES if stem == r.replace("-", "_") or
                     stem.startswith(r.replace("-", "_") + "_")), None)
        if rule is None:
            print(f"self-test: fixture '{name}' names no known rule", file=sys.stderr)
            failures += 1
            continue
        ran += 1
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        # Lint fixtures as if they lived under src/ so path-based allowances
        # (sync.hpp, clock.cpp) don't apply — except sleep-sync, which only
        # fires under tests/, so its fixtures lint from there.
        base = "tests" if rule == "sleep-sync" else "src"
        rel = os.path.join(base, "fixture", name)
        got = {f.rule for f in lint_file(path, rel, lines)}
        if rule == "metric-inventory":
            # A fixture pairs with <stem>.md, its stand-in inventory doc.
            doc_rel = os.path.join("docs", stem + ".md")
            got |= {f.rule for f in inventory_findings(
                registered_metrics(path, rel),
                documented_metrics(os.path.join(fixture_dir, stem + ".md"), doc_rel),
                doc_rel)}
        # Headers double as include-guard checks; a .cpp fixture can't trip it.
        expected = {rule}
        if got != expected:
            print(f"self-test FAIL: {name}: expected {sorted(expected)}, got {sorted(got) or '{}'}",
                  file=sys.stderr)
            failures += 1
    if ran == 0:
        print("self-test: no fixtures found", file=sys.stderr)
        return 1
    if failures:
        return 1
    print(f"ipa-lint self-test: {ran} fixtures OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="repo root (default: script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each tests/lint/fixtures sample trips exactly its rule")
    args = parser.parse_args()

    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return self_test(root)

    findings = lint_tree(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"ipa-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ipa-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
