#!/usr/bin/env python3
"""ipa-analyze: whole-program static lock-graph analysis for the IPA tree.

Where ipa_lint.py is a line-level linter and Clang's -Wthread-safety only
fires under clang, this tool gives every build — gcc included — static,
cross-translation-unit coverage of the locking discipline. It tokenizes
every C++ file under src/, reconstructs the *acquires-while-holding* lock
graph, and reports ordering bugs before any schedule happens to hit them.

What it extracts:

  * Mutex construction sites — `ipa::Mutex` / `ipa::SharedMutex` members,
    globals and `make_unique<Mutex>` fields, with their `LockRank`
    assignment and human label.
  * Lock scopes — nested `LockGuard` / `UniqueLock` / `ReaderLock` /
    `WriterLock` declarations, brace-tracked per function, resolved back
    to the mutex they lock (member lookup first, then file scope, then a
    unique program-wide name).
  * Direct callee expansion, one level deep — a call under a held lock to
    a function that itself acquires a lock (or blocks) contributes edges
    and findings, across translation units. Calls whose name is ambiguous
    across the program are skipped rather than guessed.

What it reports (each finding kind suppressible, see below):

  rank-inversion       an acquires-while-holding edge whose acquired rank
                       is not strictly below the held rank (equal ranks
                       self-deadlock on a non-recursive mutex). This is the
                       static form of the runtime lock-rank abort.
  lock-cycle           a cycle in the acquires-while-holding graph — the
                       classic ABBA deadlock shape, reported even between
                       unranked mutexes the runtime checker would wave
                       through.
  unranked-mutex       a Mutex/SharedMutex constructed without a LockRank:
                       invisible to both the runtime checker and this
                       tool's ordering analysis.
  blocking-under-lock  a blocking call (CondVar wait with another lock
                       still held, pool submit, queue push/pop, socket or
                       RPC send/receive, sleep) reachable while a lock is
                       held — directly or through one level of callee.

Suppressions: `// ipa-analyze: allow(kind)` on the finding line or the
contiguous comment block above it; on a lock-declaration line it blesses
blocking findings for that whole scope. Existing
`// ipa-lint: allow(blocking-under-lock)` comments are honored for the
blocking rule so the two tools share one set of blessed sites.
`// ipa-analyze: skip-file(kind|*)` skips a whole file.

Usage:
  tools/ipa_analyze.py [--root DIR]       analyze src/ (exit 1 on findings)
  tools/ipa_analyze.py --dot FILE         also emit the lock graph as Graphviz
  tools/ipa_analyze.py --self-test        each tests/analyze/fixtures sample
                                          must trip exactly its named kind
"""

import argparse
import os
import re
import sys

KINDS = ("rank-inversion", "lock-cycle", "unranked-mutex", "blocking-under-lock")

# LockRank values, mirrored from src/common/sync.hpp (the self-test fixture
# rank_mirror guard in tests/analyze asserts these stay in sync).
LOCK_RANKS = {
    "kUnranked": 0,
    "kIds": 10,
    "kLog": 20,
    "kFlight": 25,
    "kMetrics": 30,
    "kTrace": 40,
    "kRegistry": 50,
    "kTransport": 70,
    "kReactor": 72,
    "kReactorStream": 74,
    "kWorkerPool": 90,  # ipa::ThreadPool queue and workers (site and server pools)
    "kServer": 100,
    "kChannel": 110,
    "kEngine": 130,
    "kEngineRun": 135,
    "kAida": 140,
    "kSession": 150,
    "kResourceSet": 160,
    "kManager": 170,
    "kLoadStats": 180,
    "kLoadDriver": 190,
}

GUARD_TYPES = ("LockGuard", "UniqueLock", "ReaderLock", "WriterLock")

# Calls that park the calling thread: waiting on a condition, handing work to
# a bounded pool/queue, or touching the network. `wait`/`wait_for` are exempt
# when exactly one lock is held — a CondVar wait releases the lock it waits
# on, so the single-lock form is the canonical idiom, while waiting with a
# *second* lock still held blocks every other user of that outer lock.
CV_WAITS = {"wait", "wait_for"}
BLOCKING_CALLS = {
    "wait": "condition wait",
    "wait_for": "condition wait",
    "submit": "pool submit",
    "push": "bounded-queue push",
    "pop": "bounded-queue pop",
    "pop_for": "bounded-queue pop",
    "send_all": "socket send",
    "write_all": "socket send",
    "read_exact": "socket read",
    "read_some": "socket read",
    "receive": "transport receive",
    "invoke": "RPC invoke",
    "connect": "socket connect",
    "sleep_for": "sleep",
}
# Names never expanded as callees: control flow, casts, the sync primitives
# themselves, and ubiquitous std/container methods that would alias across
# the program.
NO_EXPAND = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "assert",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "lock", "unlock", "try_lock", "lock_shared", "unlock_shared", "native",
    "notify_one", "notify_all", "owns_lock",
    "move", "forward", "swap", "get", "reset", "release", "emplace",
    "emplace_back", "push_back", "pop_back", "push_front", "pop_front",
    "insert", "erase", "find", "count", "begin", "end", "size", "empty",
    "clear", "reserve", "resize", "at", "front", "back", "data", "c_str",
    "str", "substr", "append", "assign", "compare", "load", "store",
    "exchange", "fetch_add", "fetch_sub", "compare_exchange_strong",
    "compare_exchange_weak", "make_shared", "make_unique", "make_pair",
    "to_string", "format", "snprintf", "min", "max", "abs", "defined",
}

SOURCE_EXTS = (".hpp", ".cpp", ".h", ".cc")

ALLOW_RE = re.compile(r"ipa-analyze:\s*allow\(([a-z*-]+)\)")
LINT_ALLOW_RE = re.compile(r"ipa-lint:\s*allow\(blocking-under-lock\)")
SKIP_FILE_RE = re.compile(r"ipa-analyze:\s*skip-file\(([a-z*-]+)\)")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lcomment>//[^\n]*)
  | (?P<bcomment>/\*.*?\*/)
  | (?P<str>"(?:[^"\\\n]|\\.)*")
  | (?P<chr>'(?:[^'\\\n]|\\.)*')
  | (?P<num>\.?\d(?:[\w.]|[eEpP][+-])*)
  | (?P<id>[A-Za-z_]\w*)
  | (?P<punct>->|::|<<=|>>=|<=>|\.\.\.|[-+*/%^&|!=<>]=|&&|\|\||\+\+|--|->\*|[{}()\[\];,.<>:=+\-*/%&|^!?~#])
    """,
    re.VERBOSE | re.DOTALL,
)


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


def tokenize(source):
    """C++ tokens (comments dropped, preprocessor lines skipped)."""
    toks = []
    line = 1
    pos = 0
    at_line_start = True
    n = len(source)
    while pos < n:
        m = TOKEN_RE.match(source, pos)
        if not m:
            pos += 1  # stray byte; skip
            continue
        text = m.group(0)
        kind = m.lastgroup
        if at_line_start and text.lstrip().startswith("#"):
            # Preprocessor directive: consume to end of line (honoring
            # continuations) without emitting tokens.
            end = pos
            while end < n:
                nl = source.find("\n", end)
                if nl < 0:
                    end = n
                    break
                if source[nl - 1] == "\\":
                    end = nl + 1
                    continue
                end = nl
                break
            line += source.count("\n", pos, end)
            pos = end
            continue
        if kind not in ("ws", "lcomment", "bcomment"):
            toks.append(Tok(kind, text, line))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            at_line_start = True
        elif kind == "ws" or kind in ("lcomment", "bcomment"):
            if "\n" in text:
                at_line_start = True
        else:
            at_line_start = False
        if "\n" not in text and kind not in ("ws",):
            at_line_start = False
        pos = m.end()
    return toks


# ---------------------------------------------------------------------------
# Parsed program model
# ---------------------------------------------------------------------------


class MutexDecl:
    """One Mutex/SharedMutex construction site."""

    def __init__(self, uid, owner, var, rank_name, label, path, line):
        self.uid = uid          # "Owner::var" or "<file>::var"
        self.owner = owner      # enclosing class name or None
        self.var = var
        self.rank_name = rank_name  # "kSession" or None (unranked)
        self.label = label or var
        self.path = path
        self.line = line

    @property
    def rank(self):
        if self.rank_name is None:
            return None
        return LOCK_RANKS.get(self.rank_name)


class FuncInfo:
    """One function definition's locking-relevant behaviour."""

    def __init__(self, name, owner, path, line):
        self.name = name        # unqualified
        self.owner = owner      # class name or None
        self.path = path
        self.line = line
        # Ordered events: ("acquire", mutex_expr, depth, line, blessed)
        #                 ("call", name, via_member, depth, line, allowed)
        #                 ("scope_end", depth)
        self.events = []
        # Filled in by the program-level pass:
        self.acquires = []      # [(MutexDecl, line)]
        self.blocking = []      # [(call_name, desc, line, min_locks_held)]


class LockScope:
    """One live guard inside a function walk. `active` toggles with explicit
    UniqueLock unlock()/lock() calls on the guard variable."""

    __slots__ = ("mutex", "depth", "blessed", "line", "guard_var", "active")

    def __init__(self, mutex, depth, blessed, line, guard_var):
        self.mutex = mutex
        self.depth = depth
        self.blessed = blessed
        self.line = line
        self.guard_var = guard_var
        self.active = True


def held_count(stack):
    return sum(1 for s in stack if s.active)


def toggle_guard(stack, name, via_member, obj):
    """Handle `guard.unlock()` / `guard.lock()` on a tracked UniqueLock.
    Returns True when the call was a guard toggle (and is thus consumed)."""
    if not via_member or name not in ("unlock", "lock"):
        return False
    for scope in reversed(stack):
        if scope.guard_var == obj:
            scope.active = (name == "lock")
            return True
    return False


class Finding:
    def __init__(self, path, line, kind, message):
        self.path = path
        self.line = line
        self.kind = kind
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.kind}] {self.message}"


class FileFacts:
    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        self.mutexes = []       # MutexDecl at file scope or class scope
        self.functions = []     # FuncInfo
        self.allow_lines = {}   # line -> set(kinds)
        self.skip = set()


# ---------------------------------------------------------------------------
# Per-file parsing
# ---------------------------------------------------------------------------


def collect_comments(source):
    """Map line -> set of allowed kinds, honoring contiguous comment blocks
    (an allow directly above a line covers that line, like ipa-lint)."""
    allow = {}
    skip = set()
    lines = source.splitlines()
    for i, raw in enumerate(lines):
        line_no = i + 1
        for m in ALLOW_RE.finditer(raw):
            allow.setdefault(line_no, set()).add(m.group(1))
        if LINT_ALLOW_RE.search(raw):
            allow.setdefault(line_no, set()).add("blocking-under-lock")
        m = SKIP_FILE_RE.search(raw)
        if m:
            skip.add(m.group(1))
    # Propagate comment-block allowances downward onto the first code line.
    propagated = {}
    for i, raw in enumerate(lines):
        line_no = i + 1
        stripped = raw.strip()
        if line_no in allow and stripped.startswith("//"):
            j = i + 1
            while j < len(lines) and lines[j].strip().startswith("//"):
                j += 1
            if j < len(lines):
                propagated.setdefault(j + 1, set()).update(allow[line_no])
    for line_no, kinds in propagated.items():
        allow.setdefault(line_no, set()).update(kinds)
    return allow, skip


def line_allows(facts, line, kind):
    kinds = facts.allow_lines.get(line, ())
    return kind in kinds or "*" in kinds


class Parser:
    """Brace-tracked scan of one file's token stream."""

    def __init__(self, facts, toks):
        self.facts = facts
        self.toks = toks
        self.i = 0
        # Scope stack entries: (kind, name) where kind is ns/class/func/block
        self.scopes = []

    def peek(self, off=0):
        j = self.i + off
        return self.toks[j] if j < len(self.toks) else None

    def enclosing_class(self):
        for kind, name in reversed(self.scopes):
            if kind == "class":
                return name
        return None

    def skip_balanced(self, open_t, close_t):
        """self.i sits on open_t; advance past its matching close."""
        depth = 0
        while self.i < len(self.toks):
            t = self.toks[self.i].text
            if t == open_t:
                depth += 1
            elif t == close_t:
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return
            self.i += 1

    def parse(self):
        while self.i < len(self.toks):
            t = self.toks[self.i]
            if t.kind == "id" and t.text == "namespace":
                self.parse_namespace()
            elif t.kind == "id" and t.text in ("class", "struct"):
                if not self.parse_class():
                    self.i += 1
            elif t.kind == "id" and t.text == "enum":
                self.skip_enum()
            elif t.text == "{":
                self.scopes.append(("block", ""))
                self.i += 1
            elif t.text == "}":
                if self.scopes:
                    self.scopes.pop()
                self.i += 1
            else:
                if not (self.try_mutex_decl() or self.try_function()):
                    self.i += 1

    def parse_namespace(self):
        # namespace a::b { ... }  |  namespace { ... }
        self.i += 1
        name_parts = []
        while self.peek() and self.peek().text not in ("{", ";", "="):
            if self.peek().kind == "id":
                name_parts.append(self.peek().text)
            self.i += 1
        if self.peek() and self.peek().text == "{":
            self.scopes.append(("ns", "::".join(name_parts)))
            self.i += 1
        elif self.peek():
            self.i += 1  # alias or declaration

    def parse_class(self):
        """Returns True when a class body was entered (or the decl consumed)."""
        start = self.i
        self.i += 1
        name = None
        while self.peek():
            t = self.peek()
            if t.kind == "id" and t.text not in ("final", "alignas"):
                name = t.text
                self.i += 1
            elif t.text == "[":  # attribute
                self.skip_balanced("[", "]")
            else:
                break
        # Skip template args on the name and base-clause until { or ;
        while self.peek() and self.peek().text not in ("{", ";"):
            if self.peek().text == "<":
                self.skip_template_args()
            else:
                self.i += 1
        if self.peek() is None:
            return True
        if self.peek().text == ";":
            self.i += 1  # forward declaration
            return True
        if name is None:
            self.i = start
            return False
        self.scopes.append(("class", name))
        self.i += 1  # consume {
        return True

    def skip_template_args(self):
        depth = 0
        while self.i < len(self.toks):
            t = self.toks[self.i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return
            elif t in (";", "{"):
                return  # not template args after all
            self.i += 1

    def skip_enum(self):
        while self.peek() and self.peek().text not in ("{", ";"):
            self.i += 1
        if self.peek() and self.peek().text == "{":
            self.skip_balanced("{", "}")
        elif self.peek():
            self.i += 1

    # -- mutex declarations -------------------------------------------------

    def try_mutex_decl(self):
        """Mutex m_{LockRank::kX, "label"};  |  Mutex m_;  |
        std::unique_ptr<Mutex> m_ = std::make_unique<Mutex>(LockRank::kX, ...);
        Only at class/namespace/file scope (locals handled as scopes)."""
        t = self.peek()
        if t is None or t.kind != "id":
            return False
        j = self.i
        toks = self.toks

        def tx(k):
            return toks[k].text if k < len(toks) else ""

        # unique_ptr<Mutex> form
        if t.text == "unique_ptr" and tx(j + 1) == "<" and tx(j + 2) in ("Mutex", "SharedMutex"):
            k = j + 3
            if tx(k) != ">":
                return False
            k += 1
            if k >= len(toks) or toks[k].kind != "id":
                return False
            var = toks[k].text
            line = toks[k].line
            # scan forward to ; capturing LockRank::kX and a string label
            rank_name, label = self.scan_init(k, stop=";")
            self.add_mutex(var, rank_name, label, line)
            while self.i < len(toks) and toks[self.i].text != ";":
                self.i += 1
            self.i += 1
            return True

        if t.text not in ("Mutex", "SharedMutex"):
            return False
        # Not a declaration if preceded by :: (e.g. ipa::Mutex handled by
        # lookbehind: previous token '::' means qualified use -> still fine,
        # the id before that was 'ipa'). Reject 'class Mutex' definitions.
        if self.i > 0 and toks[self.i - 1].text in ("class", "struct", "<"):
            return False
        k = j + 1
        if k >= len(toks) or toks[k].kind != "id":
            return False
        var = toks[k].text
        nxt = tx(k + 1)
        if nxt not in ("{", ";", "="):
            return False
        line = toks[k].line
        rank_name, label = (None, None)
        if nxt == "{":
            rank_name, label = self.scan_init(k, stop=";")
        self.add_mutex(var, rank_name, label, line)
        while self.i < len(toks) and toks[self.i].text != ";":
            self.i += 1
        self.i += 1
        return True

    def scan_init(self, from_idx, stop):
        """Scan tokens from from_idx to `stop` for LockRank::kX and a string."""
        rank_name = None
        label = None
        k = from_idx
        toks = self.toks
        while k < len(toks) and toks[k].text != stop:
            if (toks[k].text == "LockRank" and k + 2 < len(toks)
                    and toks[k + 1].text == "::"):
                rank_name = toks[k + 2].text
            elif toks[k].kind == "str" and label is None:
                label = toks[k].text.strip('"')
            k += 1
        return rank_name, label

    def add_mutex(self, var, rank_name, label, line):
        owner = self.enclosing_class()
        scope = owner if owner else f"<{os.path.basename(self.facts.rel)}>"
        uid = f"{scope}::{var}"
        self.facts.mutexes.append(
            MutexDecl(uid, owner, var, rank_name, label, self.facts.rel, line))

    # -- function definitions ------------------------------------------------

    def try_function(self):
        """Detect `name(args) [quals] [: init-list] {` and parse the body."""
        t = self.peek()
        if t is None or t.kind != "id" or t.text in ("if", "for", "while", "switch",
                                                     "return", "do", "else", "new",
                                                     "delete", "using", "typedef",
                                                     "template", "operator"):
            return False
        toks = self.toks
        # Gather a possibly qualified name: id (::id)* directly followed by (
        j = self.i
        name = toks[j].text
        owner = None
        k = j + 1
        while k + 1 < len(toks) and toks[k].text == "::" and toks[k + 1].kind == "id":
            owner = name if owner is None else toks[k - 1].text
            owner = toks[k - 1].text
            name = toks[k + 1].text
            k += 2
        if k >= len(toks) or toks[k].text != "(":
            return False
        # Find the matching ) then look for the body {
        depth = 0
        m = k
        while m < len(toks):
            if toks[m].text == "(":
                depth += 1
            elif toks[m].text == ")":
                depth -= 1
                if depth == 0:
                    break
            m += 1
        if m >= len(toks):
            return False
        # After ): allow qualifiers, annotations, noexcept(...), -> type,
        # and a ctor init list; find `{` body or bail on `;`/`=`/`,`.
        m += 1
        saw_colon = False
        while m < len(toks):
            tt = toks[m].text
            if tt == "{":
                if saw_colon:
                    # could be an init-list brace `name_{...}`: an init brace
                    # is preceded by an identifier; the body brace follows
                    # `)`/id-qualifier/init-closer. Track via init parsing:
                    prev = toks[m - 1]
                    if prev.kind == "id" and prev.text not in (
                            "const", "noexcept", "override", "final", "mutable"):
                        # initializer braces — skip them
                        self.i = m
                        self.skip_balanced("{", "}")
                        m = self.i
                        continue
                break
            if tt == ";":
                return False  # declaration only
            if tt in ("=", ","):
                if not saw_colon:
                    return False  # `= default`, declarator list, etc.
                m += 1
                continue
            if tt == ":":
                saw_colon = True
                m += 1
                continue
            if tt == "(":
                self.i = m
                self.skip_balanced("(", ")")
                m = self.i
                continue
            if tt == "<":
                self.i = m
                self.skip_template_args()
                m = self.i
                continue
            m += 1
        if m >= len(toks) or toks[m].text != "{":
            return False
        if owner is None:
            owner = self.enclosing_class()
        fn = FuncInfo(name, owner, self.facts.rel, toks[j].line)
        self.facts.functions.append(fn)
        self.i = m
        self.parse_body(fn)
        return True

    def at_lambda_intro(self):
        """True when self.i sits on a lambda-introducing '[' (expression
        context, not a postfix subscript or an [[attribute]])."""
        t = self.peek()
        if t is None or t.text != "[":
            return False
        nxt = self.peek(1)
        if nxt and nxt.text == "[":
            return False  # [[attribute]]
        prev = self.toks[self.i - 1] if self.i > 0 else None
        if prev is None:
            return True
        if prev.text in ("return", "co_return", "co_yield", "case"):
            return True  # keyword, not a subscriptable expression
        if prev.kind in ("id", "str", "num") or prev.text in (")", "]"):
            return False  # postfix subscript
        return True

    def skip_lambda(self):
        """Skip a whole lambda: [captures](params) specs { body }. Deferred
        bodies (thread fns, posted ops, pool tasks) run outside the caller's
        lock scopes, so their calls must not be attributed to them."""
        self.skip_balanced("[", "]")
        if self.peek() and self.peek().text == "(":
            self.skip_balanced("(", ")")
        while self.peek() and self.peek().text not in ("{", ";", ")", ","):
            if self.peek().text == "(":  # noexcept(...)
                self.skip_balanced("(", ")")
            else:
                self.i += 1
        if self.peek() and self.peek().text == "{":
            self.skip_balanced("{", "}")

    def parse_body(self, fn):
        """Record acquire/call events inside one function body."""
        toks = self.toks
        depth = 0
        facts = self.facts
        while self.i < len(toks):
            t = toks[self.i]
            tt = t.text
            if tt == "[" and self.at_lambda_intro():
                self.skip_lambda()
                continue
            if tt == "{":
                depth += 1
                self.i += 1
                continue
            if tt == "}":
                depth -= 1
                fn.events.append(("scope_end", depth))
                self.i += 1
                if depth == 0:
                    return
                continue
            if t.kind == "id" and tt in GUARD_TYPES:
                nxt = self.peek(1)
                nxt2 = self.peek(2)
                if nxt and nxt.kind == "id" and nxt2 and nxt2.text in ("(", "{"):
                    guard_var = nxt.text
                    open_t = nxt2.text
                    close_t = ")" if open_t == "(" else "}"
                    expr = []
                    k = self.i + 3
                    d = 1
                    while k < len(toks) and d > 0:
                        if toks[k].text == open_t:
                            d += 1
                        elif toks[k].text == close_t:
                            d -= 1
                            if d == 0:
                                break
                        expr.append(toks[k].text)
                        k += 1
                    blessed = line_allows(facts, t.line, "blocking-under-lock")
                    fn.events.append(("acquire", "".join(expr), depth, t.line,
                                      blessed, guard_var))
                    self.i = k + 1
                    continue
            if t.kind == "id":
                nxt = self.peek(1)
                if nxt and nxt.text == "(":
                    prev = toks[self.i - 1].text if self.i > 0 else ""
                    via_member = prev in (".", "->")
                    obj = ""
                    if via_member and self.i >= 2 and toks[self.i - 2].kind == "id":
                        obj = toks[self.i - 2].text
                    allowed = line_allows(facts, t.line, "blocking-under-lock")
                    fn.events.append(("call", tt, via_member, depth, t.line,
                                      allowed, obj))
            self.i += 1


def parse_file(path, rel):
    with open(path, encoding="utf-8", errors="replace") as f:
        source = f.read()
    facts = FileFacts(path, rel)
    facts.allow_lines, facts.skip = collect_comments(source)
    if "*" in facts.skip:
        facts.functions = []
        facts.mutexes = []
        return facts
    Parser(facts, tokenize(source)).parse()
    return facts


# ---------------------------------------------------------------------------
# Whole-program analysis
# ---------------------------------------------------------------------------


class Program:
    def __init__(self, files):
        self.files = files
        self.mutexes = []           # all MutexDecl
        self.by_member = {}         # (owner, var) -> MutexDecl
        self.by_var = {}            # var -> [MutexDecl]
        self.func_index = {}        # name -> [FuncInfo]
        self.edges = {}             # (holder_uid, acquired_uid) -> (path, line, note)
        self.findings = []

        for facts in files:
            self.mutexes.extend(facts.mutexes)
            for m in facts.mutexes:
                self.by_member[(m.owner, m.var)] = m
                self.by_var.setdefault(m.var, []).append(m)
            for fn in facts.functions:
                self.func_index.setdefault(fn.name, []).append(fn)

    # -- resolution ----------------------------------------------------------

    def resolve_mutex(self, expr, owner):
        """Map a guard-constructor expression back to a MutexDecl."""
        expr = expr.strip()
        # Strip leading dereferences and this->
        while expr.startswith("*"):
            expr = expr[1:]
        expr = expr.replace("this->", "")
        # Take the last identifier component (obj.mutex_ / obj->mutex_).
        parts = re.split(r"->|\.", expr)
        var = parts[-1].strip()
        if not re.fullmatch(r"[A-Za-z_]\w*", var):
            return None
        m = self.by_member.get((owner, var))
        if m:
            return m
        cands = self.by_var.get(var, [])
        if len(cands) == 1:
            return cands[0]
        if len(cands) > 1 and len(parts) == 1 and owner is None:
            return None  # ambiguous global name
        return None

    def resolve_callee(self, name, owner):
        """One-level expansion target, or None when unknown/ambiguous."""
        if name in NO_EXPAND or name in BLOCKING_CALLS:
            return None
        cands = self.func_index.get(name, [])
        if not cands:
            return None
        same_class = [f for f in cands if f.owner == owner]
        if len(same_class) == 1:
            return same_class[0]
        if len(cands) == 1:
            return cands[0]
        return None  # ambiguous across the program: skip, don't guess

    # -- per-function summaries ----------------------------------------------

    def summarize_functions(self):
        """Fill FuncInfo.acquires / .blocking from raw events (no expansion)."""
        for facts in self.files:
            for fn in facts.functions:
                stack = []  # LockScope entries
                for ev in fn.events:
                    if ev[0] == "acquire":
                        _, expr, depth, line, blessed, guard_var = ev
                        m = self.resolve_mutex(expr, fn.owner)
                        stack.append(LockScope(m, depth, blessed, line, guard_var))
                        if m is not None:
                            fn.acquires.append((m, line))
                    elif ev[0] == "scope_end":
                        depth = ev[1]
                        while stack and stack[-1].depth > depth:
                            stack.pop()
                    elif ev[0] == "call":
                        _, name, via, _depth, line, allowed, obj = ev
                        if toggle_guard(stack, name, via, obj):
                            continue
                        if name in BLOCKING_CALLS and not allowed:
                            held = held_count(stack)
                            if name in CV_WAITS:
                                # the innermost lock is released by the wait
                                held -= 1
                            blessed_scope = any(s.blessed for s in stack if s.active)
                            # Recorded at ANY local held count: a call that
                            # blocks with zero local locks still blocks under
                            # whatever lock a caller holds (expansion reports
                            # it at the call site).
                            if not blessed_scope:
                                fn.blocking.append(
                                    (name, BLOCKING_CALLS[name], line, held))

    # -- the main pass -------------------------------------------------------

    def analyze(self):
        self.summarize_functions()
        self.check_unranked()
        for facts in self.files:
            for fn in facts.functions:
                self.walk_function(facts, fn)
        self.check_cycles()
        # Dedup: template instantiation patterns and repeated call sites can
        # produce byte-identical findings; report each once.
        seen = set()
        unique = []
        for f in self.findings:
            key = (f.path, f.line, f.kind, f.message)
            if key not in seen:
                seen.add(key)
                unique.append(f)
        self.findings = unique
        return self.findings

    def check_unranked(self):
        for m in self.mutexes:
            facts = next(f for f in self.files if f.rel == m.path)
            if "unranked-mutex" in facts.skip:
                continue
            if m.rank_name is None and not line_allows(facts, m.line, "unranked-mutex"):
                self.findings.append(Finding(
                    m.path, m.line, "unranked-mutex",
                    f"{m.uid} constructed without a LockRank — invisible to "
                    "the runtime rank checker and this analysis"))
            elif m.rank_name is not None and m.rank is None:
                self.findings.append(Finding(
                    m.path, m.line, "unranked-mutex",
                    f"{m.uid} names unknown rank LockRank::{m.rank_name} "
                    "(tools/ipa_analyze.py rank table out of date?)"))

    def walk_function(self, facts, fn):
        stack = []  # LockScope entries
        for ev in fn.events:
            if ev[0] == "acquire":
                _, expr, depth, line, blessed, guard_var = ev
                m = self.resolve_mutex(expr, fn.owner)
                if m is not None:
                    for scope in stack:
                        if scope.active and scope.mutex is not None:
                            self.note_edge(facts, scope.mutex, m, line,
                                           f"{fn.name}() at {facts.rel}:{line}")
                stack.append(LockScope(m, depth, blessed, line, guard_var))
            elif ev[0] == "scope_end":
                depth = ev[1]
                while stack and stack[-1].depth > depth:
                    stack.pop()
            elif ev[0] == "call":
                _, name, via_member, _depth, line, allowed, obj = ev
                if toggle_guard(stack, name, via_member, obj):
                    continue
                if not any(s.active for s in stack):
                    continue
                held_mutexes = [s.mutex for s in stack
                                if s.active and s.mutex is not None]
                blessed_scope = any(s.blessed for s in stack if s.active)
                if name in BLOCKING_CALLS:
                    held = held_count(stack)
                    if name in CV_WAITS:
                        held -= 1
                    if held > 0 and not allowed and not blessed_scope \
                            and "blocking-under-lock" not in facts.skip:
                        inner = [s for s in stack if s.active][-1]
                        self.findings.append(Finding(
                            facts.rel, line, "blocking-under-lock",
                            f"{BLOCKING_CALLS[name]} '{name}()' in {fn.name}() "
                            f"with {held} lock(s) held (innermost at line "
                            f"{inner.line}); park the thread outside the "
                            "critical section or bless the scope"))
                    continue
                callee = self.resolve_callee(name, fn.owner)
                if callee is None or callee is fn:
                    continue
                for m, aline in callee.acquires:
                    for held in held_mutexes:
                        self.note_edge(
                            facts, held, m, line,
                            f"{fn.name}() -> {callee.name}() "
                            f"({callee.path}:{aline})")
                if not blessed_scope and not allowed \
                        and "blocking-under-lock" not in facts.skip:
                    for bname, desc, bline, _bheld in callee.blocking:
                        # Callee blocking ops run under OUR locks too.
                        self.findings.append(Finding(
                            facts.rel, line, "blocking-under-lock",
                            f"{desc} '{bname}()' reached via "
                            f"{fn.name}() -> {callee.name}() "
                            f"({callee.path}:{bline}) with "
                            f"{held_count(stack)} caller lock(s) held"))

    def note_edge(self, facts, held, acquired, line, note):
        key = (held.uid, acquired.uid)
        if key not in self.edges:
            self.edges[key] = (facts.rel, line, note)
        self.check_order(facts, held, acquired, line, note)

    def check_order(self, facts, held, acquired, line, note):
        if "rank-inversion" in facts.skip:
            return
        if line_allows(facts, line, "rank-inversion"):
            return
        if held.uid == acquired.uid:
            self.findings.append(Finding(
                facts.rel, line, "rank-inversion",
                f"{held.uid} re-acquired while already held ({note}) — "
                "self-deadlock on a non-recursive mutex"))
            return
        if held.rank is None or acquired.rank is None:
            return  # unranked mutexes are reported separately
        if acquired.rank >= held.rank:
            self.findings.append(Finding(
                facts.rel, line, "rank-inversion",
                f"acquires {acquired.uid} (rank {acquired.rank_name}="
                f"{acquired.rank}) while holding {held.uid} (rank "
                f"{held.rank_name}={held.rank}) in {note}; nested ranks "
                "must strictly descend (see docs/static-analysis.md)"))

    def check_cycles(self):
        graph = {}
        for (a, b) in self.edges:
            graph.setdefault(a, set()).add(b)
        # Tarjan SCC, iterative.
        index = {}
        low = {}
        on_stack = set()
        stack = []
        counter = [0]
        sccs = []

        def strongconnect(v):
            work = [(v, iter(sorted(graph.get(v, ()))))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(graph.get(w, ())))))
                        advanced = True
                        break
                    elif w in on_stack:
                        low[node] = min(low[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(scc)

        for v in sorted(graph):
            if v not in index:
                strongconnect(v)

        for scc in sccs:
            cyclic = len(scc) > 1 or (scc[0] in graph.get(scc[0], ()))
            if not cyclic:
                continue
            members = sorted(scc)
            # Attribute the finding to one of the edges inside the cycle.
            path, line = "src", 0
            for (a, b), (p, ln, _note) in sorted(self.edges.items()):
                if a in scc and b in scc:
                    path, line = p, ln
                    break
            facts = next((f for f in self.files if f.rel == path), None)
            if facts and ("lock-cycle" in facts.skip
                          or line_allows(facts, line, "lock-cycle")):
                continue
            self.findings.append(Finding(
                path, line, "lock-cycle",
                "acquires-while-holding cycle: " + " -> ".join(members + [members[0]])
                + " — an ABBA deadlock waiting for its schedule"))

    # -- Graphviz ------------------------------------------------------------

    def render_dot(self):
        out = ["digraph ipa_locks {"]
        out.append('  rankdir=TB;')
        out.append('  node [shape=box, fontsize=10, fontname="Helvetica"];')
        out.append('  label="IPA acquires-while-holding lock graph '
                   '(generated by tools/ipa_analyze.py)";')
        by_rank = {}
        for m in self.mutexes:
            by_rank.setdefault((m.rank if m.rank is not None else -1,
                                m.rank_name or "unranked"), []).append(m)
        node_ids = {}
        for (rank, rank_name), members in sorted(by_rank.items(), reverse=True):
            out.append(f'  subgraph "cluster_{rank_name}" {{')
            out.append(f'    label="{rank_name} ({rank if rank >= 0 else "?"})";')
            out.append('    style=rounded; color=gray70; fontsize=10;')
            for m in sorted(members, key=lambda x: x.uid):
                nid = f"n{len(node_ids)}"
                node_ids[m.uid] = nid
                out.append(f'    {nid} [label="{m.label}\\n{m.uid}"];')
            out.append("  }")
        for (a, b), (_path, _line, note) in sorted(self.edges.items()):
            if a in node_ids and b in node_ids:
                safe = note.replace('"', "'")
                out.append(f'  {node_ids[a]} -> {node_ids[b]} '
                           f'[fontsize=8, tooltip="{safe}"];')
        out.append("}")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def gather_sources(root, subdir="src"):
    files = []
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                path = os.path.join(dirpath, name)
                files.append((path, os.path.relpath(path, root)))
    return files


def analyze_tree(root, dot_path=None):
    parsed = [parse_file(p, rel) for p, rel in gather_sources(root)]
    program = Program(parsed)
    findings = program.analyze()
    if dot_path:
        dot = program.render_dot()
        if dot_path == "-":
            sys.stdout.write(dot)
        else:
            with open(dot_path, "w", encoding="utf-8") as f:
                f.write(dot)
    return program, findings


def self_test(root):
    """Each fixture file <kind>[_variant].cpp must produce exactly its named
    finding kind (clean* fixtures must produce none)."""
    fixture_dir = os.path.join(root, "tests", "analyze", "fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"ipa-analyze self-test: no fixture dir at {fixture_dir}",
              file=sys.stderr)
        return 1
    failures = 0
    ran = 0
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith(SOURCE_EXTS):
            continue
        stem = name.rsplit(".", 1)[0]
        if stem.startswith("clean"):
            expected = set()
        else:
            kind = next((k for k in KINDS if stem == k.replace("-", "_")
                         or stem.startswith(k.replace("-", "_") + "_")), None)
            if kind is None:
                print(f"self-test: fixture '{name}' names no known kind",
                      file=sys.stderr)
                failures += 1
                continue
            expected = {kind}
        ran += 1
        path = os.path.join(fixture_dir, name)
        facts = parse_file(path, os.path.join("src", "fixture", name))
        program = Program([facts])
        got = {f.kind for f in program.analyze()}
        if got != expected:
            print(f"self-test FAIL: {name}: expected {sorted(expected) or '{}'}, "
                  f"got {sorted(got) or '{}'}", file=sys.stderr)
            for f in program.findings:
                print(f"  {f}", file=sys.stderr)
            failures += 1
    if ran == 0:
        print("self-test: no fixtures found", file=sys.stderr)
        return 1
    if failures:
        return 1
    print(f"ipa-analyze self-test: {ran} fixtures OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: script's parent)")
    parser.add_argument("--dot", default=None, metavar="FILE",
                        help="write the lock graph as Graphviz ('-' = stdout)")
    parser.add_argument("--stats", action="store_true",
                        help="print extraction statistics")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each tests/analyze/fixtures sample trips "
                             "exactly its named finding kind")
    args = parser.parse_args()

    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return self_test(root)

    program, findings = analyze_tree(root, args.dot)
    if args.stats:
        nfuncs = sum(len(f.functions) for f in program.files)
        print(f"ipa-analyze: {len(program.files)} files, {nfuncs} functions, "
              f"{len(program.mutexes)} mutexes, {len(program.edges)} "
              "acquires-while-holding edges")
    for finding in findings:
        print(finding)
    if findings:
        print(f"ipa-analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"ipa-analyze: clean ({len(program.mutexes)} mutexes, "
          f"{len(program.edges)} edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
