#!/usr/bin/env python3
"""wanmc-lint: the project's determinism and fault-plane invariants as
named, mechanically checked rules.

Every guarantee this repo sells -- byte-identical golden fingerprints,
serial-vs-parallel sweep equality, lossRate=0 drawing no coins -- rests on
invariants that used to be enforced only by convention and after-the-fact
fingerprint diffs. This tool encodes them as suppressible lint rules over
the C++ source (structured-source analysis: comments and string literals
are lexed away, declarations and regions are tracked, no compiler needed).

Rules
-----
  D1  no-wall-clock      No wall-clock reads or nondeterministic RNG
                         (std::chrono clocks, time(), std::rand,
                         std::random_device, the <random> engines) outside
                         bench/. Simulation time comes from the scheduler;
                         randomness comes from seed-forked SplitMix64.
  D2  no-unordered-iter  No iteration over std::unordered_map/set in
                         fingerprint-affecting code (src/ minus metrics/
                         and core/export) unless the loop is explicitly
                         marked order-insensitive. Hash-table iteration
                         order is libstdc++-version- and address-dependent.
  D3  no-pointer-keys    No pointer-keyed containers (std::map<T*, ...>,
                         std::set<T*>, their unordered cousins) in
                         fingerprint-affecting code: pointer order is
                         allocator order, not a deterministic order.
  D4  guarded-timers     Every raw Scheduler::at registration outside the
                         two backends (src/sim/, src/exec/) must be
                         annotated with the incarnation/liveness guard
                         that protects it. A registration is `.at(` on
                         any name declared as a Scheduler (in the file or
                         its header) or on the scheduler() accessor. Node
                         code should use Context::timer, which both
                         backends wrap in one TimerGuard; harness code
                         that schedules raw events must check
                         crash/incarnation state at fire time and say so.
  D5  hot-no-alloc       No heap allocation (non-placement new,
                         make_unique/make_shared, malloc family,
                         std::function construction) inside regions marked
                         WANMC_HOT (scheduler fire path, multicast fan-out,
                         channel DATA path). Cross-checked dynamically by
                         the bench harness's operator-new hook.
  D6  backend-agnostic   Backend-agnostic code (protocol stacks, the
                         channel/batch/bootstrap planes, common/) must not
                         name sim::Runtime or the sim Scheduler -- only the
                         exec::Context interface. Naming a concrete backend
                         silently pins the code to it and breaks the
                         "stacks run unmodified on either backend"
                         guarantee. The backends themselves (src/sim/,
                         src/exec/), the backend mux (core/experiment),
                         the sim-only observer plane (src/metrics/,
                         src/verify/) and the harness (src/testing/,
                         tests/, examples/, bench/) are out of scope.
  D7  one-roster         No `case ProtocolKind::` outside the protocol
                         roster's files (src/core/experiment.*). A stack's
                         names and traits are one row of core::kProtocols;
                         code that needs them reads the row or iterates the
                         roster. makeNode, next to the roster, is the one
                         switch that names concrete node classes.
  D8  one-delivery-path  No `recordDelivery(` call outside XcastNode
                         (src/core/stack_node.hpp) and the two backends
                         that implement it (src/sim/, src/exec/). Stacks
                         A-Deliver through XcastNode::adeliver, which
                         records the id in the one ordered set and delivers
                         at addressees only: the paper's uniform integrity
                         as one rule.

Suppression
-----------
A finding is suppressed by an annotation on the flagged line or on the
line directly above it:

    // wanmc-lint: allow(D4): fires via harness event; alive-at-fire check

The reason is mandatory -- a bare allow() is itself a finding. For D2 the
reason should state why the loop is order-insensitive (e.g. it folds into
a commutative reduction).

Usage
-----
    wanmc_lint.py [--root DIR] [PATHS...]     lint files/directories
    wanmc_lint.py --self-test                 run the fixture corpus
    wanmc_lint.py --list-rules                print the rule table

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx")

# --------------------------------------------------------------------------
# Rule table: id -> (name, summary). Scoping is implemented per rule below.
# --------------------------------------------------------------------------
RULES = {
    "D1": ("no-wall-clock",
           "wall-clock / nondeterministic RNG outside bench/"),
    "D2": ("no-unordered-iter",
           "iteration over unordered containers in fingerprint scope"),
    "D3": ("no-pointer-keys",
           "pointer-keyed container in fingerprint scope"),
    "D4": ("guarded-timers",
           "raw Scheduler::at outside the backends without a guard note"),
    "D5": ("hot-no-alloc",
           "heap allocation inside a WANMC_HOT region"),
    "D6": ("backend-agnostic",
           "concrete backend named outside backend/harness code"),
    "D7": ("one-roster",
           "switch over ProtocolKind outside the protocol roster"),
    "D8": ("one-delivery-path",
           "A-Delivery recorded around XcastNode::adeliver"),
}

ALLOW_RE = re.compile(
    r"//\s*wanmc-lint:\s*allow\(\s*(D[1-8])\s*\)\s*(:?\s*(.*))?$")

# `// expect: D1 D5` directives inside fixture files drive --self-test.
EXPECT_RE = re.compile(r"//\s*expect:\s*((?:D[1-8]\s*)+)$", re.MULTILINE)


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str          # path as reported (relative to root)
    raw: str           # original text
    code: str          # comments/strings blanked, line structure kept
    raw_lines: list[str] = field(init=False)
    code_lines: list[str] = field(init=False)
    allows: dict[int, list[tuple[str, str]]] = field(init=False)

    def __post_init__(self) -> None:
        self.raw_lines = self.raw.splitlines()
        self.code_lines = self.code.splitlines()
        self.allows = {}
        for i, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if m:
                reason = (m.group(3) or "").strip()
                self.allows.setdefault(i, []).append((m.group(1), reason))


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines
    and column positions so findings keep their real line numbers."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal? Look back for R prefix (R"delim().
                if i > 0 and text[i - 1] == "R" and (
                        i < 2 or not (text[i - 2].isalnum()
                                      or text[i - 2] == "_")):
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = RAW_STRING
                        out.append('"')
                        i += 1
                        continue
                state = STRING
                out.append('"')
                i += 1
                continue
            if c == "'":
                # Digit separators (1'000'000) are not char literals.
                if i > 0 and (text[i - 1].isdigit()
                              and nxt and (nxt.isalnum() or nxt == "_")):
                    out.append(c)
                    i += 1
                    continue
                state = CHAR
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state == STRING:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = NORMAL
                out.append('"')
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
        elif state == CHAR:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = NORMAL
                out.append("'")
            else:
                out.append(" ")
            i += 1
        else:  # RAW_STRING
            if text.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                state = NORMAL
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Scoping helpers. Paths are normalized to forward slashes relative to the
# repo root, e.g. "src/sim/runtime.cpp".
# --------------------------------------------------------------------------

def in_dir(path: str, prefix: str) -> bool:
    return path == prefix or path.startswith(prefix + "/")


def d1_in_scope(path: str) -> bool:
    # bench/ measures wall-clock by design; tools/ is the linter itself.
    # src/exec/threaded/ IS the real-clock backend: steady_clock reads are
    # its whole point, so the determinism contract is relaxed there (and
    # ONLY there -- the sim backend and everything layered on exec::Context
    # stay deterministic).
    return (not in_dir(path, "bench") and not in_dir(path, "tools")
            and not in_dir(path, "src/exec/threaded"))


def fingerprint_scope(path: str) -> bool:
    """D2/D3 scope: code that feeds traces and fingerprints. The metrics
    plane and the export writers only OBSERVE a finished run, so their
    iteration order cannot perturb a fingerprint."""
    if not in_dir(path, "src"):
        return False
    if in_dir(path, "src/metrics"):
        return False
    stem = os.path.basename(path)
    if stem.startswith("export.") and "core" in path.split("/"):
        return False
    return True


def d4_in_scope(path: str) -> bool:
    # Both backends arm timers through exec::Context's TimerGuard, so they
    # (and the scheduler) are the guard substrate; everything else in src/
    # must route timers through it or document its own guard.
    return (in_dir(path, "src") and not in_dir(path, "src/sim")
            and not in_dir(path, "src/exec"))


def d6_in_scope(path: str) -> bool:
    """D6 scope: code that must stay backend-agnostic. The two backends
    (src/sim/, src/exec/), the backend mux (core/experiment.*), the
    sim-only observer/metrics plane (src/metrics/, src/verify/) and the
    test harness (src/testing/) are the ONLY src/ code allowed to name a
    concrete backend; tests/examples/bench are harness territory too."""
    if not in_dir(path, "src"):
        return False
    for d in ("src/sim", "src/exec", "src/metrics", "src/verify",
              "src/testing"):
        if in_dir(path, d):
            return False
    if os.path.basename(path).startswith("experiment.") and \
            "core" in path.split("/"):
        return False
    return True


# --------------------------------------------------------------------------
# Rule implementations.
# --------------------------------------------------------------------------

D1_TOKENS = [
    (re.compile(r"\bstd::chrono::(system_clock|steady_clock|"
                r"high_resolution_clock)\b"),
     "std::chrono::{} is wall-clock; simulated time comes from "
     "Scheduler::now()"),
    (re.compile(r"\bstd::(rand|srand)\b|(?<![\w:])\b(rand|srand)\s*\("),
     "C rand/srand is hidden global state; draw from a seed-forked "
     "SplitMix64"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic by definition"),
    (re.compile(r"\bstd::(mt19937(_64)?|minstd_rand0?|"
                r"default_random_engine|ranlux(24|48)(_base)?|knuth_b)\b"),
     "<random> engines are banned in deterministic code; use SplitMix64 "
     "forked from the run seed"),
    (re.compile(r"(?<![\w:.])\btime\s*\(\s*(NULL|nullptr|0|&)"),
     "time() reads the wall clock"),
    (re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\s*\("),
     "{} reads the wall clock"),
]


def check_d1(sf: SourceFile) -> list[Finding]:
    if not d1_in_scope(sf.path):
        return []
    findings = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        for pat, msg in D1_TOKENS:
            m = pat.search(line)
            if m:
                token = next((g for g in m.groups() if g), m.group(0))
                findings.append(Finding(
                    sf.path, lineno, "D1", msg.format(token.strip())))
    return findings


UNORDERED_DECL_RE = re.compile(
    r"\b(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<")
# `for (auto& x : container)` -- capture the container expression.
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:()]*:\s*([^)]+)\)")
ITER_CALL_RE = re.compile(r"([A-Za-z_][\w.\->]*)\s*\.\s*(?:begin|cbegin)\s*\(")


def unordered_vars(sf: SourceFile, extra_code: str = "") -> set[str]:
    """Names declared (in this file or the supplied companion header text)
    with an unordered container type."""
    names: set[str] = set()
    decl = re.compile(
        r"\b(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
        r"[&*]?\s*([A-Za-z_]\w*)\s*(?:;|=|\{|,|\))")
    for text in (sf.code, extra_code):
        for m in decl.finditer(text):
            names.add(m.group(1))
    return names


def check_d2(sf: SourceFile, companions: dict[str, str]) -> list[Finding]:
    if not fingerprint_scope(sf.path):
        return []
    extra = companions.get(sf.path, "")
    names = unordered_vars(sf, extra)
    if not names:
        return []
    findings = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        targets = []
        m = RANGE_FOR_RE.search(line)
        if m:
            targets.append(m.group(1).strip())
        for m in ITER_CALL_RE.finditer(line):
            targets.append(m.group(1))
        for t in targets:
            base = re.split(r"[.\s]|->", t)[-1] or t
            stem = re.sub(r"\(.*$", "", base)
            if stem in names or t in names:
                findings.append(Finding(
                    sf.path, lineno, "D2",
                    f"iteration over unordered container '{stem}': hash "
                    "order is address/libstdc++ dependent and would leak "
                    "into traces; restructure onto a deterministic order "
                    "or mark the loop order-insensitive via "
                    "wanmc-lint: allow(D2)"))
    return findings


POINTER_KEY_RE = re.compile(
    r"\b(?:std::)?(?:unordered_)?(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*\*")


def check_d3(sf: SourceFile) -> list[Finding]:
    if not fingerprint_scope(sf.path):
        return []
    findings = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        if POINTER_KEY_RE.search(line):
            findings.append(Finding(
                sf.path, lineno, "D3",
                "pointer-keyed container: iteration/comparison order is "
                "allocation order, not a deterministic order; key by a "
                "stable id (ProcessId, MsgId, dense index) instead"))
    return findings


# A name declared with the Scheduler type: a member (`sim::Scheduler
# sched;`), a parameter, or an accessor (`Scheduler& scheduler()`).
SCHED_DECL_RE = re.compile(
    r"\b(?:sim\s*::\s*)?Scheduler\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(),]")


def d4_registration_re(sf: SourceFile, extra_code: str) -> re.Pattern:
    """`.at(` (or `->at(`) on a Scheduler: a name declared as one in this
    file or its companion header, the runtime's scheduler() accessor, or
    its sched_ member."""
    names = {"scheduler", "sched_"}
    for text in (sf.code, extra_code):
        names.update(SCHED_DECL_RE.findall(text))
    alts = "|".join(re.escape(n) for n in sorted(names))
    return re.compile(
        r"\b(?:" + alts + r")\s*(?:\(\s*\))?\s*(?:\.|->)\s*at\s*\(")


def check_d4(sf: SourceFile, companions: dict[str, str]) -> list[Finding]:
    if not d4_in_scope(sf.path):
        return []
    registration = d4_registration_re(sf, companions.get(sf.path, ""))
    findings = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        if registration.search(line):
            findings.append(Finding(
                sf.path, lineno, "D4",
                "raw Scheduler::at registration: the callback will fire "
                "even if its process crashed or reincarnated. Use "
                "Context::timer (TimerGuard) for node timers; a harness "
                "event must check crash/incarnation state at fire time "
                "and document it via wanmc-lint: allow(D4)"))
    return findings


D5_ALLOC_RES = [
    (re.compile(r"\bnew\s+[A-Za-z_:(]"), "non-placement new"),
    (re.compile(r"\bstd::make_(unique|shared)\b|\bmake_(unique|shared)\s*<"),
     "make_unique/make_shared"),
    (re.compile(r"\b(malloc|calloc|realloc|strdup|aligned_alloc)\s*\("),
     "malloc-family call"),
    (re.compile(r"\bstd::function\s*<"), "std::function construction"),
]
# `new (addr) T` is placement: no allocation. The alloc regex above already
# excludes `new (`... except `new (std::nothrow)` which DOES allocate:
D5_NOTHROW_RE = re.compile(r"\bnew\s*\(\s*std::nothrow\s*\)")


def hot_regions(sf: SourceFile) -> list[tuple[int, int]]:
    """(start_line, end_line) of each function body following a WANMC_HOT
    marker: first '{' at paren depth 0 after the marker, brace-matched."""
    regions = []
    code = sf.code
    for m in re.finditer(r"\bWANMC_HOT\b", code):
        if code[:m.start()].rstrip().endswith("#define"):
            continue
        i = m.end()
        paren = 0
        n = len(code)
        while i < n:
            c = code[i]
            if c == "(":
                paren += 1
            elif c == ")":
                paren -= 1
            elif c == "{" and paren == 0:
                break
            elif c == ";" and paren == 0:
                i = -1  # declaration only, no body here
                break
            i += 1
        if i < 0 or i >= n:
            continue
        depth = 0
        start = code.count("\n", 0, i) + 1
        j = i
        while j < n:
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        end = code.count("\n", 0, j) + 1
        regions.append((start, end))
    return regions


def check_d5(sf: SourceFile) -> list[Finding]:
    regions = hot_regions(sf)
    if not regions:
        return []
    findings = []
    for start, end in regions:
        for lineno in range(start, min(end, len(sf.code_lines)) + 1):
            line = sf.code_lines[lineno - 1]
            for pat, what in D5_ALLOC_RES:
                m = pat.search(line)
                if not m:
                    continue
                if what == "non-placement new":
                    # `::new (buf) D(...)` placement is fine, but the
                    # expression may NEST an allocating new: strip the
                    # placement form and re-test.
                    stripped = re.sub(r"\bnew\s*\([^)]*\)", "", line)
                    if (not re.search(r"\bnew\s+[A-Za-z_:]", stripped)
                            and not D5_NOTHROW_RE.search(line)):
                        continue
                findings.append(Finding(
                    sf.path, lineno, "D5",
                    f"{what} inside a WANMC_HOT region: the scheduler "
                    "fire path / multicast fan-out / channel DATA path "
                    "must stay allocation-free (pool it, or justify via "
                    "wanmc-lint: allow(D5)); the bench operator-new hook "
                    "cross-checks this at runtime"))
                break
    return findings


D6_NAME_RE = re.compile(r"\bsim\s*::\s*(Runtime|Scheduler)\b|"
                        r"(?<!::)\bScheduler\b")
# Includes are scanned on the RAW lines: the lexer blanks string literals,
# and an #include path is one.
D6_INCLUDE_RE = re.compile(
    r'#\s*include\s*"sim/(runtime|scheduler)\.hpp"')


def check_d6(sf: SourceFile) -> list[Finding]:
    if not d6_in_scope(sf.path):
        return []
    findings = []
    for lineno, (code_line, raw_line) in enumerate(
            zip(sf.code_lines, sf.raw_lines), start=1):
        m = D6_NAME_RE.search(code_line) or D6_INCLUDE_RE.search(raw_line)
        if m:
            findings.append(Finding(
                sf.path, lineno, "D6",
                "backend-agnostic code names a concrete execution backend "
                "(sim::Runtime / Scheduler): program against exec::Context "
                "so the stack runs unmodified on both the sim and the "
                "threaded backend; if this file is genuinely backend-"
                "bound, say why via wanmc-lint: allow(D6)"))
    return findings


D7_CASE_RE = re.compile(r"\bcase\s+(?:\w+\s*::\s*)*ProtocolKind\s*::")


def d7_in_scope(path: str) -> bool:
    """D7 scope: everything but the roster's own files -- the roster
    (core::kProtocols in experiment.hpp) and makeNode (experiment.cpp)."""
    stem, _ext = os.path.splitext(path)
    return stem != "src/core/experiment"


def check_d7(sf: SourceFile) -> list[Finding]:
    if not d7_in_scope(sf.path):
        return []
    findings = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        if D7_CASE_RE.search(line):
            findings.append(Finding(
                sf.path, lineno, "D7",
                "per-protocol switch outside the roster: a stack's names "
                "and traits live in one core::kProtocols row; read "
                "core::protocolInfo(kind) or iterate the roster instead"))
    return findings


D8_CALL_RE = re.compile(r"\brecordDelivery\s*\(")


def d8_in_scope(path: str) -> bool:
    """D8 scope: everything but XcastNode's header, the one A-Deliver path,
    and the two backends, which declare and implement recordDelivery."""
    return (path != "src/core/stack_node.hpp" and
            not path.startswith(("src/sim/", "src/exec/")))


def check_d8(sf: SourceFile) -> list[Finding]:
    if not d8_in_scope(sf.path):
        return []
    findings = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        if D8_CALL_RE.search(line):
            findings.append(Finding(
                sf.path, lineno, "D8",
                "A-Delivery recorded around XcastNode::adeliver: hand the "
                "message to adeliver, which records its id in the one "
                "ordered set and delivers it at addressees only (uniform "
                "integrity, paper section 2.2)"))
    return findings


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def suppression_lines(sf: SourceFile, line: int) -> list[int]:
    """The flagged line plus the contiguous //-comment block directly above
    it: an allow() anywhere in that block covers the finding, so a
    multi-line reason stays one annotation."""
    lines = [line]
    ln = line - 1
    while ln >= 1 and sf.raw_lines[ln - 1].lstrip().startswith("//"):
        lines.append(ln)
        ln -= 1
    return lines


def apply_suppressions(sf: SourceFile,
                       findings: list[Finding]) -> list[Finding]:
    """Drop findings allowed on their own line or in the comment block
    above; flag reason-less allow() annotations."""
    kept = []
    used: set[tuple[int, str]] = set()
    for f in findings:
        allowed = False
        for ln in suppression_lines(sf, f.line):
            for rule, _reason in sf.allows.get(ln, []):
                if rule == f.rule:
                    allowed = True
                    used.add((ln, rule))
        if not allowed:
            kept.append(f)
    for ln, entries in sf.allows.items():
        for rule, reason in entries:
            if not reason and (ln, rule) in used:
                kept.append(Finding(
                    sf.path, ln, rule,
                    "allow() without a reason: state WHY the invariant "
                    "holds here (the annotation is the documentation)"))
    return kept


def lint_file(path: str, display: str,
              companions: dict[str, str]) -> list[Finding]:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            raw = fh.read()
    except OSError as e:
        return [Finding(display, 0, "D1", f"unreadable: {e}")]
    sf = SourceFile(display, raw, strip_comments_and_strings(raw))
    findings: list[Finding] = []
    findings += check_d1(sf)
    findings += check_d2(sf, companions)
    findings += check_d3(sf)
    findings += check_d4(sf, companions)
    findings += check_d5(sf)
    findings += check_d6(sf)
    findings += check_d7(sf)
    findings += check_d8(sf)
    findings = apply_suppressions(sf, findings)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def collect_files(root: str, paths: list[str]) -> list[tuple[str, str]]:
    """-> [(absolute path, root-relative display path)] sorted."""
    out = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("build", ".git") and
                    not d.startswith("build-"))
                for fn in sorted(filenames):
                    if fn.endswith(CPP_EXTENSIONS):
                        full = os.path.join(dirpath, fn)
                        out.append((full, os.path.relpath(full, root)
                                    .replace(os.sep, "/")))
        elif os.path.isfile(ap):
            out.append((ap, os.path.relpath(ap, root).replace(os.sep, "/")))
        else:
            print(f"wanmc-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return sorted(set(out), key=lambda t: t[1])


def build_companions(files: list[tuple[str, str]]) -> dict[str, str]:
    """Map each .cpp to the stripped text of its same-stem header so D2
    and D4 see member declarations when linting the implementation
    file."""
    header_text: dict[str, str] = {}
    for full, rel in files:
        if rel.endswith((".hpp", ".h")):
            try:
                with open(full, encoding="utf-8", errors="replace") as fh:
                    header_text[os.path.splitext(rel)[0]] = \
                        strip_comments_and_strings(fh.read())
            except OSError:
                pass
    companions: dict[str, str] = {}
    for _full, rel in files:
        if rel.endswith((".cpp", ".cc", ".cxx")):
            stem = os.path.splitext(rel)[0]
            if stem in header_text:
                companions[rel] = header_text[stem]
    return companions


def run_self_test(root: str) -> int:
    """Each fixture declares the rules it must trip via `// expect: Dn`
    directives. Fixtures named ok_* must come back clean. Fixture paths are
    mapped into a pretend scope (see the leading `// scope:` directive) so
    path-scoped rules apply."""
    fixdir = os.path.join(root, "tools", "lint", "fixtures")
    if not os.path.isdir(fixdir):
        print(f"wanmc-lint: fixture dir missing: {fixdir}", file=sys.stderr)
        return 2
    failures = 0
    total = 0
    for fn in sorted(os.listdir(fixdir)):
        if not fn.endswith(CPP_EXTENSIONS):
            continue
        total += 1
        full = os.path.join(fixdir, fn)
        with open(full, encoding="utf-8") as fh:
            raw = fh.read()
        mscope = re.search(r"//\s*scope:\s*(\S+)", raw)
        display = mscope.group(1) if mscope else f"src/fixture/{fn}"
        expected: set[str] = set()
        for m in EXPECT_RE.finditer(raw):
            expected.update(m.group(1).split())
        sf = SourceFile(display, raw, strip_comments_and_strings(raw))
        findings: list[Finding] = []
        findings += check_d1(sf)
        findings += check_d2(sf, {})
        findings += check_d3(sf)
        findings += check_d4(sf, {})
        findings += check_d5(sf)
        findings += check_d6(sf)
        findings += check_d7(sf)
        findings += check_d8(sf)
        findings = apply_suppressions(sf, findings)
        got = {f.rule for f in findings}
        if got != expected:
            failures += 1
            print(f"FIXTURE FAIL {fn}: expected {sorted(expected) or '[]'} "
                  f"got {sorted(got) or '[]'}")
            for f in findings:
                print(f"    {f.format()}")
        else:
            print(f"fixture ok: {fn} -> {sorted(got) or 'clean'}")
    print(f"wanmc-lint self-test: {total - failures}/{total} fixtures ok")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(prog="wanmc-lint", add_help=True)
    ap.add_argument("paths", nargs="*",
                    help="files/directories (default: src tests examples "
                         "bench)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this file)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus and exit")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    root = os.path.abspath(args.root) if args.root else os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", ".."))

    if args.list_rules:
        for rid, (name, summary) in RULES.items():
            print(f"{rid}  {name:<20s}  {summary}")
        return 0
    if args.self_test:
        return run_self_test(root)

    paths = args.paths or ["src", "tests", "examples", "bench"]
    files = collect_files(root, paths)
    companions = build_companions(files)
    all_findings: list[Finding] = []
    for full, rel in files:
        all_findings.extend(lint_file(full, rel, companions))
    for f in all_findings:
        print(f.format())
    if all_findings:
        print(f"wanmc-lint: {len(all_findings)} finding(s) across "
              f"{len(files)} file(s)")
        return 1
    print(f"wanmc-lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
