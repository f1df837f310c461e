#!/usr/bin/env python3
"""Scratch-escape lint: thread-local buffers must not be live across a pool
dispatch.

Codifies the bug class behind the PR 5 review fix: `ThreadPool::ParallelFor`
completes help-first — while a top-level dispatch blocks, the calling thread
executes OTHER producers' queued tasks, and any filter/scorer work those
tasks run reuses the calling thread's `thread_local` scratch buffers. A
pointer or reference into such a buffer that is still live across the
dispatch (read after the join, or written by the dispatched tasks) therefore
dangles or gets clobbered mid-run. The rule:

    Within one function body, a name bound to a `thread_local` buffer —
    directly declared, returned by a scratch-accessor function, or aliased
    from either — must not be referenced at or after a pool dispatch
    (`ParallelFor` / `ParallelForOver` / `Submit`) in the same brace scope.
    References made from a named lambda that the dispatch invokes count as
    references at the dispatch.

Engines:
  * regex (default, always available): comment/string-stripped token scan
    with brace matching. Scratch accessors (functions whose body declares a
    `thread_local` and returns it, e.g. `MaskScratch`) are auto-discovered
    across all scanned files.
  * clang-query (`--engine=clang-query`, or `auto` when the binary and a
    compile_commands.json exist): uses `varDecl(hasThreadStorageDuration())`
    matches to enumerate thread-local declarations exactly, then runs the
    same positional liveness scan. Falls back to regex when unavailable.

Audited exceptions (e.g. the nested-inline serial path in predicate.cc's
SparsePrunedRun, where the parallel branch provably switches to
function-local storage) are suppressed either by an inline
`scratch-escape-audited: <reason>` comment on — or on the line immediately
above — the binding or dispatch line, or by a
`<file-basename>:<binding-name>` entry in the allowlist file (default:
scratch_escape_allowlist.txt next to this script).

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.

`--self-test` runs the lint over tools/lint/fixtures/: every `bad_*.cc`
fixture must produce at least one finding and every `good_*.cc` fixture must
produce none.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

DISPATCH_CALLS = ("ParallelFor", "ParallelForOver", "Submit")
AUDIT_MARKER = "scratch-escape-audited"

# thread_local values of scalar type are read by value, not through a live
# pointer; only buffer-ish declarations are tracked.
SCALAR_DECL_RE = re.compile(
    r"^(?:static\s+)?(?:const(?:expr)?\s+)?"
    r"(?:bool|char|short|int|long|unsigned|float|double|size_t|ptrdiff_t|"
    r"u?int(?:8|16|32|64)_t)\b[^*\[]*$"
)

IDENT = r"[A-Za-z_]\w*"


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, preserving offsets and
    newlines. Returns (stripped, audited_line_set)."""
    audited = set()
    out = list(text)
    i, n = 0, len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            if j == -1:
                j = n
            if AUDIT_MARKER in text[i:j]:
                audited.add(line)
            for k in range(i, j):
                out[k] = " "
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i)
            j = n if j == -1 else j + 2
            if AUDIT_MARKER in text[i:j]:
                audited.add(line)
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            line += text.count("\n", i, j)
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated; bail at newline
                    break
                j += 1
            for k in range(i + 1, min(j, n) - 1):
                out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out), audited


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def match_braces(text):
    """pos of '{' -> pos of matching '}'; also pos -> innermost enclosing
    '{' via enclosing(). Unbalanced braces map to end of text."""
    pairs = {}
    stack = []
    for i, c in enumerate(text):
        if c == "{":
            stack.append(i)
        elif c == "}":
            if stack:
                pairs[stack.pop()] = i
    for i in stack:  # unbalanced (shouldn't happen on real code)
        pairs[i] = len(text)
    return pairs


def enclosing_block(pairs, pos):
    """(open, close) of the innermost brace block containing pos, or
    (None, len) for file scope."""
    best = None
    for o, c in pairs.items():
        if o < pos <= c:
            if best is None or o > best[0]:
                best = (o, c)
    return best


def matching_paren(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def matching_paren_backwards(text, close_pos):
    depth = 0
    for i in range(close_pos, -1, -1):
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return 0


CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}


def function_scope_end(text, pairs, pos):
    """End offset of the innermost *function-like* body (function, method,
    constructor, or lambda — not an if/for/while/plain block) containing
    pos. Assignments to pre-existing names (members, out-params) stay live
    to at least here, unlike declarations, which die at their block's end."""
    enclosing = sorted(((o, c) for o, c in pairs.items() if o < pos <= c),
                       key=lambda oc: -oc[0])
    for o, c in enclosing:
        header = text[:o].rstrip()
        header = re.sub(r"(const|noexcept|override|final|mutable)\s*$", "",
                        header).rstrip()
        header = re.sub(r"->\s*[\w:<>,&*\s]+$", "", header).rstrip()
        if not header.endswith(")"):
            continue  # else/do/try/plain block: keep walking out
        open_paren = matching_paren_backwards(header, len(header) - 1)
        kw = re.search(r"(\w+)\s*$", header[:open_paren])
        if kw and kw.group(1) in CONTROL_KEYWORDS:
            continue
        return c
    return len(text)


def find_dispatch_calls(text, start, end):
    """Dispatch *call* positions in text[start:end]. Definitions (a '{'
    after the parameter list) and declarations are skipped."""
    calls = []
    for m in re.finditer(r"\b(%s)\s*\(" % "|".join(DISPATCH_CALLS), text):
        if not (start <= m.start() < end):
            continue
        close = matching_paren(text, m.end() - 1)
        after = text[close + 1 : close + 40].lstrip()
        if after.startswith("{"):  # function definition, not a call
            continue
        # Qualified definitions/declarations ("void ThreadPool::ParallelFor")
        # are already covered by the '{' test; a preceding "::" alone is fine
        # (call through a class-qualified name).
        calls.append((m.start(), close))
    return calls


def discover_accessors(stripped_texts):
    """Functions whose body declares a thread_local and returns it.

    Returns {name: (file, line)}.
    """
    accessors = {}
    decl_re = re.compile(r"\bthread_local\b[^;{}()]*?(%s)\s*[;={]" % IDENT)
    for path, text in stripped_texts.items():
        pairs = match_braces(text)
        for m in decl_re.finditer(text):
            name = m.group(1)
            block = enclosing_block(pairs, m.start())
            if block is None:
                continue
            open_b, close_b = block
            # Enclosing function name: identifier right before the matching
            # '(' of the ')' that precedes the body brace.
            header = text[:open_b].rstrip()
            header = re.sub(r"(const|noexcept|override|final)\s*$", "", header).rstrip()
            if not header.endswith(")"):
                continue
            depth = 0
            i = len(header) - 1
            while i >= 0:
                if header[i] == ")":
                    depth += 1
                elif header[i] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                i -= 1
            fn_match = re.search(r"(%s)\s*$" % IDENT, header[:i])
            if fn_match is None:
                continue
            fn = fn_match.group(1)
            body = text[open_b : close_b + 1]
            if re.search(r"\breturn\s+%s\s*;" % re.escape(name), body):
                accessors[fn] = (path, line_of(text, m.start()))
    return accessors


class Binding:
    def __init__(self, name, pos, line, origin, via, scope_end):
        self.name = name
        self.pos = pos        # offset where the binding becomes live
        self.line = line
        self.origin = origin  # "thread_local" | "accessor" | "alias"
        self.via = via        # underlying thread_local / accessor name
        self.scope_end = scope_end  # offset past which the name is dead


def scan_file(path, text, accessors, allow, audited_lines):
    findings = []
    pairs = match_braces(text)

    bindings = []
    # Direct thread_local declarations of buffer-ish type.
    for m in re.finditer(
        r"\bthread_local\s+([^;={}]*?)(%s)\s*[;={]" % IDENT, text
    ):
        decl_type, name = m.group(1).strip(), m.group(2)
        if SCALAR_DECL_RE.match(decl_type):
            continue
        block = enclosing_block(pairs, m.start())
        bindings.append(Binding(name, m.end(), line_of(text, m.start()),
                                "thread_local", name,
                                block[1] if block else len(text)))
    # Names initialized/assigned from a scratch accessor call. Only
    # reference/pointer bindings escape — a by-value copy
    # (`std::vector<Span> snapshot = ComputeSparseSpans(n);`) detaches from
    # the thread_local and is safe. Ref/pointer means: the declarator before
    # the name ends in '&' or '*', or the initializer takes an address
    # (`.data()`, leading '&').
    if accessors:
        acc_re = re.compile(
            r"\b(%s)\s*(?:=|\()" % "|".join(re.escape(a) for a in accessors)
        )
        for m in re.finditer(r"\b(%s)\s*=\s*([^;{}]*);" % IDENT, text):
            init = m.group(2)
            acc = acc_re.search(init)
            if not (acc and "(" in init[acc.start():]):
                continue
            stmt_start = max(text.rfind(c, 0, m.start())
                            for c in (";", "{", "}")) + 1
            declarator = text[stmt_start:m.start()].strip()
            by_ref = (declarator.endswith(("&", "*"))
                      or ".data(" in init
                      or init.lstrip().startswith("&"))
            if not by_ref:
                continue
            # A declaration dies at its block's end; an assignment targets a
            # pre-existing name (member, out-param) that stays live for the
            # rest of the enclosing function.
            if declarator:
                block = enclosing_block(pairs, m.start())
                scope_end = block[1] if block else len(text)
            else:
                scope_end = function_scope_end(text, pairs, m.start())
            bindings.append(Binding(m.group(1), m.end(),
                                    line_of(text, m.start()),
                                    "accessor", acc.group(1), scope_end))

    # Alias propagation to a fixpoint, in textual order: `q = &p` / `q = *p`
    # / `T& q = p` / `q = p.data()` where p is already tracked extends
    # tracking to q within p's scope. A plain by-value `q = p` copy detaches
    # and is not an alias.
    queue = list(bindings)
    seen = {(b.name, b.pos) for b in bindings}
    while queue:
        b = queue.pop(0)
        for m in re.finditer(
            r"\b(%s)\s*=\s*([&*]?)\s*%s\b(\s*(?:\.|->)\s*data\s*\()?"
            % (IDENT, re.escape(b.name)),
            text[b.pos:b.scope_end],
        ):
            alias = m.group(1)
            if alias == b.name:
                continue
            abs_start = b.pos + m.start()
            stmt_start = max(text.rfind(c, 0, abs_start)
                            for c in (";", "{", "}")) + 1
            declarator = text[stmt_start:abs_start].strip()
            by_ref = (bool(m.group(2)) or bool(m.group(3))
                      or declarator.endswith(("&", "*")))
            if not by_ref:
                continue
            if declarator:
                block = enclosing_block(pairs, abs_start)
                scope_end = block[1] if block else len(text)
            else:
                scope_end = function_scope_end(text, pairs, abs_start)
            nb = Binding(alias, b.pos + m.end(), line_of(text, abs_start),
                         "alias", b.via, scope_end)
            if (nb.name, nb.pos) in seen:
                continue
            seen.add((nb.name, nb.pos))
            bindings.append(nb)
            queue.append(nb)

    # Named lambdas: name -> body text (for uses-through-lambda at dispatch).
    lambdas = {}
    for m in re.finditer(r"\b(%s)\s*=\s*\[[^\]]*\]" % IDENT, text):
        open_b = text.find("{", m.end())
        if open_b == -1:
            continue
        close_b = pairs.get(open_b)
        if close_b is None:
            continue
        lambdas[m.group(1)] = (m.start(), text[open_b:close_b + 1])

    base = os.path.basename(path)
    for b in bindings:
        if "%s:%s" % (base, b.name) in allow:
            continue
        if b.line in audited_lines or b.line - 1 in audited_lines:
            continue
        end = b.scope_end
        name_re = re.compile(r"\b%s\b" % re.escape(b.name))
        for call_start, call_end in find_dispatch_calls(text, b.pos, end):
            call_line = line_of(text, call_start)
            # A marker on the dispatch line (or the line above it) vouches
            # for every binding crossing this dispatch.
            if call_line in audited_lines or call_line - 1 in audited_lines:
                continue
            tail = text[call_start:end]
            used = name_re.search(tail) is not None
            if not used:
                # A named lambda invoked by this dispatch that references the
                # binding counts as a use at the dispatch.
                call_text = text[call_start:call_end + 1]
                for lname, (ldef, lbody) in lambdas.items():
                    if ldef > call_start or lname == b.name:
                        continue
                    if re.search(r"\b%s\b" % re.escape(lname), call_text) and \
                            name_re.search(lbody):
                        used = True
                        break
            if used:
                findings.append({
                    "file": path,
                    "line": b.line,
                    "name": b.name,
                    "origin": b.origin,
                    "via": b.via,
                    "dispatch_line": call_line,
                    "message": (
                        "'%s' (%s %s'%s') is live across the pool dispatch at "
                        "line %d; a help-first-stolen task can clobber the "
                        "thread-local buffer before the join. Copy into a "
                        "function-local buffer before dispatching, or mark "
                        "the audited line with '%s: <reason>'."
                        % (b.name, b.origin,
                           "via " if b.origin != "thread_local" else "",
                           b.via, call_line, AUDIT_MARKER)
                    ),
                })
                break  # one finding per binding is enough
    return findings


def clang_query_thread_locals(files, build_dir):
    """Exact thread_local decl lines via clang-query, when available.

    Returns {path: set(line)} or None when the tool or compilation database
    is unusable (caller falls back to the regex discovery).
    """
    cq = shutil.which("clang-query")
    if cq is None or not os.path.exists(
        os.path.join(build_dir, "compile_commands.json")
    ):
        return None
    matcher = (
        "match varDecl(hasThreadStorageDuration(), "
        "unless(isExpansionInSystemHeader())).bind(\"tl\")"
    )
    result = {}
    try:
        proc = subprocess.run(
            [cq, "-p", build_dir, "-c", matcher] + files,
            capture_output=True, text=True, timeout=600,
        )
    except (subprocess.SubprocessError, OSError):
        return None
    if proc.returncode != 0:
        return None
    for m in re.finditer(r"^(/[^:\n]+):(\d+):\d+: note:", proc.stdout,
                         re.MULTILINE):
        result.setdefault(m.group(1), set()).add(int(m.group(2)))
    return result


def collect_sources(paths):
    exts = (".cc", ".cpp", ".cxx", ".h", ".hpp")
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(exts):
                        files.append(os.path.join(root, name))
        elif p.endswith(exts):
            files.append(p)
    return files


def load_allowlist(path):
    allow = set()
    if path and os.path.exists(path):
        with open(path) as f:
            for raw in f:
                entry = raw.split("#", 1)[0].strip()
                if entry:
                    allow.add(entry)
    return allow


def run_lint(paths, allowlist_path, engine, build_dir):
    files = collect_sources(paths)
    if not files:
        print("scratch_escape: no C++ sources under %s" % ", ".join(paths),
              file=sys.stderr)
        return 2, []
    stripped = {}
    audited = {}
    for f in files:
        try:
            with open(f, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as e:
            print("scratch_escape: cannot read %s: %s" % (f, e),
                  file=sys.stderr)
            return 2, []
        stripped[f], audited[f] = strip_comments_and_strings(text)

    if engine in ("clang-query", "auto"):
        exact = clang_query_thread_locals(files, build_dir)
        if exact is None and engine == "clang-query":
            print("scratch_escape: clang-query or compile_commands.json "
                  "unavailable; falling back to regex discovery",
                  file=sys.stderr)
        # The exact decl lines only refine discovery; the positional
        # liveness scan below is shared by both engines. (Regex discovery is
        # a superset on this tree, so the refinement is advisory.)

    accessors = discover_accessors(stripped)
    allow = load_allowlist(allowlist_path)
    findings = []
    for f in files:
        findings.extend(scan_file(f, stripped[f], accessors, allow,
                                  audited[f]))
    return (1 if findings else 0), findings


def self_test(script_dir, allowlist_path):
    fixtures = os.path.join(script_dir, "fixtures")
    names = sorted(os.listdir(fixtures))
    failures = []
    for name in names:
        if not name.endswith(".cc"):
            continue
        path = os.path.join(fixtures, name)
        # Fixtures run with the real allowlist so suppression fixtures can
        # exercise it; bad fixtures must not appear in it.
        code, findings = run_lint([path], allowlist_path, "regex", "build")
        if name.startswith("bad_") and not findings:
            failures.append("%s: expected >=1 finding, got none" % name)
        elif name.startswith("good_") and findings:
            failures.append("%s: expected clean, got: %s"
                            % (name, findings[0]["message"]))
        elif code == 2:
            failures.append("%s: lint errored" % name)
    for fail in failures:
        print("SELF-TEST FAIL %s" % fail)
    if not failures:
        print("scratch_escape self-test: %d fixtures OK"
              % len([n for n in names if n.endswith(".cc")]))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=[], help="files or dirs")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (<basename>:<binding> per line)")
    ap.add_argument("--engine", choices=["regex", "clang-query", "auto"],
                    default="auto")
    ap.add_argument("--build-dir", default="build",
                    help="directory holding compile_commands.json")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="also write findings as JSON to this path")
    ap.add_argument("--self-test", action="store_true",
                    help="check the lint against tools/lint/fixtures/")
    args = ap.parse_args()

    script_dir = os.path.dirname(os.path.abspath(__file__))
    allowlist = args.allowlist or os.path.join(script_dir,
                                               "scratch_escape_allowlist.txt")
    if args.self_test:
        sys.exit(self_test(script_dir, allowlist))
    if not args.paths:
        ap.error("give source paths (or --self-test)")

    code, findings = run_lint(args.paths, allowlist, args.engine,
                              args.build_dir)
    for f in findings:
        print("%s:%d: error: %s" % (f["file"], f["line"], f["message"]))
    if args.json_out:
        with open(args.json_out, "w") as out:
            json.dump({"findings": findings}, out, indent=2)
    if code == 0:
        print("scratch_escape: clean")
    sys.exit(code)


if __name__ == "__main__":
    main()
