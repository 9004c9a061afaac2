"""blocked-under-lock: no blocking operation inside a critical section.

Flags, at any call site where at least one `exma::Mutex` is held:

* future waits — `get`/`wait`/`wait_for`/`wait_until` on a future-
  shaped receiver (name contains "fut"), and `.join()`;
* sleeps — `sleep_for`/`sleep_until`/`sleepFor`;
* condition waits holding an *extra* lock — `wait*(lock)` with the
  waited lock in the argument list is the designed cv pattern and is
  exempt, unless a second mutex is also held (that one stays locked
  for the whole wait);
* file / mapping syscalls — open/fopen/read/write/mmap and friends
  (this is how src/io bodies register, without claiming every
  project function that shares a name with an io accessor);
* worker dispatch — a resolved call to one of the serving lane's
  dispatch functions defined in src/transport (`serve()`,
  `serveRequest()`, `serveShardRequest()`): a whole query batch runs
  inside the section;
* one level of inlining — calls to project functions whose own bodies
  contain any of the above (a cv wait on the callee's own lock still
  blocks the caller's lock, so it counts).

src/common/thread_annotations.hh is exempt wholesale: it defines the
locking/waiting primitives themselves. Suppress a deliberate site with
`// analyze: allow(blocked-under-lock, reason)`.
"""

import re

from ir import Finding

PASS = "blocked-under-lock"

EXEMPT_PATHS = ("common/thread_annotations.hh",)

WAIT_CALLEES = {"wait", "wait_for", "wait_until"}
SLEEP_CALLEES = {"sleep_for", "sleep_until", "sleepFor"}
SYSCALL_CALLEES = {"open", "fopen", "fread", "fwrite", "pread",
                   "pwrite", "mmap", "munmap", "fsync", "msync"}
FUT_RECV_RE = re.compile(r"fut", re.I)
# The serving lane's dispatch chain (src/transport/): Transport::serve
# runs the fault dispatch and calls the subclass's serveRequest, which
# runs serveShardRequest in process or a frame round trip to a child.
# Transport::serveHere runs serve on its caller; it is listed itself
# because the one-level inlining below does not chase dispatch through
# a callee into serve.
DISPATCH_CALLEES = {"serve", "serveHere", "serveRequest",
                    "serveShardRequest"}
DISPATCH_DIR = "transport"


def _args_tokens(call):
    return set(re.findall(r"[A-Za-z_]\w*", call.args))


def _blocking_reason(call, proj, inline=True):
    """Why this call blocks, or None. `inline=False` when classifying
    a callee body (one level only — no transitive chase)."""
    c = call.callee
    if c in WAIT_CALLEES:
        toks = _args_tokens(call)
        waited_locks = [v for v in call.lock_vars if v in toks]
        if waited_locks:
            # cv wait with its own lock: exempt unless an extra mutex
            # stays held across the wait
            if len(call.locks) > len(waited_locks):
                return ("condition wait on %r holds %d other lock(s) "
                        "for the whole wait" % (c, len(call.locks)
                                                - len(waited_locks)))
            return None
        if FUT_RECV_RE.search(call.receiver or ""):
            return "future %s() blocks" % c
        if call.receiver:
            return "%s() on %r may block" % (c, call.receiver)
        return None
    if c == "get" and FUT_RECV_RE.search(call.receiver or ""):
        return "future get() blocks"
    if c == "join":
        return "join() blocks until the thread exits"
    if c in SLEEP_CALLEES:
        return "%s() sleeps" % c
    if c in SYSCALL_CALLEES:
        return "file/mapping operation %s() blocks on I/O" % c
    if inline:
        for callee in proj.resolve_call(call):
            if c in DISPATCH_CALLEES and DISPATCH_DIR in \
                    callee.path.split("/"):
                return ("worker dispatch %s() (%s, %s:%d) runs a "
                        "whole batch" % (c, callee.qual, callee.path,
                                         callee.line))
            if any(callee.path.endswith(p) for p in EXEMPT_PATHS):
                continue
            for inner in callee.calls:
                why = _blocking_reason(inner, proj, inline=False)
                if why:
                    return ("%s (%s:%d) blocks: %s"
                            % (callee.qual, callee.path, inner.line,
                               why))
    return None


def run(proj):
    findings = []
    for fn in proj.functions:
        if any(fn.path.endswith(p) for p in EXEMPT_PATHS):
            continue
        for call in fn.calls:
            if not call.locks:
                continue
            why = _blocking_reason(call, proj)
            if why is None:
                continue
            if proj.suppressed(PASS, fn.path, call.line):
                continue
            findings.append(Finding(
                fn.path, call.line, PASS,
                "%s holds %s at a blocking call: %s"
                % (fn.qual, ", ".join(call.locks), why)))
    findings.sort(key=lambda f: (f.path, f.line, f.message))
    return findings
