/**
 * @file
 * Deterministic fault injection for the serving tier.
 *
 * A FaultInjector holds a list of rules, each binding a fault kind
 * (kill / hang / delay / throw / corrupt) to a named *site* — a string
 * like "shard00/r1" (a replica worker) or "io.load" (the mmap load
 * path) — with counter-based triggers: fire on the Nth hit of that
 * site, optionally every `every` hits thereafter. All decisions are
 * pure functions of the rule list and the per-site hit counters, so a
 * failing fault schedule replays exactly.
 *
 * The injector is compiled in unconditionally but costs one relaxed
 * atomic load per probe when disabled: instrumented code calls the
 * free function faultInjector(), which returns nullptr unless an
 * injector has been installed (programmatically, or from the
 * EXMA_FAULTS environment variable via
 * installFaultInjectorFromEnvOnce()).
 *
 * Rule spec grammar (comma-separated rules in EXMA_FAULTS):
 *
 *     kind@site[:key=value]...
 *
 *     kinds:  kill | hang | delay | throw | corrupt
 *     site:   exact name, or a '*'-terminated prefix ("shard00*"),
 *             or "*" alone for every site
 *     keys:   nth=N    first firing hit, 1-based        (default 1)
 *             every=N  re-fire period after nth; 0=once (default 0)
 *             ms=N     sleep for delay/hang             (default
 *                      delay:20, hang:600000)
 *
 * Example: EXMA_FAULTS="kill@shard01/r0:nth=3,delay@*:ms=5:every=10"
 */

#ifndef EXMA_FAULT_FAULT_INJECTOR_HH
#define EXMA_FAULT_FAULT_INJECTOR_HH

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace exma {

enum class FaultKind : u8 {
    KillWorker,      ///< worker dies before serving the request
    HangRequest,     ///< worker sleeps `ms`, then dies (stuck replica)
    DelayMs,         ///< worker sleeps `ms`, then serves (slow replica)
    ThrowInProcess,  ///< process() throws mid-request
    CorruptResponse, ///< response payload flipped after canary stamping
};

/** Parse/print helpers for specs and diagnostics. */
std::string_view faultKindName(FaultKind kind);

struct FaultRule {
    FaultKind kind = FaultKind::DelayMs;
    std::string site;  ///< exact site, "prefix*", or "*"
    u64 nth = 1;       ///< 1-based hit index of the first firing
    u64 every = 0;     ///< re-fire period after nth; 0 = fire once
    u64 ms = 0;        ///< sleep duration for DelayMs / HangRequest

    bool matches(std::string_view at) const;
};

/** One fired fault, as returned by FaultInjector::at(). */
struct FaultAction {
    FaultKind kind;
    u64 ms;
};

class FaultInjector
{
  public:
    explicit FaultInjector(std::vector<FaultRule> rules);

    /**
     * Parse a comma-separated rule spec (see file comment). Malformed
     * specs exma_fatal: a mistyped EXMA_FAULTS must never silently
     * disable the fault it meant to inject.
     */
    static std::vector<FaultRule> parseSpec(std::string_view spec);

    /**
     * Record one hit of `site` and return the actions of every rule
     * that fires on this hit, in rule order. Thread-safe; counters are
     * per concrete site, so a "shard00*" rule counts the replica sites
     * shard00/r0 and shard00/r1 independently, and counts survive
     * worker respawns (sites are named stably).
     */
    std::vector<FaultAction> at(std::string_view site);

    /** Total hits recorded for a concrete site (for tests/stats). */
    u64 hits(std::string_view site) const;

  private:
    const std::vector<FaultRule> rules_;
    mutable Mutex mtx_;
    // site -> hit count; flat vector: site cardinality is tiny
    // (shards × replicas + a few io sites).
    std::vector<std::pair<std::string, u64>> counts_ EXMA_GUARDED_BY(mtx_);
};

/** @{ Global injector registration (process-wide, test-overridable). */

/**
 * Install (or clear with nullptr); returns the previous injector. A
 * replaced injector is kept alive until exit, because a serving lane
 * may still be probing it through the raw faultInjector() pointer.
 */
std::shared_ptr<FaultInjector>
installFaultInjector(std::shared_ptr<FaultInjector> injector);

/**
 * One-shot: if EXMA_FAULTS is set and nothing is installed yet, parse
 * it and install. Serving entry points
 * (router construction, loadIndex) call this so env-driven injection
 * works in benches and CLIs without code changes.
 */
void installFaultInjectorFromEnvOnce();

namespace detail {
extern std::atomic<FaultInjector *> g_fault_injector;
} // namespace detail

/** The installed injector, or nullptr. One relaxed load when absent. */
inline FaultInjector *
faultInjector()
{
    return detail::g_fault_injector.load(std::memory_order_acquire);
}

/** RAII install-for-scope, for tests. Restores the previous injector. */
class ScopedFaultInjector
{
  public:
    explicit ScopedFaultInjector(std::shared_ptr<FaultInjector> injector)
        : prev_(installFaultInjector(std::move(injector)))
    {
    }
    ~ScopedFaultInjector() { installFaultInjector(std::move(prev_)); }
    ScopedFaultInjector(const ScopedFaultInjector &) = delete;
    ScopedFaultInjector &operator=(const ScopedFaultInjector &) = delete;

  private:
    std::shared_ptr<FaultInjector> prev_;
};

/** @} */

/**
 * A cancellable sleep: injected hangs and delays block on this instead
 * of std::this_thread::sleep_for, so kill() / worker destruction can
 * interrupt a fault that would otherwise pin the thread for minutes.
 */
class CancelToken
{
  public:
    /** Wake every in-flight and future sleepFor() immediately. */
    void cancel();

    bool cancelled() const;

    /**
     * Sleep up to `ms` milliseconds; returns true if the full duration
     * elapsed, false if cancel() cut it short.
     */
    bool sleepFor(u64 ms);

  private:
    mutable Mutex mtx_;
    CondVar cv_;
    bool cancelled_ EXMA_GUARDED_BY(mtx_) = false;
};

} // namespace exma

#endif // EXMA_FAULT_FAULT_INJECTOR_HH
