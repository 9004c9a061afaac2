#include "fault/fault_injector.hh"

#include <chrono>
#include <cstdlib>
#include <mutex>

#include "common/logging.hh"

namespace exma {

std::string_view
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::KillWorker: return "kill";
    case FaultKind::HangRequest: return "hang";
    case FaultKind::DelayMs: return "delay";
    case FaultKind::ThrowInProcess: return "throw";
    case FaultKind::CorruptResponse: return "corrupt";
    }
    return "?";
}

bool
FaultRule::matches(std::string_view at) const
{
    if (site == "*")
        return true;
    if (!site.empty() && site.back() == '*') {
        const std::string_view prefix(site.data(), site.size() - 1);
        return at.substr(0, prefix.size()) == prefix;
    }
    return at == site;
}

FaultInjector::FaultInjector(std::vector<FaultRule> rules)
    : rules_(std::move(rules))
{
}

namespace {

FaultKind
parseKind(std::string_view word, std::string_view spec)
{
    for (FaultKind k :
         {FaultKind::KillWorker, FaultKind::HangRequest, FaultKind::DelayMs,
          FaultKind::ThrowInProcess, FaultKind::CorruptResponse}) {
        if (word == faultKindName(k))
            return k;
    }
    exma_fatal("fault spec '%.*s': unknown fault kind '%.*s'",
               static_cast<int>(spec.size()), spec.data(),
               static_cast<int>(word.size()), word.data());
}

u64
parseCount(std::string_view value, std::string_view spec)
{
    u64 out = 0;
    if (value.empty())
        exma_fatal("fault spec '%.*s': empty numeric value",
                   static_cast<int>(spec.size()), spec.data());
    for (const char c : value) {
        if (c < '0' || c > '9')
            exma_fatal("fault spec '%.*s': bad number '%.*s'",
                       static_cast<int>(spec.size()), spec.data(),
                       static_cast<int>(value.size()), value.data());
        out = out * 10 + static_cast<u64>(c - '0');
    }
    return out;
}

} // namespace

std::vector<FaultRule>
FaultInjector::parseSpec(std::string_view spec)
{
    std::vector<FaultRule> rules;
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t comma = std::min(spec.find(',', pos), spec.size());
        const std::string_view entry = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;

        const size_t at = entry.find('@');
        if (at == std::string_view::npos)
            exma_fatal("fault spec '%.*s': rule '%.*s' lacks '@site'",
                       static_cast<int>(spec.size()), spec.data(),
                       static_cast<int>(entry.size()), entry.data());
        FaultRule rule;
        rule.kind = parseKind(entry.substr(0, at), spec);
        rule.ms = rule.kind == FaultKind::DelayMs       ? 20
                  : rule.kind == FaultKind::HangRequest ? 600'000
                                                        : 0;

        std::string_view rest = entry.substr(at + 1);
        const size_t colon = std::min(rest.find(':'), rest.size());
        rule.site = std::string(rest.substr(0, colon));
        if (rule.site.empty())
            exma_fatal("fault spec '%.*s': rule '%.*s' has an empty site",
                       static_cast<int>(spec.size()), spec.data(),
                       static_cast<int>(entry.size()), entry.data());
        rest = colon < rest.size() ? rest.substr(colon + 1)
                                   : std::string_view{};

        while (!rest.empty()) {
            const size_t next = std::min(rest.find(':'), rest.size());
            const std::string_view kv = rest.substr(0, next);
            rest = next < rest.size() ? rest.substr(next + 1)
                                      : std::string_view{};
            const size_t eq = kv.find('=');
            if (eq == std::string_view::npos)
                exma_fatal("fault spec '%.*s': option '%.*s' lacks '='",
                           static_cast<int>(spec.size()), spec.data(),
                           static_cast<int>(kv.size()), kv.data());
            const std::string_view key = kv.substr(0, eq);
            const u64 value = parseCount(kv.substr(eq + 1), spec);
            if (key == "nth") {
                if (value == 0)
                    exma_fatal("fault spec '%.*s': nth is 1-based",
                               static_cast<int>(spec.size()), spec.data());
                rule.nth = value;
            } else if (key == "every") {
                rule.every = value;
            } else if (key == "ms") {
                rule.ms = value;
            } else {
                exma_fatal("fault spec '%.*s': unknown option '%.*s'",
                           static_cast<int>(spec.size()), spec.data(),
                           static_cast<int>(key.size()), key.data());
            }
        }
        rules.push_back(std::move(rule));
    }
    return rules;
}

std::vector<FaultAction>
FaultInjector::at(std::string_view site)
{
    std::vector<FaultAction> fired;
    MutexLock lock(mtx_);
    u64 *count = nullptr;
    for (auto &[name, n] : counts_) {
        if (name == site) {
            count = &n;
            break;
        }
    }
    if (!count) {
        counts_.emplace_back(std::string(site), 0);
        count = &counts_.back().second;
    }
    const u64 hit = ++*count;

    for (const FaultRule &rule : rules_) {
        if (!rule.matches(site) || hit < rule.nth)
            continue;
        const bool fires = hit == rule.nth ||
                           (rule.every > 0 &&
                            (hit - rule.nth) % rule.every == 0);
        if (fires)
            fired.push_back({rule.kind, rule.ms});
    }
    return fired;
}

u64
FaultInjector::hits(std::string_view site) const
{
    MutexLock lock(mtx_);
    for (const auto &[name, n] : counts_) {
        if (name == site)
            return n;
    }
    return 0;
}

namespace detail {
std::atomic<FaultInjector *> g_fault_injector{nullptr};
} // namespace detail

namespace {

// Keeps the installed injector alive while raw pointers circulate
// through faultInjector(). Function-local static so the slot outlives
// every static-destruction-order combination; the fast path never
// touches it.
struct InjectorOwner {
    Mutex mtx;
    std::shared_ptr<FaultInjector> owner EXMA_GUARDED_BY(mtx);
    // Every injector ever replaced, freed only at exit: a lane serving
    // an attempt that outlived its search may still be probing one
    // through a raw faultInjector() pointer.
    std::vector<std::shared_ptr<FaultInjector>> retired EXMA_GUARDED_BY(mtx);
};

InjectorOwner &
injectorOwner()
{
    static InjectorOwner slot;
    return slot;
}

} // namespace

std::shared_ptr<FaultInjector>
installFaultInjector(std::shared_ptr<FaultInjector> injector)
{
    InjectorOwner &slot = injectorOwner();
    MutexLock lock(slot.mtx);
    std::shared_ptr<FaultInjector> prev = std::move(slot.owner);
    if (prev)
        slot.retired.push_back(prev);
    slot.owner = std::move(injector);
    detail::g_fault_injector.store(slot.owner.get(),
                                   std::memory_order_release);
    return prev;
}

void
installFaultInjectorFromEnvOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *spec = std::getenv("EXMA_FAULTS");
        if (!spec || !*spec || faultInjector())
            return;
        installFaultInjector(std::make_shared<FaultInjector>(
            FaultInjector::parseSpec(spec)));
        exma_inform("fault injector armed: EXMA_FAULTS=%s", spec);
    });
}

void
CancelToken::cancel()
{
    {
        MutexLock lock(mtx_);
        cancelled_ = true;
    }
    cv_.notify_all();
}

bool
CancelToken::cancelled() const
{
    MutexLock lock(mtx_);
    return cancelled_;
}

bool
CancelToken::sleepFor(u64 ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(ms);
    MutexLock lock(mtx_);
    while (!cancelled_) {
        if (cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout)
            return !cancelled_;
    }
    return false;
}

} // namespace exma
