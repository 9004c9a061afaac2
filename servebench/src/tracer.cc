/**
 * @file
 * The in-memory span recorder and its writer.
 */

#include <cstring>
#include <fstream>

#include "harness.hh"

namespace servebench {

namespace {

u64
sinceNs(Clock::time_point epoch, Clock::time_point t)
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
            .count());
}

} // namespace

Tracer::Tracer(Clock::time_point epoch) : epoch_(epoch), next_id_(1)
{
}

u64
Tracer::open(const char *name, u64 parent, u64 request, int shard)
{
    Span s;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.shard = shard;
    s.name = name;
    s.start_ns = sinceNs(epoch_, Clock::now());
    s.end_ns = s.start_ns;
    spans_.push_back(s);
    return s.id;
}

void
Tracer::close(u64 id)
{
    const u64 now = sinceNs(epoch_, Clock::now());
    // Spans close in roughly LIFO order; search from the back.
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
        if (it->id == id) {
            it->end_ns = now;
            return;
        }
}

u64
Tracer::add(const char *name, u64 parent, u64 request, int shard,
            Clock::time_point start, Clock::time_point end)
{
    Span s;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.shard = shard;
    s.name = name;
    s.start_ns = sinceNs(epoch_, start);
    s.end_ns = sinceNs(epoch_, end);
    spans_.push_back(s);
    return s.id;
}

u64
Tracer::totalNs(const char *name) const
{
    u64 ns = 0;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            ns += s.durationNs();
    return ns;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "id\tparent\trequest\tshard\tname\tstart_ns\tend_ns\n";
    for (const Span &s : spans)
        f << s.id << '\t' << s.parent << '\t' << s.request << '\t'
          << s.shard << '\t' << s.name << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    return static_cast<bool>(f);
}

} // namespace servebench
