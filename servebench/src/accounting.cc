/**
 * @file
 * What the benchmark reads from the kernel: CPU time and resident
 * memory of the serving stack (this process and its exma-worker
 * children), host steal from /proc/stat, plus the percentile helper.
 */

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "harness.hh"

namespace servebench {

namespace {

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** Fields of /proc/<pid>/stat after the parenthesised comm. */
struct ProcStat
{
    bool ok = false;
    std::string comm;
    int ppid = 0;
    u64 utime = 0;
    u64 stime = 0;
};

ProcStat
readProcStat(int pid)
{
    ProcStat st;
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(f, line))
        return st;
    const auto open = line.find('(');
    const auto close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        return st;
    st.comm = line.substr(open + 1, close - open - 1);
    std::istringstream rest(line.substr(close + 1));
    // Fields 3.. (1-based): state ppid pgrp session tty tpgid flags
    // minflt cminflt majflt cmajflt utime stime.
    std::string state;
    u64 skip = 0;
    rest >> state >> st.ppid;
    for (int i = 0; i < 9; ++i)
        rest >> skip;
    rest >> st.utime >> st.stime;
    st.ok = static_cast<bool>(rest);
    return st;
}

double
rssMib(int pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (f >> key) {
        if (key == "VmRSS:") {
            double kib = 0.0;
            f >> kib;
            return kib / 1024.0;
        }
        std::string rest;
        std::getline(f, rest);
    }
    return 0.0;
}

} // namespace

std::vector<ChildProc>
liveChildren()
{
    std::vector<ChildProc> out;
    const int self = static_cast<int>(::getpid());
    DIR *d = ::opendir("/proc");
    if (d == nullptr)
        return out;
    while (const dirent *e = ::readdir(d)) {
        char *end = nullptr;
        const long pid = std::strtol(e->d_name, &end, 10);
        if (end == e->d_name || *end != '\0' || pid <= 0)
            continue;
        const ProcStat st = readProcStat(static_cast<int>(pid));
        if (st.ok && st.ppid == self)
            out.push_back({static_cast<int>(pid), st.comm});
    }
    ::closedir(d);
    return out;
}

CpuSnapshot
cpuNow(bool live_children)
{
    CpuSnapshot s;
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    s.self_s = tvSeconds(self.ru_utime) + tvSeconds(self.ru_stime);
    // Children that already ended (and were reaped) are in
    // RUSAGE_CHILDREN; live ones only in their own /proc stat.
    rusage reaped{};
    ::getrusage(RUSAGE_CHILDREN, &reaped);
    s.children_s = tvSeconds(reaped.ru_utime) + tvSeconds(reaped.ru_stime);
    if (!live_children)
        return s;
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    for (const ChildProc &c : liveChildren()) {
        const ProcStat st = readProcStat(c.pid);
        if (!st.ok)
            continue;
        s.children_s += static_cast<double>(st.utime + st.stime) / tick;
    }
    return s;
}

double
childrenRssMib()
{
    double mib = 0.0;
    for (const ChildProc &c : liveChildren())
        mib += rssMib(c.pid);
    return mib;
}

double
heapInUseMib()
{
    const struct mallinfo2 mi = ::mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

HostTicks
hostTicks()
{
    HostTicks t;
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    if (cpu != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    for (int i = 0; i < 8; ++i) {
        u64 v = 0;
        f >> v;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
stealShare(const HostTicks &a, const HostTicks &b)
{
    if (b.total <= a.total)
        return 0.0;
    return static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

namespace {

/** Nearest-rank index of @p pct among @p n sorted samples. */
size_t
rankIndex(size_t n, double pct)
{
    const double r = std::ceil(pct / 100.0 * static_cast<double>(n));
    const size_t rank = static_cast<size_t>(std::max(r, 1.0));
    return std::min(rank, n) - 1;
}

} // namespace

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    const size_t i = rankIndex(v.size(), pct);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(i), v.end());
    return v[i];
}

bool
percentileSupported(size_t n, double pct)
{
    if (n == 0)
        return false;
    return n - 1 - rankIndex(n, pct) >= 10;
}

Tail
supportedTail(const std::vector<double> &v)
{
    for (double pct : {99.0, 98.0, 95.0, 90.0, 75.0})
        if (percentileSupported(v.size(), pct))
            return {pct, percentile(v, pct)};
    return {50.0, percentile(v, 50.0)};
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace servebench
