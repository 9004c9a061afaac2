#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace exma {
namespace {

TEST(ThreadPool, HardwareThreadsAtLeastOne)
{
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    for (const u64 n : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
        for (const u64 grain : {1ull, 3ull, 16ull, 5000ull}) {
            std::vector<std::atomic<int>> hits(n);
            for (auto &h : hits)
                h = 0;
            parallelFor(n, grain, [&](u64 b, u64 e, unsigned slot) {
                EXPECT_LT(slot, parallelForSlots());
                for (u64 i = b; i < e; ++i)
                    ++hits[i];
            });
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
        }
    }
}

TEST(ThreadPool, ParallelForUsesMultipleSlots)
{
    std::mutex m;
    std::set<unsigned> slots;
    // Many tiny chunks so several participants get a chance to claim
    // work; the assertion is deliberately weak (>= 1 slot) because a
    // loaded or single-core machine may legitimately let the caller
    // drain everything.
    parallelFor(256, 1, [&](u64, u64, unsigned slot) {
        std::lock_guard<std::mutex> lock(m);
        slots.insert(slot);
    });
    EXPECT_GE(slots.size(), 1u);
    for (unsigned s : slots)
        EXPECT_LT(s, parallelForSlots());
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    EXPECT_THROW(parallelFor(
                     100, 4,
                     [](u64 b, u64, unsigned) {
                         if (b >= 48)
                             throw std::runtime_error("chunk failed");
                     },
                     2),
                 std::runtime_error);
    // The pool stays usable after a throwing loop.
    std::atomic<u64> sum{0};
    parallelFor(
        10, 2,
        [&](u64 b, u64 e, unsigned) {
            for (u64 i = b; i < e; ++i)
                sum += i;
        },
        2);
    EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, FreeParallelForSequentialWidthRunsInline)
{
    // threads=1 must run on the caller: slot is always 0 and chunks
    // arrive in order.
    std::vector<u64> begins;
    parallelFor(
        20, 6,
        [&](u64 b, u64 e, unsigned slot) {
            EXPECT_EQ(slot, 0u);
            EXPECT_LE(e, 20u);
            begins.push_back(b);
        },
        1);
    EXPECT_EQ(begins, (std::vector<u64>{0, 6, 12, 18}));
}

TEST(ThreadPool, OneChunkLoopRunsOnTheCaller)
{
    // The caller claims a chunk itself, so a one-chunk loop wakes no
    // helper: were one woken, it would win the cursor now and then and
    // run the chunk on a worker (slot > 0) while the caller slept.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<unsigned> elsewhere{0};
    for (int loop = 0; loop < 1000; ++loop)
        parallelFor(5, 16, [&](u64 b, u64 e, unsigned slot) {
            EXPECT_EQ(b, 0u);
            EXPECT_EQ(e, 5u);
            if (slot != 0 || std::this_thread::get_id() != caller)
                ++elsewhere;
        });
    EXPECT_EQ(elsewhere.load(), 0u) << "one-chunk loops ran off the caller";
}

TEST(ThreadPool, FreeParallelForMatchesSequentialSum)
{
    for (unsigned threads : {0u, 1u, 2u, 8u}) {
        std::atomic<u64> sum{0};
        parallelFor(
            10000, 64,
            [&](u64 b, u64 e, unsigned) {
                u64 local = 0;
                for (u64 i = b; i < e; ++i)
                    local += i;
                sum += local;
            },
            threads);
        EXPECT_EQ(sum.load(), 10000u * 9999u / 2) << "threads=" << threads;
    }
}

TEST(ThreadPool, ParallelForSlotsBounds)
{
    EXPECT_EQ(parallelForSlots(1), 1u);
    // The caller plus one worker per hardware thread.
    EXPECT_EQ(parallelForSlots(0), hardwareThreads() + 1);
    EXPECT_EQ(parallelForSlots(2), 2u);
    EXPECT_LE(parallelForSlots(8), parallelForSlots(0));
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    std::atomic<u64> total{0};
    parallelFor(8, 1, [&](u64 b, u64 e, unsigned) {
        for (u64 i = b; i < e; ++i) {
            parallelFor(32, 4, [&](u64 ib, u64 ie, unsigned) {
                total += ie - ib;
            });
        }
    });
    EXPECT_EQ(total.load(), 8u * 32u);
}

} // namespace
} // namespace exma
