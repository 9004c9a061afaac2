/**
 * @file
 * The in-flight ring: how one thread keeps several independent,
 * memory-bound jobs going at once — the software stand-in for the
 * accelerator's scheduling queue (§IV.C), which keeps many searches in
 * flight so their DRAM accesses overlap.
 *
 * A job here is a chain of dependent random reads (a backward search,
 * an LF walk). Each visit resolves one read, whose cache line the
 * previous visit prefetched, and prefetches the next; between two
 * visits to one job the ring visits every other live job, so up to
 * kInFlight misses are outstanding instead of one.
 */

#ifndef EXMA_COMMON_INFLIGHT_HH
#define EXMA_COMMON_INFLIGHT_HH

#include <array>
#include <cstddef>

namespace exma {

/**
 * Jobs one thread keeps in flight (ExmaTable's staged search,
 * FmIndex::locateRows). A constant rather than an option: the right
 * depth is a property of the memory system, not of a caller or a
 * workload (README "Interleaved search and locate" gives the sweep
 * that chose it).
 */
inline constexpr unsigned kInFlight = 16;

namespace detail {

template <typename Slot, size_t Width, typename Start, typename Visit>
void
runRing(Start &start, Visit &visit)
{
    std::array<Slot, Width> ring;
    size_t live = 0;
    while (live < ring.size() && start(ring[live]))
        ++live;
    while (live > 0) {
        for (size_t s = 0; s < live;) {
            if (visit(ring[s]) || start(ring[s]))
                ++s;
            else
                ring[s] = ring[--live];
        }
    }
}

} // namespace detail

/**
 * Run @p jobs jobs round-robin on a ring of kInFlight slots until none
 * is left. `start(slot)` puts the next job on @p slot (false when there
 * is none); `visit(slot)` advances the slot's job one stage (false once
 * it is done). A finished slot takes the next job at once, so the ring
 * stays full while jobs remain. A single job has nothing to overlap
 * with, so it runs on a one-slot ring rather than initialising them all.
 */
template <typename Slot, typename Start, typename Visit>
void
runInFlight(size_t jobs, Start &&start, Visit &&visit)
{
    if (jobs <= 1)
        detail::runRing<Slot, 1>(start, visit);
    else
        detail::runRing<Slot, kInFlight>(start, visit);
}

} // namespace exma

#endif // EXMA_COMMON_INFLIGHT_HH
