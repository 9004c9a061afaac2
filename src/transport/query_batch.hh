/**
 * @file
 * The query payload of a worker request, owned or borrowed. The old
 * seam aliased the router's whole batch through a raw pointer —
 * fine in-process, meaningless across a process boundary. A
 * QueryBatchView is the encodable replacement: the router borrows its
 * shared batch (zero copies, exactly the old data path), while a wire
 * decoder owns the queries it just unpacked. Either way the view
 * presents one shape — query(j) is the j-th query this worker must
 * serve and ids()[j] is the router-side id its response row echoes.
 */

#ifndef EXMA_TRANSPORT_QUERY_BATCH_HH
#define EXMA_TRANSPORT_QUERY_BATCH_HH

#include <vector>

#include "common/dna.hh"
#include "common/types.hh"

namespace exma {

class QueryBatchView
{
  public:
    /** An empty batch (serves zero queries). */
    QueryBatchView() = default;

    /**
     * Borrow @p batch — query storage that must outlive every request
     * holding this view, up to its completion — and serve
     * batch[ids[j]] for every j. The router lends the caller's batch
     * when every attempt answers before search() returns, and
     * otherwise a copy its completions keep alive. This is the
     * in-process fast path: no query is copied per request.
     */
    static QueryBatchView borrow(const std::vector<std::vector<Base>> &batch,
                                 std::vector<u32> ids);

    /**
     * Own @p queries (one per served query, index-aligned with
     * @p ids); this is what a wire decoder builds. ids[j] is only an
     * echo for the router-side scatter — it does not index queries.
     */
    static QueryBatchView own(std::vector<std::vector<Base>> queries,
                              std::vector<u32> ids);

    /** Number of queries this request asks the worker to serve. */
    size_t size() const { return ids_.size(); }

    bool empty() const { return ids_.empty(); }

    /** Router-side query ids, index-aligned with the response rows. */
    const std::vector<u32> &ids() const { return ids_; }

    /** The j-th query to serve, j in [0, size()). */
    const std::vector<Base> &query(size_t j) const
    {
        return borrowed_ ? (*borrowed_)[ids_[j]] : owned_[j];
    }

    /**
     * Batch storage + index list in the shape BatchSearcher's routed
     * overload takes: storage()[storageIds()[j]] == query(j).
     */
    const std::vector<std::vector<Base>> &storage() const
    {
        return borrowed_ ? *borrowed_ : owned_;
    }

    const std::vector<u32> &storageIds() const
    {
        return borrowed_ ? ids_ : owned_ids_;
    }

    /** Total bases across the served queries (wire cross-check). */
    u64 totalBases() const;

  private:
    const std::vector<std::vector<Base>> *borrowed_ = nullptr;
    std::vector<std::vector<Base>> owned_;
    std::vector<u32> ids_;
    std::vector<u32> owned_ids_; ///< iota over owned_, owned mode only
};

} // namespace exma

#endif // EXMA_TRANSPORT_QUERY_BATCH_HH
