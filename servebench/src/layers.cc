/**
 * @file
 * The traced per-layer run. For a seeded sample of the workload's own
 * requests, the harness classifies each query as the router does and
 * then calls every layer's public entry point on the same inputs,
 * recording one span per call:
 *
 *   request
 *   └─ route                 ShardRouter::search
 *      ├─ shard.classify     queryPrefixRange + ownersOfRange
 *      ├─ transport.inproc   Transport::submit on the router's replica 0
 *      │  ├─ batch           BatchSearcher::search(queries, ids)
 *      │  │  ├─ core.search      ExmaTable::search
 *      │  │  └─ fmindex.locate   ExmaTable::locateAllGlobal
 *      │  ├─ transport.wire.encode   encodeRequest
 *      │  └─ transport.wire.decode   decodeResponse
 *      └─ transport.socket   the same request on a SocketTransport
 *                            serving the shard files saveIndex wrote
 *
 * The calls run one after another, so a parent's span does not
 * contain its children in time; "parent" names the layer that calls
 * the child when the stack serves the request. A layer's self time is
 * its span minus its inner layer's span for the same request.
 *
 * Tracing overhead is the share of the probes' wall time spent taking
 * a span's two clock readings and recording it, from a calibrated cost
 * per span: the timed phase of a traced run is not traced, so tracing
 * cannot move an end-to-end figure.
 */

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "batch/batch_searcher.hh"
#include "common/rng.hh"
#include "harness.hh"
#include "io/table_io.hh"
#include "persist/index_io.hh"
#include "transport/socket_transport.hh"
#include "transport/wire.hh"

namespace servebench {

namespace {

namespace fs = std::filesystem;
using exma::ShardRouter;
using exma::Transport;
using exma::u32;

// Sampled requests per workload shape, and hop-probe sizes.
constexpr size_t kClosedSampleRequests = 6;
constexpr size_t kOpenSampleRequests = 1024;
constexpr size_t kHopSingles = 256;
constexpr size_t kHopBatch = 4096;
constexpr int kHopBatchReps = 3;
constexpr size_t kCalibrationSpans = 100000;

/** Per-shard id lists for one request, as ShardRouter::search builds. */
struct Classified
{
    std::vector<std::vector<u32>> ids;
    u64 calls = 0;
};

Classified
classify(const exma::ShardPlan &plan, size_t n_shards, const Queries &qs)
{
    Classified c;
    c.ids.resize(n_shards);
    for (size_t i = 0; i < qs.size(); ++i) {
        const exma::PrefixRange r =
            plan.queryPrefixRange(qs[i].data(), qs[i].size());
        const auto [first, last] = plan.ownersOfRange(r.lo, r.hi);
        for (size_t s = first; s <= last; ++s)
            c.ids[s].push_back(static_cast<u32>(i));
        c.calls += last - first + 1;
    }
    return c;
}

/** Single owner shard of @p q, or -1 when it would be broadcast. */
int
ownerOf(const exma::ShardPlan &plan, const std::vector<Base> &q)
{
    const exma::PrefixRange r = plan.queryPrefixRange(q.data(), q.size());
    const auto [first, last] = plan.ownersOfRange(r.lo, r.hi);
    return first == last ? static_cast<int>(first) : -1;
}

/** One synchronous round trip; dies on anything but an Ok answer. */
exma::WorkerResponse
roundTrip(Transport &t, const Queries &qs, const std::vector<u32> &ids,
          Clock::time_point &t0, Clock::time_point &t1)
{
    exma::WorkerRequest req{exma::QueryBatchView::borrow(qs, ids),
                            exma::BatchConfig{}};
    t0 = Clock::now();
    exma::WorkerResponse r = t.submit(std::move(req)).get();
    t1 = Clock::now();
    if (!r.ok() || exma::responseCanary(r) != r.canary)
        throw std::runtime_error("transport " + t.name() +
                                 " failed a traced request: " + r.error);
    return r;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Wall nanoseconds one traced call adds: two clock readings and a
 * Tracer::add, averaged over a scratch tracer of @p n spans.
 */
double
spanCostNs(size_t n)
{
    Tracer scratch(Clock::now());
    const auto t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        scratch.add("calibrate", 0, i, -1, a, b);
    }
    return secondsBetween(t0, Clock::now()) * 1e9 / static_cast<double>(n);
}

u64
dirBytes(const fs::path &dir)
{
    u64 n = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            n += e.file_size();
    return n;
}

} // namespace

std::vector<Metric>
runLayerTrace(const LayerContext &ctx, Tracer &tr, FailureTally &tally)
{
    const ShardRouter &router = ctx.router;
    const exma::ShardPlan &plan = router.plan();
    const size_t n_shards = router.shardCount();

    // -- setup layers: persist save/load of this very router ---------
    const fs::path dir = fs::path(ctx.scratch_dir) / ("index-" +
                                                   std::string(ctx.w.name));
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto t0 = Clock::now();
    exma::saveIndex(router, dir.string());
    auto t1 = Clock::now();
    const double save_s = secondsBetween(t0, t1);
    const double index_mib =
        static_cast<double>(dirBytes(dir)) / (1024.0 * 1024.0);
    double load_s = 0.0;
    {
        const exma::LoadedIndex li = exma::loadIndex(dir.string());
        load_s = li.load_seconds;
    }

    // -- the query pool every probe draws from ------------------------
    std::vector<const std::vector<Base> *> pool;
    if (ctx.w.open_loop) {
        for (const auto &reqs : ctx.in.requests)
            for (const Queries &r : reqs)
                pool.push_back(&r[0]);
    } else {
        for (const Queries &b : ctx.in.batches)
            for (const auto &q : b)
                pool.push_back(&q);
    }
    exma::Rng rng(streamSeed(ctx.seed, 6));

    // -- both transports per shard over the same shard state ----------
    // The router's own in-process replica, and a socket worker that
    // loads the files saved above; spawn time runs from construction
    // until a one-query request is answered.
    std::vector<std::shared_ptr<Transport>> inproc(n_shards);
    std::vector<std::shared_ptr<Transport>> socket(n_shards);
    std::vector<double> spawn_ms;
    for (size_t s = 0; s < n_shards; ++s) {
        const exma::ExmaTable *table = router.shardTable(s);
        const auto &scan = router.shardScanRef(s);
        const bool is_empty = table == nullptr && scan.empty();
        exma::SocketTransportConfig scfg;
        scfg.binary = ctx.worker_bin;
        scfg.state = table ? "table" : is_empty ? "empty" : "scan";
        if (!is_empty)
            scfg.stem = exma::io_detail::shardStem(dir.string(), s);
        Queries probe;
        for (size_t tries = 0; probe.empty() && tries < pool.size();
             ++tries) {
            const auto *q = pool[rng.below(pool.size())];
            if (ownerOf(plan, *q) == static_cast<int>(s))
                probe.push_back(*q);
        }
        if (probe.empty())
            probe.push_back(*pool[0]);
        t0 = Clock::now();
        socket[s] = std::make_shared<exma::SocketTransport>(
            "bench-socket/" + std::to_string(s), scfg, table != nullptr,
            is_empty);
        Clock::time_point r0, r1;
        roundTrip(*socket[s], probe, {0}, r0, r1);
        t1 = Clock::now();
        spawn_ms.push_back(secondsBetween(t0, t1) * 1e3);
        inproc[s] = router.replicaSet(s).replica(0);
    }

    // -- the sampled requests, through every layer --------------------
    std::vector<const Queries *> sample;
    std::vector<Queries> singles;
    if (ctx.w.open_loop) {
        singles.reserve(kOpenSampleRequests);
        for (size_t i = 0; i < kOpenSampleRequests; ++i)
            singles.push_back({*pool[rng.below(pool.size())]});
        for (const Queries &q : singles)
            sample.push_back(&q);
    } else {
        for (size_t i = 0; i < kClosedSampleRequests; ++i)
            sample.push_back(
                &ctx.in.batches[rng.below(ctx.in.batches.size())]);
    }

    u64 queries = 0;
    u64 calls = 0;
    std::vector<u64> shard_queries(n_shards, 0);
    u64 searched_queries = 0;
    u64 searched_bases = 0;
    u64 kept = 0;
    u64 located = 0;
    exma::SearchStats stats;
    u64 wire_queries = 0;
    u64 wire_bytes = 0;
    u64 decoded_hits = 0;
    double worker_s = 0.0;
    u64 worker_calls = 0;
    std::vector<double> route_self_us;
    u64 rid = 0;
    const auto probes_start = Clock::now();

    for (const Queries *req : sample) {
        const Queries &qs = *req;
        ++rid;
        const u64 req_span = tr.open("request", 0, rid);

        t0 = Clock::now();
        const exma::RoutedResult rr = router.search(qs);
        t1 = Clock::now();
        tally.add(rr);
        const u64 route_span = tr.add("route", req_span, rid, -1, t0, t1);
        const double route_us = secondsBetween(t0, t1) * 1e6;

        t0 = Clock::now();
        const Classified cls = classify(plan, n_shards, qs);
        t1 = Clock::now();
        tr.add("shard.classify", route_span, rid, -1, t0, t1);
        queries += qs.size();
        calls += cls.calls;

        double slowest_inproc_us = 0.0;
        for (size_t s = 0; s < n_shards; ++s) {
            const std::vector<u32> &ids = cls.ids[s];
            if (ids.empty())
                continue;
            shard_queries[s] += ids.size();

            Clock::time_point a, b;
            const exma::WorkerResponse inproc_resp =
                roundTrip(*inproc[s], qs, ids, a, b);
            const u64 inproc_span = tr.add("transport.inproc", route_span, rid,
                                        static_cast<int>(s), a, b);
            slowest_inproc_us =
                std::max(slowest_inproc_us, secondsBetween(a, b) * 1e6);
            worker_s += inproc_resp.seconds;
            ++worker_calls;
            const exma::WorkerResponse socket_resp =
                roundTrip(*socket[s], qs, ids, a, b);
            tr.add("transport.socket", route_span, rid, static_cast<int>(s),
                   a, b);
            if (socket_resp.hits != inproc_resp.hits)
                throw std::runtime_error(
                    "in-process and socket transports disagree on "
                    "shard " +
                    std::to_string(s));

            // Wire codec on this very request and its response.
            const exma::WorkerRequest wreq{
                exma::QueryBatchView::borrow(qs, ids), exma::BatchConfig{}};
            a = Clock::now();
            const std::vector<exma::u8> req_bytes =
                exma::encodeRequest(wreq);
            b = Clock::now();
            tr.add("transport.wire.encode", inproc_span, rid,
                   static_cast<int>(s), a, b);
            const std::vector<exma::u8> resp_bytes =
                exma::encodeResponse(inproc_resp);
            a = Clock::now();
            const exma::WorkerResponse decoded =
                exma::decodeResponse(resp_bytes, -1);
            b = Clock::now();
            tr.add("transport.wire.decode", inproc_span, rid,
                   static_cast<int>(s), a, b);
            wire_queries += ids.size();
            wire_bytes += resp_bytes.size();
            for (const auto &h : decoded.hits)
                decoded_hits += h.size();

            const exma::ExmaTable *table = router.shardTable(s);
            if (table == nullptr)
                continue;
            exma::BatchConfig bcfg;
            bcfg.threads = 1;
            bcfg.locate = true;
            const exma::BatchSearcher searcher(*table, bcfg);
            a = Clock::now();
            const exma::BatchResult br = searcher.search(qs, ids);
            b = Clock::now();
            const u64 batch_span =
                tr.add("batch", inproc_span, rid, static_cast<int>(s), a, b);

            std::vector<exma::Interval> ivs(ids.size());
            a = Clock::now();
            for (size_t j = 0; j < ids.size(); ++j)
                ivs[j] = table->search(qs[ids[j]], &stats);
            b = Clock::now();
            tr.add("core.search", batch_span, rid, static_cast<int>(s), a,
                   b);
            a = Clock::now();
            for (size_t j = 0; j < ids.size(); ++j) {
                kept += table->locateAllGlobal(ivs[j], qs[ids[j]].size())
                            .size();
                located += ivs[j].count();
            }
            b = Clock::now();
            tr.add("fmindex.locate", batch_span, rid, static_cast<int>(s),
                   a, b);
            searched_queries += ids.size();
            for (u32 id : ids)
                searched_bases += qs[id].size();
            if (br.positions != inproc_resp.hits)
                throw std::runtime_error(
                    "BatchSearcher disagrees with the shard worker on "
                    "shard " +
                    std::to_string(s));
        }
        route_self_us.push_back(route_us - slowest_inproc_us);
        tr.close(req_span);
    }

    // -- transport hops at 1 and kHopBatch queries --------------------
    // Round trip minus the worker-reported compute, on identical
    // requests to both transports, alternating which goes first.
    std::vector<double> hop_in_1, hop_sock_1, hop_in_n, hop_sock_n;
    const auto hop = [&](Transport &t, const Queries &qs,
                         const std::vector<u32> &ids,
                         std::vector<double> &out, int shard, u64 rid) {
        Clock::time_point a, b;
        const exma::WorkerResponse resp = roundTrip(t, qs, ids, a, b);
        tr.add(&t == inproc[shard].get() ? "transport.inproc.hop"
                                         : "transport.socket.hop",
               0, rid, shard, a, b);
        out.push_back(secondsBetween(a, b) * 1e6 - resp.seconds * 1e6);
    };
    for (size_t i = 0; i < kHopSingles; ++i) {
        const Queries one = {*pool[rng.below(pool.size())]};
        const int s = ownerOf(plan, one[0]);
        if (s < 0)
            continue;
        const std::vector<u32> ids = {0};
        if (i % 2 == 0) {
            hop(*inproc[s], one, ids, hop_in_1, s, ++rid);
            hop(*socket[s], one, ids, hop_sock_1, s, rid);
        } else {
            hop(*socket[s], one, ids, hop_sock_1, s, ++rid);
            hop(*inproc[s], one, ids, hop_in_1, s, rid);
        }
    }
    for (size_t s = 0; s < n_shards; ++s) {
        Queries big;
        const size_t offset = rng.below(pool.size());
        for (size_t k = 0; k < pool.size() && big.size() < kHopBatch; ++k) {
            const auto *q = pool[(offset + k) % pool.size()];
            if (ownerOf(plan, *q) == static_cast<int>(s))
                big.push_back(*q);
        }
        if (big.empty())
            continue;
        std::vector<u32> ids(big.size());
        std::iota(ids.begin(), ids.end(), 0);
        for (int rep = 0; rep < kHopBatchReps; ++rep) {
            hop(*inproc[s], big, ids, hop_in_n, static_cast<int>(s), ++rid);
            hop(*socket[s], big, ids, hop_sock_n, static_cast<int>(s), rid);
        }
    }
    const double probes_ns =
        secondsBetween(probes_start, Clock::now()) * 1e9;
    const double trace_ns = static_cast<double>(tr.spans().size()) *
                            spanCostNs(kCalibrationSpans);

    const double q = static_cast<double>(queries);
    const double sq = static_cast<double>(searched_queries);
    const double search_ns = static_cast<double>(tr.totalNs("core.search"));
    const double locate_ns =
        static_cast<double>(tr.totalNs("fmindex.locate"));
    const double batch_ns = static_cast<double>(tr.totalNs("batch"));
    const double max_shard = static_cast<double>(
        *std::max_element(shard_queries.begin(), shard_queries.end()));
    const double shard_total = static_cast<double>(std::accumulate(
        shard_queries.begin(), shard_queries.end(), u64{0}));

    return {
        {"shard.classify_ns_per_query",
         ratio(static_cast<double>(tr.totalNs("shard.classify")), q), "ns"},
        {"shard.calls_per_query", ratio(static_cast<double>(calls), q),
         "count"},
        {"shard.max_share", ratio(max_shard, shard_total), "share"},
        {"core.search_ns_per_base",
         ratio(search_ns, static_cast<double>(searched_bases)), "ns"},
        {"core.kstep_iters_per_query",
         ratio(static_cast<double>(stats.kstep_iterations), sq), "count"},
        {"core.onestep_iters_per_query",
         ratio(static_cast<double>(stats.onestep_iterations), sq),
         "count"},
        {"learned.model_lookups_per_query",
         ratio(static_cast<double>(stats.model_lookups), sq), "count"},
        {"learned.probes_per_lookup",
         ratio(static_cast<double>(stats.total_probes),
               static_cast<double>(stats.model_lookups)),
         "count"},
        {"learned.mean_error", stats.meanError(), "rows"},
        {"fmindex.locate_ns_per_hit",
         ratio(locate_ns, static_cast<double>(kept)), "ns"},
        {"fmindex.hits_per_query", ratio(static_cast<double>(kept), sq),
         "count"},
        {"fmindex.located_per_hit",
         ratio(static_cast<double>(located), static_cast<double>(kept)),
         "count"},
        {"batch.ns_per_query", ratio(batch_ns, sq), "ns"},
        {"batch.overhead_share",
         1.0 - ratio(search_ns + locate_ns, batch_ns), "share"},
        {"transport.inproc.hop_us_q1", median(hop_in_1), "us"},
        {"transport.inproc.hop_us_q4096", median(hop_in_n), "us"},
        {"transport.socket.hop_us_q1", median(hop_sock_1), "us"},
        {"transport.socket.hop_us_q4096", median(hop_sock_n), "us"},
        {"transport.worker_compute_us",
         ratio(worker_s * 1e6, static_cast<double>(worker_calls)), "us"},
        {"transport.wire.encode_ns_per_query",
         ratio(static_cast<double>(tr.totalNs("transport.wire.encode")),
               static_cast<double>(wire_queries)),
         "ns"},
        {"transport.wire.decode_ns_per_hit",
         ratio(static_cast<double>(tr.totalNs("transport.wire.decode")),
               static_cast<double>(decoded_hits)),
         "ns"},
        {"transport.wire.response_bytes_per_query",
         ratio(static_cast<double>(wire_bytes),
               static_cast<double>(wire_queries)),
         "B"},
        {"transport.socket.spawn_ms", median(spawn_ms), "ms"},
        {"route.self_us", median(route_self_us), "us"},
        {"core.build_s", ctx.build_s, "s"},
        {"persist.save_s", save_s, "s"},
        {"persist.load_s", load_s, "s"},
        {"core.index_mib", index_mib, "MiB"},
        {"trace.overhead_share", ratio(trace_ns, probes_ns), "share"},
    };
}

} // namespace servebench
