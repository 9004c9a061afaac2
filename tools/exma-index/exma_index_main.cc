/**
 * @file
 * `exma-index` — build, inspect, and verify persistent `.exma.*`
 * indexes (src/io/).
 *
 *   exma-index build  --out DIR [--dataset NAME] [--scale F]
 *                     [--fasta FILE] [--mode exact|naive|mtl] [--k K]
 *                     [--layout mono|routed] [--shards N]
 *                     [--max-query-len L] [--prefix-len P] [--json FILE]
 *   exma-index info   --out DIR
 *   exma-index verify --out DIR <same build flags> [--queries N]
 *
 * `build` constructs the index in memory (synthetic dataset at the
 * given scale, or a real FASTA) and saves it; `info` loads an index
 * and prints its shape and load time; `verify` rebuilds the same index
 * fresh, loads the saved one, and differentially checks that both
 * return identical hit sets on reference-sampled queries — the CLI
 * face of the tests/io round-trip suite, used by the CI index-format
 * job. Timings print as `key=value` lines and, with --json, land in a
 * flat JSON object (table_build_s / index_save_s / index_load_s).
 * Malformed or out-of-range arguments exit 2 with a usage message
 * naming the flag; a load error exits 1.
 */

#include <charconv>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "genome/fasta.hh"
#include "genome/reference.hh"
#include "persist/index_io.hh"

namespace {

using namespace exma;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Options
{
    std::string cmd;
    std::string out;
    std::string dataset = "human";
    double scale = 0.25;
    std::string fasta;
    std::string mode = "mtl";
    int k = 0; ///< 0 = dataset-scaled default
    std::string layout; ///< empty = mono if shards == 1, routed otherwise
    unsigned shards = 1;
    u64 max_query_len = 128;
    int prefix_len = 0;
    u64 queries = 200;
    std::string json;
};

[[noreturn]] void
usage(const std::string &err = "")
{
    if (!err.empty())
        std::cerr << "exma-index: " << err << "\n\n";
    std::cerr <<
        "usage:\n"
        "  exma-index build  --out DIR [--dataset NAME] [--scale F]\n"
        "                    [--fasta FILE] [--mode exact|naive|mtl]\n"
        "                    [--k K] [--layout mono|routed]\n"
        "                    [--shards N] [--max-query-len L]\n"
        "                    [--prefix-len P] [--json FILE]\n"
        "  exma-index info   --out DIR [--json FILE]\n"
        "  exma-index verify --out DIR <same build flags> [--queries N]\n";
    std::exit(err.empty() ? 0 : 2);
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    Options opt;
    opt.cmd = argv[1];
    if (opt.cmd == "--help" || opt.cmd == "-h")
        usage();
    if (opt.cmd != "build" && opt.cmd != "info" && opt.cmd != "verify")
        usage("unknown command '" + opt.cmd + "'");

    const auto need = [&](int i) -> std::string {
        if (i + 1 >= argc)
            usage(std::string(argv[i]) + " needs a value");
        return argv[i + 1];
    };
    // The whole value must parse as a T in [lo, hi]; anything else is
    // a usage error naming the flag, never an exception or a panic.
    const auto number = [&]<typename T>(int i, T &dst, T lo,
                                        T hi = std::numeric_limits<T>::max()) {
        const std::string v = need(i);
        const char *end = v.data() + v.size();
        T parsed{};
        const auto [stop, ec] = std::from_chars(v.data(), end, parsed);
        if (ec == std::errc{} && stop == end && parsed >= lo && parsed <= hi) {
            dst = parsed;
            return;
        }
        std::ostringstream msg;
        msg << argv[i] << " takes a number ";
        if (hi == std::numeric_limits<T>::max())
            msg << ">= " << lo;
        else
            msg << "in [" << lo << ", " << hi << "]";
        usage(msg.str() + ", got '" + v + "'");
    };
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--out")
            opt.out = need(i);
        else if (flag == "--dataset")
            opt.dataset = need(i);
        else if (flag == "--scale")
            number(i, opt.scale, 1e-6);
        else if (flag == "--fasta")
            opt.fasta = need(i);
        else if (flag == "--mode")
            opt.mode = need(i);
        else if (flag == "--k")
            number(i, opt.k, 0);
        else if (flag == "--layout")
            opt.layout = need(i);
        else if (flag == "--shards")
            number(i, opt.shards, 1u);
        else if (flag == "--max-query-len")
            number(i, opt.max_query_len, u64{1});
        else if (flag == "--prefix-len")
            number(i, opt.prefix_len, 0, ShardPlan::kMaxPrefixLen);
        else if (flag == "--queries")
            number(i, opt.queries, u64{0});
        else if (flag == "--json")
            opt.json = need(i);
        else
            usage("unknown flag '" + flag + "'");
    }
    if (opt.out.empty())
        usage("--out is required");
    if (opt.layout.empty())
        opt.layout = opt.shards > 1 ? "routed" : "mono";
    if (opt.layout != "mono" && opt.layout != "routed")
        usage("--layout must be mono or routed");
    if (opt.mode != "exact" && opt.mode != "naive" && opt.mode != "mtl")
        usage("--mode must be exact, naive or mtl");
    if (opt.layout == "mono" && opt.shards > 1)
        usage("--layout mono cannot take --shards > 1");
    return opt;
}

/** Flat key=value metrics: printed as they land, dumped to --json. */
class Metrics
{
  public:
    void
    put(const std::string &key, double value)
    {
        values_[key] = value;
        std::cout << key << "=" << value << "\n";
    }

    void
    save(const std::string &path) const
    {
        if (path.empty())
            return;
        std::ofstream out(path, std::ios::trunc);
        exma_assert(out.good(), "cannot write '%s'", path.c_str());
        out << "{\n";
        size_t i = 0;
        for (const auto &[key, value] : values_) {
            out << "  \"" << key << "\": " << value;
            out << (++i == values_.size() ? "\n" : ",\n");
        }
        out << "}\n";
    }

  private:
    std::map<std::string, double> values_;
};

Dataset
loadDataset(const Options &opt)
{
    if (!opt.fasta.empty()) {
        const std::vector<FastaRecord> records =
            readFastaFile(opt.fasta);
        return makeDatasetFromRecords(opt.dataset, records);
    }
    return makeDataset(opt.dataset, opt.scale);
}

ExmaTable::Config
tableConfig(const Options &opt, const Dataset &ds)
{
    ExmaTable::Config cfg;
    cfg.k = opt.k > 0 ? opt.k : ds.exma_k;
    cfg.mode = opt.mode == "exact"   ? OccIndexMode::Exact
               : opt.mode == "naive" ? OccIndexMode::NaiveLearned
                                     : OccIndexMode::Mtl;
    return cfg;
}

/** An index of any layout, built fresh or loaded from files. */
struct Index
{
    std::unique_ptr<ExmaTable> table;
    std::unique_ptr<ShardRouter> router;
    LoadedIndex loaded; ///< keeps the mmaps alive for loaded indexes

    std::vector<std::vector<u64>>
    search(const std::vector<std::vector<Base>> &queries) const
    {
        if (table) {
            std::vector<std::vector<u64>> hits(queries.size());
            for (size_t i = 0; i < queries.size(); ++i)
                hits[i] = table->locateAllGlobal(
                    table->search(queries[i]), queries[i].size());
            return hits;
        }
        return router->search(queries).hits;
    }
};

Index
buildIndex(const Options &opt, const Dataset &ds, Metrics &metrics)
{
    Index idx;
    const ExmaTable::Config cfg = tableConfig(opt, ds);
    const double t0 = now();
    if (opt.layout == "mono") {
        idx.table = std::make_unique<ExmaTable>(ds.ref, cfg);
        metrics.put("table_build_s", now() - t0);
    } else {
        const ShardPlan plan = ShardPlan::kmerPrefix(
            ds.ref, opt.shards, opt.max_query_len, opt.prefix_len);
        RouterConfig rcfg;
        rcfg.table = cfg;
        idx.router = std::make_unique<ShardRouter>(ds.ref, plan, rcfg);
        metrics.put("table_build_s", idx.router->buildSeconds());
    }
    return idx;
}

void
saveBuilt(const Index &idx, const Dataset &ds, const std::string &dir,
          Metrics &metrics)
{
    const double t0 = now();
    if (idx.table)
        saveIndex(*idx.table, ds.ref, dir);
    else
        saveIndex(*idx.router, dir);
    metrics.put("index_save_s", now() - t0);
}

Index
loadSaved(const std::string &dir, Metrics &metrics)
{
    Index idx;
    idx.loaded = loadIndex(dir);
    metrics.put("index_load_s", idx.loaded.load_seconds);
    return idx;
}

const char *
kindName(IndexKind kind)
{
    switch (kind) {
    case IndexKind::Mono:
        return "mono";
    case IndexKind::Routed:
        return "routed";
    }
    return "?";
}

/** Queries sampled off the reference: every one has >= 1 true hit. */
std::vector<std::vector<Base>>
sampleQueries(const Dataset &ds, u64 count, u64 len)
{
    len = std::min<u64>(len, ds.ref.size());
    Rng rng(42);
    std::vector<std::vector<Base>> queries(count);
    for (auto &q : queries) {
        const u64 pos = rng.below(ds.ref.size() - len + 1);
        q.assign(ds.ref.begin() + static_cast<long>(pos),
                 ds.ref.begin() + static_cast<long>(pos + len));
    }
    return queries;
}

int
cmdBuild(const Options &opt)
{
    Metrics metrics;
    const Dataset ds = loadDataset(opt);
    std::cout << "dataset " << ds.name << ": " << ds.ref.size()
              << " bases, layout " << opt.layout << ", " << opt.shards
              << " shard(s), mode " << opt.mode << "\n";
    const Index idx = buildIndex(opt, ds, metrics);
    saveBuilt(idx, ds, opt.out, metrics);
    metrics.put("ref_bases", static_cast<double>(ds.ref.size()));
    metrics.save(opt.json);
    std::cout << "saved " << opt.out << "\n";
    return 0;
}

int
cmdInfo(const Options &opt)
{
    Metrics metrics;
    const Index idx = loadSaved(opt.out, metrics);
    std::cout << "kind=" << kindName(idx.loaded.kind) << "\n";
    if (idx.loaded.table != nullptr) {
        std::cout << "k=" << idx.loaded.table->k()
                  << " rows=" << idx.loaded.table->rows() << "\n";
    } else {
        std::cout << "shards=" << idx.loaded.router->shardCount()
                  << " rows=" << idx.loaded.router->totalRows()
                  << " prefix_len=" << idx.loaded.router->plan().prefixLen()
                  << "\n";
    }
    metrics.save(opt.json);
    return 0;
}

int
cmdVerify(const Options &opt)
{
    Metrics metrics;
    const Dataset ds = loadDataset(opt);
    const Index built = buildIndex(opt, ds, metrics);

    Index loaded = loadSaved(opt.out, metrics);
    // Route searches through the loaded structures.
    if (loaded.loaded.table)
        loaded.table = std::move(loaded.loaded.table);
    else
        loaded.router = std::move(loaded.loaded.router);

    const u64 qlen = std::min<u64>(101, opt.max_query_len);
    const auto queries = sampleQueries(ds, opt.queries, qlen);
    const auto expect = built.search(queries);
    const auto got = loaded.search(queries);

    u64 mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
        if (expect[i] != got[i])
            ++mismatches;
        if (expect[i].empty()) {
            std::cerr << "query " << i
                      << ": no hits from the fresh build (sampled off "
                         "the reference, so this is a build bug)\n";
            ++mismatches;
        }
    }
    metrics.put("verify_queries", static_cast<double>(queries.size()));
    metrics.put("verify_mismatches", static_cast<double>(mismatches));
    metrics.save(opt.json);
    if (mismatches > 0) {
        std::cerr << "FAIL: " << mismatches << "/" << queries.size()
                  << " queries disagree between built and loaded index\n";
        return 1;
    }
    std::cout << "OK: " << queries.size()
              << " queries identical between built and loaded index\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    try {
        if (opt.cmd == "build")
            return cmdBuild(opt);
        if (opt.cmd == "info")
            return cmdInfo(opt);
        return cmdVerify(opt);
    } catch (const LoadError &e) {
        std::cerr << "exma-index: load error: " << e.what() << "\n";
        return 1;
    }
}
