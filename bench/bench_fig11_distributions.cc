/**
 * @file
 * Fig. 11 — increment distributions of different heavy k-mers are
 * similar (the Stein's-paradox motivation for multi-task learning):
 * print decile CDFs of the three most frequent k-mers and their
 * pairwise Kolmogorov-Smirnov distances.
 */

#include "bench_util.hh"

#include <algorithm>

using namespace exma;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Fig. 11", "increment distributions of heavy k-mers");
    const ExmaTable &table = bench::exmaTable("human", OccIndexMode::Exact);
    const KmerOccTable &occ = table.occTable();

    // The three most frequent k-mers (the paper shows poly-A and
    // AC/AT-repeat 15-mers; in a synthetic genome the heavy hitters are
    // its repeat seeds).
    std::vector<std::pair<u64, Kmer>> heavy;
    for (Kmer m = 0; m < kmerSpace(occ.k()); ++m)
        if (occ.frequency(m) > 0)
            heavy.emplace_back(occ.frequency(m), m);
    std::sort(heavy.rbegin(), heavy.rend());
    const size_t n_show = std::min<size_t>(3, heavy.size());

    TextTable t;
    std::vector<std::string> hdr = {"quantile"};
    for (size_t i = 0; i < n_show; ++i)
        hdr.push_back(kmerToString(heavy[i].second, occ.k()) + " (f=" +
                      std::to_string(heavy[i].first) + ")");
    t.header(hdr);
    for (int q = 0; q <= 10; ++q) {
        std::vector<std::string> row = {TextTable::num(q / 10.0, 1)};
        for (size_t i = 0; i < n_show; ++i) {
            auto inc = occ.increments(heavy[i].second);
            const size_t idx = std::min<size_t>(
                inc.size() - 1, static_cast<size_t>(
                                    q / 10.0 *
                                    static_cast<double>(inc.size() - 1)));
            row.push_back(TextTable::num(
                static_cast<double>(inc[idx]) /
                    static_cast<double>(occ.rows()),
                3));
        }
        t.row(row);
    }
    bench::printTable(t);

    // Pairwise KS distance between normalised CDFs.
    auto ks = [&](Kmer a, Kmer b) {
        auto ia = occ.increments(a);
        auto ib = occ.increments(b);
        double worst = 0.0;
        for (int s = 0; s <= 100; ++s) {
            const u32 x = static_cast<u32>(
                s / 100.0 * static_cast<double>(occ.rows()));
            const double fa =
                static_cast<double>(occ.occ(a, x).rank) /
                static_cast<double>(ia.size());
            const double fb =
                static_cast<double>(occ.occ(b, x).rank) /
                static_cast<double>(ib.size());
            worst = std::max(worst, std::abs(fa - fb));
        }
        return worst;
    };
    std::cout << "\npairwise KS distance of normalised CDFs:\n";
    for (size_t i = 0; i < n_show; ++i)
        for (size_t j = i + 1; j < n_show; ++j)
            std::cout << "  " << kmerToString(heavy[i].second, occ.k())
                      << " vs " << kmerToString(heavy[j].second, occ.k())
                      << ": " << TextTable::num(
                             ks(heavy[i].second, heavy[j].second), 3)
                      << "\n";
    std::cout << "paper: distributions of different k-mers look alike, "
                 "so training across them (MTL) is statistically "
                 "favourable (Stein's paradox).\n";
    return 0;
}
