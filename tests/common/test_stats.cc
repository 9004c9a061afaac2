#include <gtest/gtest.h>

#include <sstream>

#include "common/search_stats.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace exma {
namespace {

TEST(Stats, SummarizePercentiles)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    auto s = summarize(v);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_NEAR(s.p50, 50.5, 1e-9);
    EXPECT_NEAR(s.p25, 25.75, 1e-9);
    EXPECT_NEAR(s.p75, 75.25, 1e-9);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    EXPECT_EQ(s.count, 100u);
}

TEST(Stats, SummarizeEmpty)
{
    auto s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Table, PrintsAlignedColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumAndBytesFormat)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::bytes(1536.0), "1.54KB");
    EXPECT_EQ(TextTable::bytes(2.5e9), "2.50GB");
}

TEST(SearchStats, MergeSumsEveryCounter)
{
    SearchStats a{1, 2, 3, 4, 5};
    const SearchStats b{10, 20, 30, 40, 50};
    a += b;
    EXPECT_EQ(a, (SearchStats{11, 22, 33, 44, 55}));
    EXPECT_EQ(a + b, (SearchStats{21, 42, 63, 84, 105}));
}

TEST(SearchStats, ResetAndMeanError)
{
    SearchStats s{4, 0, 16, 0, 0};
    EXPECT_DOUBLE_EQ(s.meanError(), 2.0); // 16 error over 2*4 lookups
    s.reset();
    EXPECT_EQ(s, SearchStats{});
    EXPECT_DOUBLE_EQ(s.meanError(), 0.0);
}

} // namespace
} // namespace exma
