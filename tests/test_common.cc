/**
 * @file
 * Tests for common utilities: units, logging, RNG, table printing, and
 * the JSON parser's nesting bound.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace libra {
namespace {

TEST(Units, TransferTime)
{
    // 1 GB over 1 GB/s is exactly one second.
    EXPECT_DOUBLE_EQ(transferTime(1e9, 1.0), 1.0);
    // 100 GB over 50 GB/s is two seconds.
    EXPECT_DOUBLE_EQ(transferTime(100e9, 50.0), 2.0);
    // Zero bytes take zero time.
    EXPECT_DOUBLE_EQ(transferTime(0.0, 123.0), 0.0);
}

TEST(Units, ComputeTime)
{
    // 234 TFLOPs of work at 234 TFLOPS takes one second.
    EXPECT_DOUBLE_EQ(computeTime(234e12, 234.0), 1.0);
}

TEST(Units, TickConversions)
{
    EXPECT_EQ(toTicks(1.0), static_cast<Tick>(1e12));
    EXPECT_EQ(toTicks(0.5e-12), 1u); // Rounds.
    EXPECT_DOUBLE_EQ(toSeconds(2'000'000'000'000ull), 2.0);
}

TEST(Units, Constants)
{
    EXPECT_DOUBLE_EQ(kGB, 1e9);
    EXPECT_DOUBLE_EQ(kFp16Bytes, 2.0);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
    try {
        fatal("value=", 7);
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
    }
}

TEST(Logging, InformAndWarnDoNotThrow)
{
    setInformEnabled(false);
    EXPECT_NO_THROW(inform("quiet"));
    setInformEnabled(true);
    EXPECT_NO_THROW(warn("just a warning ", 1));
}

TEST(Json, NestingUpToTheBoundParses)
{
    std::string arrays = std::string(kMaxJsonDepth, '[') +
                         std::string(kMaxJsonDepth, ']');
    EXPECT_NO_THROW(Json::parse(arrays));

    std::string objects;
    for (int i = 0; i < kMaxJsonDepth; ++i)
        objects += "{\"k\":";
    objects += "1" + std::string(kMaxJsonDepth, '}');
    EXPECT_NO_THROW(Json::parse(objects));
}

TEST(Json, NestingPastTheBoundIsFatalNotACrash)
{
    std::string deep = std::string(kMaxJsonDepth + 1, '[') +
                       std::string(kMaxJsonDepth + 1, ']');
    EXPECT_THROW(Json::parse(deep), FatalError);
    // The 200,000-byte request line that overflowed the stack.
    EXPECT_THROW(Json::parse(std::string(200000, '[')), FatalError);
    std::string mixed;
    for (int i = 0; i < 100000; ++i)
        mixed += "{\"a\":[";
    EXPECT_THROW(Json::parse(mixed), FatalError);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    bool anyDiff = false;
    for (int i = 0; i < 16 && !anyDiff; ++i)
        anyDiff = a.uniform(0, 1) != b.uniform(0, 1);
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(2.0, 5.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, SimplexPointSumsToTotal)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        auto p = rng.simplexPoint(4, 100.0);
        ASSERT_EQ(p.size(), 4u);
        double sum = 0.0;
        for (double x : p) {
            EXPECT_GT(x, 0.0);
            sum += x;
        }
        EXPECT_NEAR(sum, 100.0, 1e-9);
    }
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.header({"a", "bbbb"});
    t.row({"xx", "1"});
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("bbbb"), std::string::npos);
    EXPECT_NE(s.find("xx"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t;
    t.header({"x", "y"});
    t.row({"1", "2"});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "x,y\n1,2\n");
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(TableDeathTest, RowWidthMismatchPanics)
{
    Table t;
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "panic");
}

} // namespace
} // namespace libra
