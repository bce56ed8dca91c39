/**
 * @file
 * Tests for the design-study configuration parser.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "core/framework.hh"
#include "core/study_config.hh"

namespace libra {
namespace {

TEST(StudyConfig, ParsesFullStudy)
{
    LibraInputs in = parseStudyConfigString(R"(
# full study
NETWORK RI(16)_FC(8)_SW(32)
TOTAL_BW 400
OBJECTIVE PERF_PER_COST
LOOP TP_DP_OVERLAP
CONSTRAINT B3 <= 50
CONSTRAINT B1 >= B2
WORKLOAD gpt3
WORKLOAD msft1t WEIGHT 2.5
NORMALIZE_WEIGHTS
IN_NETWORK
STARTS 5
SEED 7
)");
    EXPECT_EQ(in.networkShape, "RI(16)_FC(8)_SW(32)");
    EXPECT_DOUBLE_EQ(in.config.totalBw, 400.0);
    EXPECT_EQ(in.config.objective,
              OptimizationObjective::PerfPerCostOpt);
    EXPECT_EQ(in.config.estimator.loop, TrainingLoop::TpDpOverlap);
    EXPECT_TRUE(in.config.estimator.inNetworkCollectives);
    EXPECT_EQ(in.config.constraints.size(), 2u);
    ASSERT_EQ(in.targets.size(), 2u);
    EXPECT_EQ(in.targets[0].workload.name, "GPT-3");
    EXPECT_EQ(in.targets[0].workload.strategy.npus(), 4096);
    EXPECT_DOUBLE_EQ(in.targets[1].weight, 2.5);
    EXPECT_TRUE(in.normalizeTargetWeights);
    EXPECT_EQ(in.config.search.starts, 5);
    EXPECT_EQ(in.config.search.seed, 7u);
}

TEST(StudyConfig, ZooNamesSizedToNetwork)
{
    LibraInputs in = parseStudyConfigString(
        "NETWORK SW(16)_SW(8)_SW(4)\nWORKLOAD resnet50\n");
    EXPECT_EQ(in.targets[0].workload.strategy.npus(), 512);
}

TEST(StudyConfig, CostOverride)
{
    LibraInputs in = parseStudyConfigString(
        "NETWORK RI(4)_SW(2)\nWORKLOAD resnet50\n"
        "COST Pod LINK 9.9 NIC 40.0\n");
    ComponentCost c = in.costModel.levelCost(PhysicalLevel::Pod);
    EXPECT_DOUBLE_EQ(c.link, 9.9);
    EXPECT_DOUBLE_EQ(c.nic, 40.0);
    // Unmentioned components keep the defaults.
    EXPECT_DOUBLE_EQ(c.switch_, 18.0);
}

TEST(StudyConfig, DollarCapRelaxesBudget)
{
    LibraInputs in = parseStudyConfigString(
        "NETWORK RI(4)_SW(2)\nWORKLOAD resnet50\nDOLLAR_CAP 1e6\n");
    EXPECT_DOUBLE_EQ(in.config.budgetCap, 1e6);
    EXPECT_TRUE(in.config.relaxTotalBw);
}

TEST(StudyConfig, ZooNameResolution)
{
    EXPECT_EQ(zooWorkloadByName("Turing-NLG", 1024).name, "Turing-NLG");
    EXPECT_EQ(zooWorkloadByName("GPT-3", 1024).name, "GPT-3");
    EXPECT_EQ(zooWorkloadByName("msft-1t", 4096).name, "MSFT-1T");
    EXPECT_THROW(zooWorkloadByName("nope", 64), FatalError);
}

TEST(StudyConfig, Errors)
{
    auto expectError = [](const char* text, const char* needle) {
        try {
            parseStudyConfigString(text);
            FAIL() << "expected FatalError for: " << text;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    expectError("WORKLOAD gpt3\n", "no NETWORK");
    expectError("NETWORK RI(4)\n", "no WORKLOAD");
    expectError("NETWORK RI(4)\nWORKLOAD bogus\n", "unknown zoo");
    expectError("NETWORK RI(4)\nOBJECTIVE FASTEST\nWORKLOAD dlrm\n",
                "unknown objective");
    expectError("NETWORK RI(4)\nLOOP YOLO\nWORKLOAD dlrm\n",
                "unknown loop");
    expectError("NETWORK RI(4)\nCONSTRAINT\nWORKLOAD dlrm\n",
                "empty constraint");
    expectError("NETWORK RI(4)\nBOGUS 1\nWORKLOAD dlrm\n",
                "unknown keyword");
    expectError("NETWORK RI(4)\nWORKLOAD dlrm WAIT 2\n",
                "expected WEIGHT");
    expectError("NETWORK RI(4)\nWORKLOAD_FILE /no/such/file.wl\n",
                "cannot open");
    expectError("NETWORK RI(4)\nCOST Podd LINK 1\nWORKLOAD dlrm\n",
                "unknown physical level");
}

TEST(StudyConfig, EndToEndThroughFramework)
{
    LibraInputs in = parseStudyConfigString(R"(
NETWORK FC(8)_RI(8)_SW(8)
TOTAL_BW 300
OBJECTIVE PERF
WORKLOAD gpt3
STARTS 2
)");
    LibraReport r = runLibra(in);
    EXPECT_GE(r.speedup, 1.0 - 1e-6);
}

/**
 * Non-finite study values parse (strtod accepts nan/inf) but are
 * rejected with FatalError at the runLibra seam. They used to crash
 * the solver (TOTAL_BW nan, WEIGHT nan) or run silently (DOLLAR_CAP
 * nan).
 */
TEST(StudyConfig, NonFiniteValuesAreFatalAtTheRunLibraSeam)
{
    const std::string base = "NETWORK FC(8)_RI(8)\nSTARTS 1\n";
    struct Case
    {
        const char* lines;
        const char* message;
    };
    const Case cases[] = {
        {"TOTAL_BW nan\nWORKLOAD gpt3\n", "total BW must be finite"},
        {"TOTAL_BW inf\nWORKLOAD gpt3\n", "total BW must be finite"},
        {"TOTAL_BW -inf\nWORKLOAD gpt3\n", "total BW must be finite"},
        {"WORKLOAD gpt3 WEIGHT nan\n", "weight of workload"},
        {"WORKLOAD gpt3 WEIGHT inf\n", "weight of workload"},
        {"DOLLAR_CAP nan\nWORKLOAD gpt3\n", "dollar cap must be finite"},
        {"DOLLAR_CAP inf\nWORKLOAD gpt3\n", "dollar cap must be finite"},
        {"COST Pod LINK nan\nWORKLOAD gpt3\n", "Pod link cost"},
        {"COST Node SWITCH inf\nWORKLOAD gpt3\n", "Node switch cost"},
        {"COST Pod NIC -inf\nWORKLOAD gpt3\n", "Pod NIC cost"},
        {"CONSTRAINT B1 <= 1e308 + 1e308\nWORKLOAD gpt3\n",
         "bound must be finite"},
        {"CONSTRAINT 1e308*B1 + 1e308*B1 <= 5\nWORKLOAD gpt3\n",
         "coefficient must be finite"},
        {"CONSTRAINT B1 <= 1e999\nWORKLOAD gpt3\n", "bad number"},
    };
    setInformEnabled(false);
    for (const Case& c : cases) {
        SCOPED_TRACE(c.lines);
        LibraInputs in = parseStudyConfigString(base + c.lines);
        try {
            runLibra(in);
            ADD_FAILURE() << "expected FatalError";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(c.message),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(StudyConfig, FiniteEdgeValuesStillRun)
{
    // DOLLAR_CAP 0 means "no cap"; zero prices and weights are finite.
    LibraInputs in = parseStudyConfigString(R"(
NETWORK FC(8)_RI(8)
TOTAL_BW 300
DOLLAR_CAP 0
COST Pod NIC 0
CONSTRAINT B1 >= 1e-3
WORKLOAD gpt3
WORKLOAD dlrm WEIGHT 0
STARTS 1
)");
    EXPECT_NO_THROW(validateInputs(in));
    LibraReport r = runLibra(in);
    EXPECT_GT(r.optimized.weightedTime, 0.0);
}

} // namespace
} // namespace libra
