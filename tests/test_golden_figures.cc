/**
 * @file
 * Golden-figure regression suite: pins the headline reproduced metrics
 * against checked-in golden files so future performance/refactoring
 * PRs cannot silently drift off the paper's results.
 *
 * Pinned scenarios (goldenScenarioNames()):
 *  - tbl1:  Table I cost rows + the Fig. 12 worked example ($1,722)
 *  - fig10: Fig. 10 BW-utilization and speedup metrics
 *  - fig13: Fig. 13 speedups over EqualBW
 *  - fig14: Fig. 14 perf-per-cost gains
 *
 * Byte-pinned scenarios (outside goldenScenarioNames(), so they stay
 * out of `run-matrix golden`): their emitted JSON must equal
 * tests/golden/<name>.json byte for byte.
 *  - fig09 and crossval, the two chunk-level simulation consumers
 *    besides fig10: holds any ChunkTimeline or chunk-sim evaluation
 *    rewrite to bit identity.
 *  - fig15, fig17 and fig18: the 4-D and multi-workload solver
 *    paths, which holds any solver or kernel rewrite to bit identity.
 * Each file holds scenarioRunToJson(run).dump(1) plus a newline, the
 * writer `--update-golden` uses, and is only rewritten for an
 * intentional result change.
 *
 * Golden files live in tests/golden/<scenario>.json (path baked in via
 * LIBRA_GOLDEN_DIR). Regenerate after an intentional result change:
 *
 *     build/libra_cli run-matrix golden --update-golden \
 *         --golden-dir tests/golden
 *
 * Comparison is per metric with the tolerance table below. The engine
 * itself is bit-deterministic at any thread count, so the tolerances
 * only absorb cross-platform floating-point variation (libm/compiler);
 * analytic dollar metrics are held an order of magnitude tighter.
 */

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "study/matrix.hh"

#ifndef LIBRA_GOLDEN_DIR
#define LIBRA_GOLDEN_DIR "tests/golden"
#endif

namespace libra {
namespace {

struct Tolerance
{
    double rel = 0.0;
    double abs = 0.0;
};

/** Per-metric tolerance; keyed by metric name. */
Tolerance
toleranceFor(const std::string& metric)
{
    // Closed-form dollar/cost metrics (Table I, Fig. 12): no search or
    // iteration involved, so essentially exact.
    for (const char* exact : {"link", "switch", "nic", "links",
                              "switches", "nics", "total",
                              "fig12_total", "fig12_matches_paper"}) {
        if (metric == exact)
            return {1e-9, 1e-9};
    }
    // Utilization percentages compare on an absolute scale.
    if (metric == "bw_util_pct")
        return {0.0, 1e-4};
    // Search-derived metrics (speedups, ppc gains, runtimes).
    return {1e-6, 1e-12};
}

std::string
goldenPath(const std::string& name)
{
    return std::string(LIBRA_GOLDEN_DIR) + "/" + name + ".json";
}

const char* kRegenHint =
    "\nRegenerate after an intentional change with:\n"
    "  build/libra_cli run-matrix golden --update-golden "
    "--golden-dir tests/golden\n";

Json
loadGolden(const std::string& name)
{
    std::ifstream file(goldenPath(name));
    if (!file) {
        ADD_FAILURE() << "missing golden file " << goldenPath(name)
                      << kRegenHint;
        return Json();
    }
    std::ostringstream text;
    text << file.rdbuf();
    return Json::parse(text.str());
}

/** Named (label, metric) pairs of one golden/actual row for messages. */
std::string
rowId(const Json& row)
{
    std::string id;
    for (const auto& [k, v] : row.at("labels").members())
        id += k + "=" + v.asString() + " ";
    return id;
}

void
compareMetrics(const std::string& scenario, const std::string& where,
               const Json& golden, const Json& actual)
{
    ASSERT_EQ(golden.members().size(), actual.members().size())
        << scenario << " " << where << ": metric set changed"
        << kRegenHint;
    for (const auto& [name, goldenValue] : golden.members()) {
        ASSERT_TRUE(actual.has(name))
            << scenario << " " << where << ": metric '" << name
            << "' disappeared" << kRegenHint;
        Tolerance tol = toleranceFor(name);
        double want = goldenValue.asNumber();
        double got = actual.at(name).asNumber();
        EXPECT_NEAR(got, want, std::abs(want) * tol.rel + tol.abs)
            << scenario << " " << where << ": metric '" << name
            << "' drifted from the pinned value" << kRegenHint;
    }
}

class GoldenFigures : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setInformEnabled(false);
        // One uncached run of the whole golden set; fig13/fig14 share
        // their design-point grid inside the batch.
        result_ = new MatrixResult(
            runScenarioMatrix(goldenScenarioNames()));
    }

    static void
    TearDownTestSuite()
    {
        delete result_;
        result_ = nullptr;
    }

    static const ScenarioRun*
    runOf(const std::string& name)
    {
        for (const ScenarioRun& run : result_->scenarios) {
            if (run.name == name)
                return &run;
        }
        return nullptr;
    }

    static MatrixResult* result_;
};

MatrixResult* GoldenFigures::result_ = nullptr;

TEST_F(GoldenFigures, PinnedScenariosMatchGoldenFiles)
{
    for (const auto& name : goldenScenarioNames()) {
        SCOPED_TRACE(name);
        Json golden = loadGolden(name);
        if (golden.isNull())
            continue; // Missing file already failed above.
        const ScenarioRun* run = runOf(name);
        ASSERT_NE(run, nullptr);
        Json actual = scenarioRunToJson(*run);

        const auto& goldenRows = golden.at("rows").items();
        const auto& actualRows = actual.at("rows").items();
        ASSERT_EQ(goldenRows.size(), actualRows.size())
            << name << ": row count changed" << kRegenHint;
        for (std::size_t i = 0; i < goldenRows.size(); ++i) {
            // Labels are identity: they must match exactly.
            ASSERT_EQ(goldenRows[i].at("labels").dump(),
                      actualRows[i].at("labels").dump())
                << name << " row " << i << " ("
                << rowId(goldenRows[i]) << "): labels changed"
                << kRegenHint;
            compareMetrics(name, "row " + rowId(goldenRows[i]),
                           goldenRows[i].at("metrics"),
                           actualRows[i].at("metrics"));
        }
        compareMetrics(name, "summary", golden.at("summary"),
                       actual.at("summary"));
    }
}

TEST_F(GoldenFigures, HeadlineClaimsHold)
{
    // Independent of the pinned values: the paper's qualitative claims
    // must hold on the freshly computed reports.
    const ScenarioRun* fig13 = runOf("fig13");
    ASSERT_NE(fig13, nullptr);
    for (const ScenarioRow& row : fig13->output.rows) {
        for (const auto& [k, v] : row.metrics) {
            if (k == "speedup_perfopt") {
                EXPECT_GE(v, 1.0 - 1e-9) << "PerfOpt slower than "
                                            "EqualBW";
            }
        }
    }

    const ScenarioRun* fig14 = runOf("fig14");
    ASSERT_NE(fig14, nullptr);
    for (const ScenarioRow& row : fig14->output.rows) {
        for (const auto& [k, v] : row.metrics) {
            if (k == "ppc_gain_perfpercost") {
                EXPECT_GT(v, 1.0) << "PerfPerCostOpt lost to EqualBW "
                                     "on perf-per-cost";
            }
        }
    }

    const ScenarioRun* tbl1 = runOf("tbl1");
    ASSERT_NE(tbl1, nullptr);
    for (const auto& [k, v] : tbl1->output.summary) {
        if (k == "fig12_matches_paper") {
            EXPECT_EQ(v, 1.0) << "Fig. 12 worked example no longer "
                                 "matches $1,722";
        }
    }
}

/**
 * Run @p names and require each one's emitted JSON to equal its
 * pinned tests/golden/<name>.json byte for byte.
 */
void
expectPinnedBytes(const std::vector<std::string>& names)
{
    setInformEnabled(false);
    MatrixResult result = runScenarioMatrix(names);
    ASSERT_EQ(result.scenarios.size(), names.size());
    for (const ScenarioRun& run : result.scenarios) {
        SCOPED_TRACE(run.name);
        std::ifstream file(goldenPath(run.name), std::ios::binary);
        ASSERT_TRUE(file) << "missing pinned file "
                          << goldenPath(run.name);
        std::ostringstream pinned;
        pinned << file.rdbuf();
        std::string actual = scenarioRunToJson(run).dump(1) + "\n";
        if (actual != pinned.str()) {
            // After an intentional result change, inspect this file
            // and copy it over the pin.
            std::string out =
                testing::TempDir() + run.name + ".json.actual";
            std::ofstream(out, std::ios::binary) << actual;
            ADD_FAILURE() << run.name << ": emitted bytes drifted from "
                          << goldenPath(run.name) << "; actual bytes in "
                          << out;
        }
    }
}

TEST(GoldenBytes, ChunkSimScenariosMatchPinnedBytes)
{
    expectPinnedBytes({"fig09", "crossval"});
}

TEST(GoldenBytes, SolverScenariosMatchPinnedBytes)
{
    expectPinnedBytes({"fig15", "fig17", "fig18"});
}

} // namespace
} // namespace libra
