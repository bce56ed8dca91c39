/**
 * @file
 * Fault-tolerance tests: the deterministic fault injector, the
 * self-healing ResultCache under adversarial on-disk entries
 * (truncated, bit-flipped, checksum-mismatched, version-skewed,
 * hash-colliding, legacy), stale tmp reaping, per-point failure
 * isolation through runLibraSweepIsolated and the scenario matrix, and
 * resuming a SIGKILLed libra_cli run from the cache alone.
 * See docs/ROBUSTNESS.md.
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "common/logging.hh"
#include "core/study_config.hh"
#include "study/cache.hh"
#include "study/matrix.hh"

namespace libra {
namespace {

/** Disarms the injector on scope exit so tests cannot leak faults. */
struct FaultGuard
{
    FaultGuard() { clearFaults(); }
    ~FaultGuard() { clearFaults(); }
};

LibraInputs
miniInputs(const char* extra = "")
{
    std::string text = "NETWORK SW(4)_RI(4)\nTOTAL_BW 200\n"
                       "STARTS 2\nWORKLOAD resnet50\n";
    text += extra;
    return parseStudyConfigString(text);
}

/**
 * A design point whose evaluation throws FatalError: the resnet50
 * targets were sliced for the 16-NPU parse-time network, and swapping
 * the shape afterwards makes the estimator reject the mismatch.
 */
LibraInputs
poisonedInputs(const char* shape = "SW(4)_RI(8)")
{
    LibraInputs p = miniInputs();
    p.networkShape = shape;
    return p;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
freshDir(const char* name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

// --- Fault-spec parsing ------------------------------------------------

TEST(FaultSpec, ParsesSitesAndSeed)
{
    FaultConfig c = parseFaultSpec("cache-load-read=0.25,seed=7");
    EXPECT_EQ(c.rate[static_cast<int>(FaultSite::CacheLoadRead)], 0.25);
    EXPECT_EQ(c.rate[static_cast<int>(FaultSite::CacheStoreWrite)],
              0.0);
    EXPECT_EQ(c.seed, 7u);
    EXPECT_TRUE(c.any());
    EXPECT_EQ(faultSpecToString(c), "cache-load-read=0.25,seed=7");

    FaultConfig multi = parseFaultSpec(
        "point-eval=1,cache-store-rename=0.5");
    EXPECT_EQ(multi.rate[static_cast<int>(FaultSite::PointEval)], 1.0);
    EXPECT_EQ(
        multi.rate[static_cast<int>(FaultSite::CacheStoreRename)], 0.5);
    EXPECT_EQ(multi.seed, 1u); // Default seed.

    EXPECT_FALSE(FaultConfig{}.any());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseFaultSpec(""), FatalError);
    EXPECT_THROW(parseFaultSpec("no-such-site=0.5"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval=maybe"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval=1.5"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval=-0.1"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval=0.5,point-eval=0.5"),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("seed=1,seed=2"), FatalError);
    EXPECT_THROW(parseFaultSpec("seed=abc"), FatalError);
}

// --- Injector determinism ----------------------------------------------

TEST(FaultInjector, DisarmedIsInert)
{
    FaultGuard guard;
    EXPECT_FALSE(faultsArmed());
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(injectFault(FaultSite::PointEval, k));
    FaultStats stats = faultStats();
    EXPECT_EQ(stats.injected[static_cast<int>(FaultSite::PointEval)],
              0u);
}

TEST(FaultInjector, KeyedDrawIsAPureFunctionOfSeedSiteAndKey)
{
    FaultGuard guard;
    installFaults(parseFaultSpec("point-eval=0.5,seed=42"));
    EXPECT_TRUE(faultsArmed());

    // Same (seed, site, key) -> same answer, every time: fault
    // assignment cannot depend on thread schedule or call order.
    std::size_t fired = 0;
    for (std::uint64_t k = 0; k < 1000; ++k) {
        bool first = injectFault(FaultSite::PointEval, k);
        EXPECT_EQ(first, injectFault(FaultSite::PointEval, k)) << k;
        fired += first ? 1 : 0;
    }
    // A 0.5 rate over 1000 keys lands near 500.
    EXPECT_GT(fired, 400u);
    EXPECT_LT(fired, 600u);

    // Sites are decorrelated: the same keys draw independently at
    // another site with the same rate.
    installFaults(parseFaultSpec(
        "point-eval=0.5,cache-load-read=0.5,seed=42"));
    bool siteDiffers = false;
    for (std::uint64_t k = 0; k < 64; ++k) {
        siteDiffers |= injectFault(FaultSite::PointEval, k) !=
                       injectFault(FaultSite::CacheLoadRead, k);
    }
    EXPECT_TRUE(siteDiffers);

    // And the seed reshuffles the assignment.
    std::vector<bool> seed42;
    for (std::uint64_t k = 0; k < 64; ++k)
        seed42.push_back(injectFault(FaultSite::PointEval, k));
    installFaults(parseFaultSpec("point-eval=0.5,seed=43"));
    bool seedDiffers = false;
    for (std::uint64_t k = 0; k < 64; ++k)
        seedDiffers |= injectFault(FaultSite::PointEval, k) != seed42[k];
    EXPECT_TRUE(seedDiffers);
}

TEST(FaultInjector, RateEndpointsAreExact)
{
    FaultGuard guard;
    installFaults(parseFaultSpec("point-eval=1"));
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_TRUE(injectFault(FaultSite::PointEval, k));
    // A site left at rate 0 never fires even while armed.
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(injectFault(FaultSite::CacheLoadRead, k));
    FaultStats stats = faultStats();
    EXPECT_EQ(stats.checks[static_cast<int>(FaultSite::PointEval)],
              100u);
    EXPECT_EQ(stats.injected[static_cast<int>(FaultSite::PointEval)],
              100u);
    EXPECT_EQ(
        stats.injected[static_cast<int>(FaultSite::CacheLoadRead)], 0u);
}

// --- Adversarial cache entries -----------------------------------------

/** Stores one valid entry and returns (key, canonical, entry path). */
struct SeededCache
{
    ResultCache cache;
    LibraInputs inputs;
    LibraReport report;
    std::string canonical;
    std::uint64_t key;
    std::string file;

    explicit SeededCache(const std::string& dir)
        : cache(dir),
          inputs(miniInputs()),
          report(runLibra(inputs)),
          canonical(canonicalStudyKey(inputs)),
          key(studyCacheHash(inputs))
    {
        char name[32];
        std::snprintf(name, sizeof(name), "%016llx.json",
                      static_cast<unsigned long long>(key));
        file = dir + "/" + name;
        EXPECT_TRUE(cache.store(key, canonical, report));
    }
};

TEST(CacheAdversarial, TruncatedEntryIsQuarantinedAndRecoverable)
{
    std::string dir = freshDir("libra-fault-truncated");
    SeededCache s(dir);
    std::string full = readFile(s.file);
    {
        std::ofstream out(s.file, std::ios::trunc);
        out << full.substr(0, full.size() / 2);
    }

    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
    EXPECT_FALSE(std::filesystem::exists(s.file));

    // Self-healing: the key is free again, a re-store round-trips.
    EXPECT_TRUE(s.cache.store(s.key, s.canonical, s.report));
    ASSERT_TRUE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(out.optimized.bw, s.report.optimized.bw);
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, NestingBombEntryIsQuarantined)
{
    std::string dir = freshDir("libra-fault-nesting");
    SeededCache s(dir);
    {
        std::ofstream out(s.file, std::ios::trunc);
        out << std::string(200000, '[');
    }

    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, BitFlippedBodyFailsTheChecksum)
{
    std::string dir = freshDir("libra-fault-bitflip");
    SeededCache s(dir);
    std::string text = readFile(s.file);
    // Flip one digit inside the body (past the envelope header) —
    // still perfectly valid JSON, but not the text the FNV signed.
    std::size_t at = text.find_last_of("0123456789");
    ASSERT_NE(at, std::string::npos);
    text[at] = text[at] == '9' ? '8' : '9';
    {
        std::ofstream out(s.file, std::ios::trunc);
        out << text;
    }

    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, VersionSkewIsQuarantinedEvenWithValidChecksum)
{
    std::string dir = freshDir("libra-fault-version");
    SeededCache s(dir);
    // A structurally perfect entry from a "future" engine: correct
    // checksum over its body, wrong engine version.
    Json body = Json::object();
    body["version"] = static_cast<double>(kStudyCacheVersion + 1);
    body["inputs"] = s.canonical;
    body["report"] = reportToJson(s.report);
    char fnv[24];
    std::snprintf(fnv, sizeof(fnv), "%016llx",
                  static_cast<unsigned long long>(
                      studyCacheHashOfKey(body.dump(1))));
    Json j = Json::object();
    j["fnv"] = std::string(fnv);
    j["body"] = std::move(body);
    {
        std::ofstream out(s.file, std::ios::trunc);
        out << j.dump(1) << "\n";
    }

    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, HashCollisionIsAMissButNotQuarantined)
{
    std::string dir = freshDir("libra-fault-collision");
    SeededCache s(dir);

    // A *valid* entry under this key whose inputs are someone else's:
    // exactly what a 64-bit collision looks like. The entry must not
    // be served — and must not be destroyed either (it is the rightful
    // result of the other point).
    setInformEnabled(false);
    LibraReport out;
    std::string other = canonicalStudyKey(miniInputs("SEED 9\n"));
    EXPECT_FALSE(s.cache.load(s.key, other, &out));
    EXPECT_EQ(s.cache.stats().collisions, 1u);
    EXPECT_EQ(s.cache.stats().quarantined, 0u);
    EXPECT_TRUE(std::filesystem::exists(s.file));

    // The rightful owner still hits.
    ASSERT_TRUE(s.cache.load(s.key, s.canonical, &out));
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, LegacyUncheckedEntryIsQuarantined)
{
    std::string dir = freshDir("libra-fault-legacy");
    SeededCache s(dir);
    // Pre-envelope format: body at top level, no "fnv" field.
    Json j = Json::object();
    j["version"] = static_cast<double>(kStudyCacheVersion);
    j["inputs"] = s.canonical;
    j["report"] = reportToJson(s.report);
    {
        std::ofstream out(s.file, std::ios::trunc);
        out << j.dump(1) << "\n";
    }

    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    std::filesystem::remove_all(dir);
}

// --- Crash hygiene -----------------------------------------------------

TEST(CacheCrashSafety, StaleTmpFilesAreReapedOnOpen)
{
    std::string dir = freshDir("libra-fault-tmp");
    std::filesystem::create_directories(dir);
    // A tmp file from a pid that cannot exist, one with a garbage
    // suffix, and one owned by this live process.
    std::string dead = dir + "/aaaa.json.tmp.999999999";
    std::string garbage = dir + "/bbbb.json.tmp.notapid";
    std::string live =
        dir + "/cccc.json.tmp." + std::to_string(::getpid());
    for (const auto& f : {dead, garbage, live})
        std::ofstream(f) << "{}";

    setInformEnabled(false);
    ResultCache cache(dir);
    EXPECT_TRUE(cache.enabled());
    EXPECT_EQ(cache.stats().reapedTmp, 2u);
    EXPECT_FALSE(std::filesystem::exists(dead));
    EXPECT_FALSE(std::filesystem::exists(garbage));
    EXPECT_TRUE(std::filesystem::exists(live));
    std::filesystem::remove_all(dir);
}

TEST(CacheCrashSafety, UncreatableDirectoryDisablesTheCache)
{
    // A directory path under a regular file can never be created —
    // works even when the test runs as root (chmod tricks do not).
    std::string blocker = testing::TempDir() + "libra-fault-blocker";
    std::filesystem::remove_all(blocker);
    std::ofstream(blocker) << "not a directory";

    setInformEnabled(false);
    ResultCache cache(blocker + "/sub");
    EXPECT_FALSE(cache.enabled());

    LibraInputs inputs = miniInputs();
    LibraReport report = runLibra(inputs);
    std::string canonical = canonicalStudyKey(inputs);
    std::uint64_t key = studyCacheHash(inputs);
    LibraReport out;
    EXPECT_FALSE(cache.store(key, canonical, report));
    EXPECT_FALSE(cache.load(key, canonical, &out));
    std::filesystem::remove(blocker);
}

// --- Injected cache-I/O faults -----------------------------------------

TEST(CacheInjected, LoadFaultsAreMissesStoreFaultsDegrade)
{
    FaultGuard guard;
    std::string dir = freshDir("libra-fault-injected");
    SeededCache s(dir);
    setInformEnabled(false);

    installFaults(parseFaultSpec("cache-load-read=1"));
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_GE(s.cache.stats().loadFailures, 1u);

    // Every write attempt fails -> the retries are exhausted, the
    // store degrades to a warning, and no tmp file is left behind.
    installFaults(parseFaultSpec("cache-store-write=1"));
    std::filesystem::remove(s.file);
    EXPECT_FALSE(s.cache.store(s.key, s.canonical, s.report));
    EXPECT_EQ(s.cache.stats().storeFailures, 1u);
    EXPECT_FALSE(std::filesystem::exists(s.file));
    bool tmpLeft = false;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        tmpLeft |= entry.path().string().find(".tmp.") !=
                   std::string::npos;
    }
    EXPECT_FALSE(tmpLeft);

    // Same for the publish rename.
    installFaults(parseFaultSpec("cache-store-rename=1"));
    EXPECT_FALSE(s.cache.store(s.key, s.canonical, s.report));

    // Disarmed again, the cache works normally.
    clearFaults();
    EXPECT_TRUE(s.cache.store(s.key, s.canonical, s.report));
    ASSERT_TRUE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(out.optimized.bw, s.report.optimized.bw);
    std::filesystem::remove_all(dir);
}

TEST(CacheInjected, OpenFaultDisablesInsteadOfAborting)
{
    FaultGuard guard;
    setInformEnabled(false);
    installFaults(parseFaultSpec("cache-open=1"));
    std::string dir = freshDir("libra-fault-open");
    ResultCache cache(dir);
    EXPECT_FALSE(cache.enabled());
}

// --- Scenario registration for matrix tests ----------------------------

const char*
faultMiniScenarioName()
{
    static const char* name = [] {
        Scenario s;
        s.name = "test-fault-mini";
        s.title = "fault-test all-ok scenario";
        s.build = [] {
            std::vector<LibraInputs> points;
            points.push_back(miniInputs("SEED 11\n"));
            points.push_back(miniInputs("SEED 12\n"));
            return points;
        };
        s.format = [](const std::vector<LibraInputs>& points,
                      const std::vector<LibraReport>& reports) {
            ScenarioOutput out;
            for (std::size_t i = 0; i < points.size(); ++i) {
                ScenarioRow row;
                row.label("point", std::to_string(i));
                row.metric("speedup", reports[i].speedup);
                out.rows.push_back(std::move(row));
            }
            return out;
        };
        ScenarioRegistry::global().add(std::move(s));
        return "test-fault-mini";
    }();
    return name;
}

const char*
poisonScenarioName()
{
    static const char* name = [] {
        Scenario s;
        s.name = "test-poison";
        s.title = "fault-test scenario with one poisoned point";
        s.build = [] {
            std::vector<LibraInputs> points;
            points.push_back(miniInputs("SEED 13\n"));
            points.push_back(poisonedInputs());
            return points;
        };
        s.format = [](const std::vector<LibraInputs>& points,
                      const std::vector<LibraReport>& reports) {
            ScenarioOutput out;
            for (std::size_t i = 0; i < points.size(); ++i) {
                ScenarioRow row;
                row.label("point", std::to_string(i));
                row.metric("speedup", reports[i].speedup);
                out.rows.push_back(std::move(row));
            }
            return out;
        };
        ScenarioRegistry::global().add(std::move(s));
        return "test-poison";
    }();
    return name;
}

// --- Sweep isolation ---------------------------------------------------

TEST(SweepIsolation, CapturesFailuresAndKeepsOkPointsBitIdentical)
{
    std::vector<LibraInputs> points;
    points.push_back(miniInputs());
    points.push_back(poisonedInputs("SW(4)_RI(8)"));
    points.push_back(miniInputs("SEED 5\n"));
    points.push_back(poisonedInputs("SW(2)_RI(2)"));

    SweepOutcome outcome = runLibraSweepIsolated(points);
    ASSERT_EQ(outcome.status.size(), 4u);
    EXPECT_EQ(outcome.failed, 2u);
    EXPECT_TRUE(outcome.status[0].ok);
    EXPECT_FALSE(outcome.status[1].ok);
    EXPECT_TRUE(outcome.status[2].ok);
    EXPECT_FALSE(outcome.status[3].ok);

    // The captured message is the FatalError text, prefix stripped.
    EXPECT_NE(outcome.status[1].error.find("ResNet-50"),
              std::string::npos);
    EXPECT_EQ(outcome.status[1].error.rfind("fatal: ", 0),
              std::string::npos);
    // The two poisoned shapes fail with distinct messages.
    EXPECT_NE(outcome.status[1].error, outcome.status[3].error);

    // Ok points are bit-identical to standalone runs.
    LibraReport solo = runLibra(miniInputs());
    EXPECT_EQ(outcome.reports[0].optimized.bw, solo.optimized.bw);
    EXPECT_EQ(outcome.reports[0].speedup, solo.speedup);
}

TEST(SweepIsolation, AbortRethrowsTheLowestIndexFailure)
{
    std::vector<LibraInputs> points;
    points.push_back(miniInputs());
    points.push_back(poisonedInputs("SW(4)_RI(8)"));
    points.push_back(poisonedInputs("SW(2)_RI(2)"));

    SweepOutcome outcome = runLibraSweepIsolated(points);
    ASSERT_FALSE(outcome.status[1].ok);

    // runLibraSweep must surface point 1's error — the lowest failing
    // index — no matter which worker hit its failure first.
    try {
        runLibraSweep(points);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "fatal: " + outcome.status[1].error);
    }
}

// --- Matrix isolation --------------------------------------------------

TEST(MatrixIsolation, AbortModeUnwindsIsolateModeCompletes)
{
    setInformEnabled(false);
    // Default (abort) keeps the classic unwind.
    EXPECT_THROW(runScenarioMatrix({poisonScenarioName()}), FatalError);

    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    MatrixResult result =
        runScenarioMatrix({poisonScenarioName()}, isolate);
    EXPECT_EQ(result.failed, 1u);
    ASSERT_EQ(result.scenarios.size(), 1u);
    const ScenarioRun& run = result.scenarios[0];
    ASSERT_EQ(run.failures.size(), 1u);
    EXPECT_EQ(run.failures[0].index, 1u);
    EXPECT_EQ(run.failures[0].label, "SW(4)_RI(8)");
    EXPECT_NE(run.failures[0].error.find("ResNet-50"),
              std::string::npos);
    // A failing scenario suppresses its table rather than emitting a
    // silently misaligned partial one.
    EXPECT_TRUE(run.output.rows.empty());
}

TEST(MatrixIsolation, OtherScenariosStayByteIdentical)
{
    setInformEnabled(false);
    // The all-ok reference run of the healthy scenario alone.
    MatrixResult ok = runScenarioMatrix({faultMiniScenarioName()});
    ASSERT_EQ(ok.scenarios.size(), 1u);
    std::string okJson = scenarioRunToJson(ok.scenarios[0]).dump(1);
    // All-ok runs carry no "failures" field: pre-isolation schema.
    EXPECT_EQ(okJson.find("failures"), std::string::npos);

    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    MatrixResult mixed = runScenarioMatrix(
        {faultMiniScenarioName(), poisonScenarioName()}, isolate);
    ASSERT_EQ(mixed.scenarios.size(), 2u);
    EXPECT_EQ(mixed.failed, 1u);

    // The healthy scenario's emission is byte-identical to the run
    // where nothing failed at all.
    EXPECT_EQ(scenarioRunToJson(mixed.scenarios[0]).dump(1), okJson);
    // The poisoned scenario's emission carries the failure record.
    std::string bad = scenarioRunToJson(mixed.scenarios[1]).dump(1);
    EXPECT_NE(bad.find("\"failures\""), std::string::npos);
    EXPECT_NE(bad.find("SW(4)_RI(8)"), std::string::npos);
}

TEST(MatrixIsolation, InjectedPointEvalFaultsAreDeterministic)
{
    FaultGuard guard;
    setInformEnabled(false);
    installFaults(parseFaultSpec("point-eval=1,seed=3"));

    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    MatrixResult result =
        runScenarioMatrix({faultMiniScenarioName()}, isolate);
    // Rate 1: every cacheable point fails, with the injector's tag.
    EXPECT_EQ(result.failed, 2u);
    ASSERT_EQ(result.scenarios[0].failures.size(), 2u);
    EXPECT_EQ(result.scenarios[0].failures[0].error,
              "injected point-eval fault");

    // Abort mode: the same injection unwinds instead.
    EXPECT_THROW(runScenarioMatrix({faultMiniScenarioName()}),
                 FatalError);
}

TEST(MatrixFaults, InjectedCacheFaultsNeverChangeTheOutput)
{
    FaultGuard guard;
    setInformEnabled(false);

    // Fault-free, cache-free reference.
    MatrixResult clean = runScenarioMatrix({faultMiniScenarioName()});
    std::string cleanJson = matrixToJson(clean).dump(1);

    // Every cache I/O seam failing at once — open, load, store write,
    // publish rename — must leave the emitted matrix byte-identical:
    // the cache may only ever amortize, never alter.
    installFaults(parseFaultSpec(
        "cache-open=1,cache-load-read=1,cache-store-write=1,"
        "cache-store-rename=1,seed=9"));
    std::string dir = freshDir("libra-fault-matrix");
    MatrixOptions options;
    options.cacheDir = dir;
    MatrixResult faulty =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    EXPECT_EQ(matrixToJson(faulty).dump(1), cleanJson);

    // A partial 25% load-fault rate over a warm cache: some hits are
    // replaced by recomputation, the bytes still cannot change.
    clearFaults();
    MatrixResult warm =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    EXPECT_EQ(matrixToJson(warm).dump(1), cleanJson);
    installFaults(parseFaultSpec("cache-load-read=0.25,seed=9"));
    MatrixResult flaky =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    EXPECT_EQ(matrixToJson(flaky).dump(1), cleanJson);
    std::filesystem::remove_all(dir);
}

TEST(MatrixCsv, FailureRowsCarryTheirOwnHeader)
{
    setInformEnabled(false);
    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    MatrixResult mixed = runScenarioMatrix(
        {faultMiniScenarioName(), poisonScenarioName()}, isolate);
    ASSERT_EQ(mixed.failed, 1u);

    std::ostringstream os;
    emitMatrixCsv(mixed, os);
    const std::string csv = os.str();

    // Failure rows have index/label/error columns, which do not line
    // up with the scenario's label/metric row header — so they must
    // sit under their own header, and every failure row must carry
    // exactly its five columns.
    const std::string failureHeader = "scenario,kind,index,label,error";
    std::size_t at = csv.find(failureHeader);
    ASSERT_NE(at, std::string::npos);
    std::size_t rowStart = csv.find('\n', at) + 1;
    std::size_t rowEnd = csv.find('\n', rowStart);
    std::string row = csv.substr(rowStart, rowEnd - rowStart);
    EXPECT_EQ(row.rfind("test-poison,failure,1,SW(4)_RI(8),", 0), 0u)
        << row;

    // All-ok output has no failure section at all — byte-identical to
    // the pre-isolation emission.
    MatrixResult ok = runScenarioMatrix({faultMiniScenarioName()});
    std::ostringstream okOs;
    emitMatrixCsv(ok, okOs);
    EXPECT_EQ(okOs.str().find("failure"), std::string::npos);
}

// --- Resume after kill -9, with the cache as the only checkpoint ------

#ifdef LIBRA_CLI_PATH

/** Run `libra_cli run-matrix <args>`; returns the exit code. */
int
runCli(const std::string& args, const std::string& stderrPath)
{
    std::string cmd = std::string(LIBRA_CLI_PATH) + " run-matrix " +
                      args + " 2>" + stderrPath;
    int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Published cache entries (`<hash>.json`; tmp files excluded). */
std::size_t
cacheEntries(const std::string& dir)
{
    std::error_code ec;
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = e.path().filename().string();
        n += name.size() > 5 &&
             name.compare(name.size() - 5, 5, ".json") == 0;
    }
    return n;
}

TEST(CacheResume, KilledRunResumesFromTheCacheAlone)
{
    // The static batch and an adaptive prune exploration: every point
    // either leg finishes is stored as it lands, so SIGKILL loses at
    // most the points in flight.
    const std::vector<std::vector<std::string>> inputs = {
        {"explore-frontier"},
        {"explore-frontier", "--explore", "prune"},
    };
    for (const auto& input : inputs) {
        std::string args;
        for (const auto& a : input)
            args += a + " ";
        SCOPED_TRACE(args);
        const std::string dir = freshDir("libra-cache-resume");
        std::filesystem::create_directories(dir);
        const std::string cache = dir + "/cache";

        const std::string ref = dir + "/ref.json";
        ASSERT_EQ(runCli(args + "--emit json --out " + ref, "/dev/null"),
                  0);
        const std::string expected = readFile(ref);
        ASSERT_FALSE(expected.empty());

        // Start a cached run and SIGKILL it once the cache holds real
        // progress — no cooperation from the victim.
        std::vector<std::string> argv = {LIBRA_CLI_PATH, "run-matrix"};
        argv.insert(argv.end(), input.begin(), input.end());
        for (const char* a : {"--cache-dir", cache.c_str(), "--emit",
                              "json", "--out", "/dev/null"})
            argv.push_back(a);
        std::vector<char*> cargv;
        for (auto& a : argv)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::execv(LIBRA_CLI_PATH, cargv.data());
            _exit(127);
        }
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(120);
        while (std::chrono::steady_clock::now() < deadline &&
               cacheEntries(cache) < 1) {
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1; // Finished before the poll saw an entry:
                          // the rerun must still be exact.
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
        const std::size_t atKill = cacheEntries(cache);
        ASSERT_GE(atKill, 1u);

        // The rerun over the same cache completes byte-identically and
        // serves every entry that survived the kill from the cache.
        const std::string out = dir + "/resumed.json";
        const std::string err = dir + "/resumed.err";
        ASSERT_EQ(runCli(args + "--cache-dir " + cache +
                             " --emit json --out " + out,
                         err),
                  0);
        EXPECT_EQ(readFile(out), expected);

        // "matrix: ... (N unique, M from cache, K computed)".
        const std::string provenance = readFile(err);
        const std::string tag = " unique, ";
        auto pos = provenance.find(tag);
        ASSERT_NE(pos, std::string::npos) << provenance;
        const std::size_t fromCache = std::strtoull(
            provenance.c_str() + pos + tag.size(), nullptr, 10);
        EXPECT_GE(fromCache, atKill) << provenance;
        std::filesystem::remove_all(dir);
    }
}

#endif // LIBRA_CLI_PATH

} // namespace
} // namespace libra
