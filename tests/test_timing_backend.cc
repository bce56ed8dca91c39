/**
 * @file
 * Tests for the pluggable timing-backend layer: registry mechanics,
 * default-backend bit-identity with the seed analytical path, the
 * per-evaluation collective plan, the BACKEND study directive, and
 * the study-cache-key folding rules.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/estimator.hh"
#include "core/objective.hh"
#include "core/study_config.hh"
#include "core/timing_backend.hh"
#include "cost/cost_model.hh"
#include "study/cache.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

TEST(TimingBackendRegistry, BuiltinsAreRegistered)
{
    const TimingBackendRegistry& registry =
        TimingBackendRegistry::global();
    std::vector<std::string> names = registry.names();
    ASSERT_GE(names.size(), 2u);
    EXPECT_EQ(names[0], kAnalyticalTimingBackendName);
    EXPECT_EQ(names[1], kChunkSimTimingBackendName);
    for (const auto& name : names) {
        const TimingBackend* b = registry.find(name);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->name(), name);
        EXPECT_FALSE(b->description().empty());
    }
    EXPECT_EQ(registry.find("no-such-backend"), nullptr);
}

TEST(TimingBackendRegistry, ResolveDefaultsAndUnknowns)
{
    // "" resolves to the analytical default.
    EXPECT_EQ(resolveTimingBackend(""),
              resolveTimingBackend(kAnalyticalTimingBackendName));
    EXPECT_EQ(timingBackendOrDefault(""), kAnalyticalTimingBackendName);
    EXPECT_EQ(timingBackendOrDefault("chunk-sim"), "chunk-sim");
    EXPECT_THROW(resolveTimingBackend("no-such-backend"), FatalError);
}

/** Minimal backend for registry-mechanics tests. */
class NullBackend final : public TimingBackend
{
  public:
    std::string name() const override { return "null-test"; }
    std::string description() const override { return "test only"; }
    CollectiveTiming
    timing(CollectiveType, Bytes, const std::vector<DimSpan>& spans,
           const BwConfig&, bool) const override
    {
        CollectiveTiming t;
        t.trafficPerDim.assign(spans.size(), 0.0);
        t.timePerDim.assign(spans.size(), 0.0);
        return t;
    }
};

TEST(TimingBackendRegistry, DuplicateAndNullRegistrationsThrow)
{
    TimingBackendRegistry registry;
    registry.add(std::make_unique<NullBackend>());
    EXPECT_THROW(registry.add(std::make_unique<NullBackend>()),
                 FatalError);
    EXPECT_THROW(registry.add(nullptr), FatalError);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(TimingBackend, AnalyticalBackendMatchesMultiRailBitForBit)
{
    Network net = topo::threeD512();
    auto spans = mapGroupToDims(net, 1, net.npus());
    BwConfig bw{120.0, 45.0, 12.5};
    const TimingBackend* analytical = resolveTimingBackend("");
    for (CollectiveType type :
         {CollectiveType::AllReduce, CollectiveType::ReduceScatter,
          CollectiveType::AllGather, CollectiveType::AllToAll}) {
        for (bool inNet : {false, true}) {
            CollectiveTiming a =
                analytical->timing(type, 5e9, spans, bw, inNet);
            CollectiveTiming m = multiRailTime(type, 5e9, spans, bw,
                                               inNet);
            EXPECT_EQ(a.time, m.time);
            EXPECT_EQ(a.trafficPerDim, m.trafficPerDim);
            EXPECT_EQ(a.timePerDim, m.timePerDim);
            EXPECT_EQ(a.bottleneckSpan, m.bottleneckSpan);
        }
    }
}

/**
 * Selecting the default backend by name must be bit-identical to the
 * seed path (no backend field at all): backend_ stays null in both
 * cases, so this pins the wiring rather than FP luck.
 */
TEST(TimingBackend, DefaultBackendIsBitIdenticalWithSeedPath)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    Workload w = wl::gpt3(net.npus());
    BwConfig bw = net.equalBw(300.0);

    TrainingEstimator seed(net); // Historical default construction.
    EstimatorOptions named;
    named.timingBackend = kAnalyticalTimingBackendName;
    TrainingEstimator explicitDefault(net, named);

    EXPECT_TRUE(seed.usesAnalyticalTiming());
    EXPECT_TRUE(explicitDefault.usesAnalyticalTiming());
    EXPECT_EQ(seed.estimate(w, bw), explicitDefault.estimate(w, bw));
    EXPECT_EQ(seed.detail(w, bw).total,
              explicitDefault.detail(w, bw).total);
}

TEST(TimingBackend, ChunkSimSingleDimensionMatchesAnalytical)
{
    // On a single-dimension span there is no pipeline to ramp: the
    // chunked sim serializes on the one dimension and reproduces the
    // analytical time (up to chunk-sum rounding and tick resolution).
    std::vector<DimSpan> spans{{0, 8, 1.0}};
    BwConfig bw{50.0};
    const TimingBackend* sim = resolveTimingBackend("chunk-sim");
    for (CollectiveType type :
         {CollectiveType::AllReduce, CollectiveType::ReduceScatter,
          CollectiveType::AllGather, CollectiveType::AllToAll}) {
        CollectiveTiming a = multiRailTime(type, 2e9, spans, bw);
        CollectiveTiming s = sim->timing(type, 2e9, spans, bw, false);
        EXPECT_NEAR(s.time, a.time, a.time * 1e-9) <<
            collectiveTypeName(type);
        EXPECT_EQ(s.trafficPerDim, a.trafficPerDim);
    }
}

// --- Per-evaluation collective plan ------------------------------------

/** The analytical model under another name, counting its calls. */
class CountingTimingBackend final : public TimingBackend
{
  public:
    std::string name() const override { return "counting-test"; }

    std::string
    description() const override
    {
        return "analytical timing that counts its calls (tests)";
    }

    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool in_network) const override
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        return multiRailTime(type, size, spans, bw, in_network);
    }

    mutable std::atomic<long> calls{0};
};

/** The counting backend, registered globally on first use. */
const CountingTimingBackend&
countingBackend()
{
    static const CountingTimingBackend* backend = [] {
        auto owned = std::make_unique<CountingTimingBackend>();
        const CountingTimingBackend* raw = owned.get();
        TimingBackendRegistry::global().add(std::move(owned));
        return raw;
    }();
    return *backend;
}

/**
 * estimate()/detail() written out op by op: every op with a nonempty
 * group is timed through @p backend, in order, with the estimator's
 * historical arithmetic.
 */
EstimateDetail
referenceDetail(const TrainingEstimator& est, const TimingBackend& backend,
                const Workload& w, const BwConfig& bw)
{
    EstimateDetail d;
    d.dimBusy.assign(est.network().numDims(), 0.0);
    d.dimTraffic.assign(est.network().numDims(), 0.0);
    auto phase = [&](const std::vector<CommOp>& ops) {
        Seconds total = 0.0;
        for (const auto& op : ops) {
            std::vector<DimSpan> spans = est.spansFor(w.strategy, op.scope);
            if (spans.empty())
                continue;
            CollectiveTiming t =
                backend.timing(op.type, op.size, spans, bw,
                               est.options().inNetworkCollectives);
            total += t.time;
            for (std::size_t s = 0; s < spans.size(); ++s) {
                d.dimBusy[spans[s].dim] += t.timePerDim[s];
                d.dimTraffic[spans[s].dim] += t.trafficPerDim[s];
            }
        }
        return total;
    };
    for (const auto& layer : w.layers) {
        Seconds fwdComm = phase(layer.fwdComm);
        Seconds igComm = phase(layer.igComm);
        Seconds wgComm = phase(layer.wgComm);
        d.fwdCompute += layer.fwdCompute;
        d.fwdComm += fwdComm;
        d.igCompute += layer.igCompute;
        d.igComm += igComm;
        d.wgCompute += layer.wgCompute;
        d.wgComm += wgComm;
        d.total += layer.fwdCompute + fwdComm;
        if (est.options().loop == TrainingLoop::NoOverlap) {
            d.total += layer.igCompute + igComm + layer.wgCompute + wgComm;
            d.exposedComm += fwdComm + igComm + wgComm;
        } else {
            Seconds bwdTail = std::max(igComm, layer.wgCompute + wgComm);
            d.total += layer.igCompute + bwdTail;
            d.exposedComm += fwdComm + bwdTail -
                             std::min(bwdTail, layer.wgCompute);
        }
    }
    d.computeTotal = d.fwdCompute + d.igCompute + d.wgCompute;
    double sumBw = 0.0;
    for (double b : bw)
        sumBw += b;
    Bytes moved = 0.0;
    for (Bytes t : d.dimTraffic)
        moved += t;
    Seconds comm = d.fwdComm + d.igComm + d.wgComm;
    if (comm > 0.0 && sumBw > 0.0)
        d.avgBwUtilization = moved / (sumBw * kGiga * comm);
    return d;
}

/** Distinct (type, size bits, scope) collectives with a nonempty group,
 *  and the number of such ops. */
std::pair<std::size_t, std::size_t>
countCollectives(const TrainingEstimator& est, const Workload& w)
{
    std::set<std::tuple<int, std::uint64_t, int>> distinct;
    std::size_t ops = 0;
    for (const auto& layer : w.layers) {
        for (const auto* phase :
             {&layer.fwdComm, &layer.igComm, &layer.wgComm}) {
            for (const auto& op : *phase) {
                if (est.spansFor(w.strategy, op.scope).empty())
                    continue;
                ++ops;
                distinct.insert({static_cast<int>(op.type),
                                 std::bit_cast<std::uint64_t>(op.size),
                                 static_cast<int>(op.scope)});
            }
        }
    }
    return {distinct.size(), ops};
}

void
expectBitEqual(double got, double want, const char* what)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << what << ": " << got << " vs " << want;
}

void
expectBitEqual(const std::vector<double>& got,
               const std::vector<double>& want, const char* what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitEqual(got[i], want[i], what);
}

/**
 * Timing each distinct collective once per evaluation must be
 * bit-identical to timing every op: estimate(), detail() and the
 * non-compiled objective against the per-op reference, under a
 * counting backend and under chunk-sim, both training loops, and
 * in-network collectives on and off. The counting backend sees
 * exactly one call per distinct collective per evaluation.
 */
TEST(CollectivePlan, MatchesPerOpReferenceAndTimesEachCollectiveOnce)
{
    const CountingTimingBackend& counting = countingBackend();
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    BwConfig bw{120.0, 70.0, 35.0};
    CostModel cost = CostModel::defaultModel();
    for (std::string backendName :
         {counting.name(), std::string(kChunkSimTimingBackendName)}) {
        for (TrainingLoop loop :
             {TrainingLoop::NoOverlap, TrainingLoop::TpDpOverlap}) {
            for (bool inNetwork : {false, true}) {
                EstimatorOptions opt;
                opt.loop = loop;
                opt.inNetworkCollectives = inNetwork;
                opt.timingBackend = backendName;
                TrainingEstimator est(net, opt);
                const TimingBackend& backend =
                    *resolveTimingBackend(backendName);
                for (const Workload& w :
                     {wl::resnet50(net.npus()), wl::turingNlg(net.npus()),
                      wl::dlrm(net.npus())}) {
                    SCOPED_TRACE(backendName + " " + w.name +
                                 (loop == TrainingLoop::NoOverlap
                                      ? " NoOverlap"
                                      : " TpDpOverlap") +
                                 (inNetwork ? " in-network" : ""));
                    EstimateDetail want =
                        referenceDetail(est, backend, w, bw);
                    auto [distinct, ops] = countCollectives(est, w);
                    ASSERT_GT(distinct, 0u);

                    counting.calls = 0;
                    expectBitEqual(est.estimate(w, bw), want.total,
                                   "estimate");
                    EstimateDetail got = est.detail(w, bw);
                    ScalarObjective f = makeObjective(
                        OptimizationObjective::PerfOpt, est, cost,
                        {{w, 1.0}});
                    expectBitEqual(f(bw), want.total, "objective");
                    expectBitEqual(f(bw), want.total, "objective");
                    if (backendName == counting.name()) {
                        // estimate, detail and two objective calls.
                        EXPECT_EQ(counting.calls.load(),
                                  static_cast<long>(4 * distinct))
                            << distinct << " distinct of " << ops
                            << " ops";
                    }

                    expectBitEqual(got.total, want.total, "total");
                    expectBitEqual(got.computeTotal, want.computeTotal,
                                   "computeTotal");
                    expectBitEqual(got.exposedComm, want.exposedComm,
                                   "exposedComm");
                    expectBitEqual(got.fwdCompute, want.fwdCompute,
                                   "fwdCompute");
                    expectBitEqual(got.fwdComm, want.fwdComm, "fwdComm");
                    expectBitEqual(got.igCompute, want.igCompute,
                                   "igCompute");
                    expectBitEqual(got.igComm, want.igComm, "igComm");
                    expectBitEqual(got.wgCompute, want.wgCompute,
                                   "wgCompute");
                    expectBitEqual(got.wgComm, want.wgComm, "wgComm");
                    expectBitEqual(got.dimBusy, want.dimBusy, "dimBusy");
                    expectBitEqual(got.dimTraffic, want.dimTraffic,
                                   "dimTraffic");
                    expectBitEqual(got.avgBwUtilization,
                                   want.avgBwUtilization,
                                   "avgBwUtilization");
                }
            }
        }
    }
}

TEST(TimingBackend, InNetworkAllReduceFallsBackToClosedForm)
{
    // The chunk simulator has no switch-reduction mode; the offloaded
    // All-Reduce must keep the analytical m / q_{i-1} form exactly.
    Network net = topo::threeDTorus();
    auto spans = mapGroupToDims(net, 1, net.npus());
    BwConfig bw{80.0, 40.0, 20.0};
    const TimingBackend* sim = resolveTimingBackend("chunk-sim");
    CollectiveTiming s =
        sim->timing(CollectiveType::AllReduce, 3e9, spans, bw, true);
    CollectiveTiming a =
        multiRailTime(CollectiveType::AllReduce, 3e9, spans, bw, true);
    EXPECT_EQ(s.time, a.time);
    EXPECT_EQ(s.trafficPerDim, a.trafficPerDim);
}

TEST(TimingBackend, EstimatorRejectsUnknownBackend)
{
    EstimatorOptions opt;
    opt.timingBackend = "no-such-backend";
    EXPECT_THROW(TrainingEstimator(Network::parse("RI(4)"), opt),
                 FatalError);
}

TEST(TimingBackend, CompileRejectedUnderNonDefaultBackend)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    EstimatorOptions opt;
    opt.timingBackend = kChunkSimTimingBackendName;
    TrainingEstimator est(net, opt);
    EXPECT_FALSE(est.usesAnalyticalTiming());
    EXPECT_THROW(est.compile(wl::resnet50(net.npus())), FatalError);
}

// --- BACKEND study directive -------------------------------------------

const char* kChunkSimStudy =
    "NETWORK RI(4)_FC(4)_SW(4)\n"
    "TOTAL_BW 300\n"
    "BACKEND chunk-sim\n"
    "WORKLOAD resnet50\n";

TEST(BackendDirective, ParseSerializeParseRoundTrips)
{
    LibraInputs first = parseStudyConfigString(kChunkSimStudy);
    EXPECT_EQ(first.config.estimator.timingBackend, "chunk-sim");
    std::string serialized = studyConfigToString(first);
    EXPECT_NE(serialized.find("BACKEND chunk-sim"), std::string::npos);
    LibraInputs second = parseStudyConfigString(serialized);
    EXPECT_TRUE(studyInputsEqual(first, second)) << serialized;
    // Fixpoint: serializing again reproduces the text byte-for-byte.
    EXPECT_EQ(serialized, studyConfigToString(second));
}

TEST(BackendDirective, ExplicitAnalyticalEqualsOmittedDefault)
{
    LibraInputs named = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nBACKEND analytical\nWORKLOAD resnet50\n");
    LibraInputs plain = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    EXPECT_TRUE(studyInputsEqual(named, plain));
    // The serializer normalizes: the default backend emits no line.
    EXPECT_EQ(studyConfigToString(named).find("BACKEND"),
              std::string::npos);
}

TEST(BackendDirective, UnknownNameFailsWithLineNumber)
{
    try {
        parseStudyConfigString(
            "NETWORK RI(4)_SW(8)\nBACKEND warp-drive\n"
            "WORKLOAD resnet50\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("warp-drive"),
                  std::string::npos)
            << e.what();
    }
}

// --- Study-cache key coverage ------------------------------------------

TEST(BackendCacheKey, DefaultBackendLeavesKeyUnchanged)
{
    LibraInputs plain = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    LibraInputs named = plain;
    named.config.estimator.timingBackend = kAnalyticalTimingBackendName;
    // Pre-PR keys must stay byte-identical (no version bump).
    EXPECT_EQ(canonicalStudyKey(plain), canonicalStudyKey(named));
    EXPECT_EQ(canonicalStudyKey(plain).find("timing("),
              std::string::npos);
}

TEST(BackendCacheKey, NonDefaultBackendChangesKey)
{
    LibraInputs plain = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    LibraInputs sim = plain;
    sim.config.estimator.timingBackend = kChunkSimTimingBackendName;
    EXPECT_TRUE(studyPointCacheable(sim));
    std::string plainKey = canonicalStudyKey(plain);
    std::string simKey = canonicalStudyKey(sim);
    EXPECT_NE(plainKey, simKey);
    // The folded content is the backend's cacheKeyTag — name plus
    // semantic parameters — so a chunk-count change invalidates
    // previously cached chunk-sim results.
    std::string tag =
        "timing(" +
        resolveTimingBackend(kChunkSimTimingBackendName)->cacheKeyTag() +
        ")";
    EXPECT_NE(simKey.find(tag), std::string::npos) << simKey;
    EXPECT_NE(simKey.find("timing(chunk-sim/"), std::string::npos)
        << simKey;
    EXPECT_NE(studyCacheHash(plain), studyCacheHash(sim));
}

} // namespace
} // namespace libra
