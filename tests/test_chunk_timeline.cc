/**
 * @file
 * Tests for the chunk-level pipeline simulator (Fig. 9).
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/chunk_timeline.hh"

namespace libra {
namespace {

CollectiveJob
arJob(Bytes size, std::vector<DimSpan> spans, int chunks,
      SchedulePolicy policy = SchedulePolicy::FixedAscending)
{
    CollectiveJob j;
    j.type = CollectiveType::AllReduce;
    j.size = size;
    j.spans = std::move(spans);
    j.numChunks = chunks;
    j.policy = policy;
    return j;
}

TEST(ChunkTimeline, SingleDimSingleChunkMatchesAnalytic)
{
    // AR on one dim of 4 at 10 GB/s: 2*1e9*(3/4)/10e9 = 0.15 s.
    ChunkTimeline tl(1, {10.0});
    Seconds t = tl.collectiveTime(arJob(1e9, {{0, 4}}, 1));
    EXPECT_NEAR(t, 0.15, 1e-9);
}

TEST(ChunkTimeline, ManyChunksApproachAnalyticBottleneck)
{
    // With balanced BW the pipelined time approaches the analytical
    // bottleneck time as chunk count grows.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, 1e9, spans);
    BwConfig bw{traffic[0] / 1e9, traffic[1] / 1e9, traffic[2] / 1e9};
    Seconds analytic =
        multiRailTime(CollectiveType::AllReduce, 1e9, spans, bw).time;

    ChunkTimeline tl(3, bw);
    Seconds coarse = tl.collectiveTime(arJob(1e9, spans, 4));
    Seconds fine = tl.collectiveTime(arJob(1e9, spans, 256));

    EXPECT_GT(coarse, analytic);           // Pipeline fill overhead.
    EXPECT_LT(fine, coarse);               // More chunks pipeline better.
    EXPECT_NEAR(fine, analytic, 0.05 * analytic);
}

TEST(ChunkTimeline, UnderprovisionedDimBottlenecks)
{
    // Fig. 9(a): a starving dim 1 keeps other dims underutilized.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    ChunkTimeline starved(3, {1.0, 100.0, 100.0});
    TimelineResult r = starved.run({arJob(1e9, spans, 8)});
    EXPECT_GT(r.dimBusy[0] / r.makespan, 0.95);
    EXPECT_LT(r.dimBusy[1] / r.makespan, 0.2);
    EXPECT_LT(r.dimBusy[2] / r.makespan, 0.2);
}

TEST(ChunkTimeline, BalancedBwMaximizesUtilization)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, 1e9, spans);
    BwConfig balanced{traffic[0] / 1e9, traffic[1] / 1e9,
                      traffic[2] / 1e9};
    ChunkTimeline tlBal(3, balanced);
    ChunkTimeline tlEq(3, BwConfig(3, 1.0));
    double utilBal =
        tlBal.run({arJob(1e9, spans, 64)}).avgBwUtilization;
    double utilEq = tlEq.run({arJob(1e9, spans, 64)}).avgBwUtilization;
    EXPECT_GT(utilBal, utilEq);
    EXPECT_GT(utilBal, 0.8);
}

TEST(ChunkTimeline, RecordCountsAreExact)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 4}};
    ChunkTimeline tl(2, {10.0, 10.0});
    TimelineResult r = tl.run({arJob(1e9, spans, 8)});
    // AR on 2 dims = 4 stages per chunk (2 RS + 2 AG).
    EXPECT_EQ(r.records.size(), 8u * 4u);

    int rsCount = 0, agCount = 0;
    for (const auto& rec : r.records)
        (rec.allGather ? agCount : rsCount)++;
    EXPECT_EQ(rsCount, 16);
    EXPECT_EQ(agCount, 16);
}

TEST(ChunkTimeline, DimSerializesOps)
{
    // Records on the same dimension must not overlap in time.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}};
    ChunkTimeline tl(2, {7.0, 3.0});
    TimelineResult r = tl.run({arJob(2e9, spans, 16)});
    for (std::size_t a = 0; a < r.records.size(); ++a)
        for (std::size_t b = a + 1; b < r.records.size(); ++b) {
            if (r.records[a].dim != r.records[b].dim)
                continue;
            bool disjoint = r.records[a].end <= r.records[b].start + 1e-12
                            || r.records[b].end <=
                                   r.records[a].start + 1e-12;
            EXPECT_TRUE(disjoint);
        }
}

TEST(ChunkTimeline, ConservesVolumePerDim)
{
    // Busy time * BW per dim equals the analytical traffic.
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    BwConfig bw{13.0, 7.0};
    ChunkTimeline tl(2, bw);
    TimelineResult r = tl.run({arJob(3e9, spans, 32)});
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, 3e9, spans);
    EXPECT_NEAR(r.dimBusy[0] * bw[0] * 1e9, traffic[0], traffic[0] * 1e-9);
    EXPECT_NEAR(r.dimBusy[1] * bw[1] * 1e9, traffic[1], traffic[1] * 1e-9);
}

TEST(ChunkTimeline, StandaloneAllGatherVolumes)
{
    // AG alone: dim-i traffic m(g_i-1)/q_i with ascending prefixes.
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    BwConfig bw{10.0, 10.0};
    ChunkTimeline tl(2, bw);
    CollectiveJob j;
    j.type = CollectiveType::AllGather;
    j.size = 1e9;
    j.spans = spans;
    j.numChunks = 16;
    TimelineResult r = tl.run({j});
    auto traffic =
        multiRailTraffic(CollectiveType::AllGather, 1e9, spans);
    EXPECT_NEAR(r.dimBusy[0] * bw[0] * 1e9, traffic[0],
                traffic[0] * 1e-9);
    EXPECT_NEAR(r.dimBusy[1] * bw[1] * 1e9, traffic[1],
                traffic[1] * 1e-9);
}

TEST(ChunkTimeline, AllToAllVolumes)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    BwConfig bw{10.0, 10.0};
    ChunkTimeline tl(2, bw);
    CollectiveJob j;
    j.type = CollectiveType::AllToAll;
    j.size = 1e9;
    j.spans = spans;
    j.numChunks = 8;
    TimelineResult r = tl.run({j});
    auto traffic =
        multiRailTraffic(CollectiveType::AllToAll, 1e9, spans);
    EXPECT_NEAR(r.dimBusy[0] * bw[0] * 1e9, traffic[0],
                traffic[0] * 1e-9);
    EXPECT_NEAR(r.dimBusy[1] * bw[1] * 1e9, traffic[1],
                traffic[1] * 1e-9);
}

TEST(ChunkTimeline, GreedyNoWorseOnImbalance)
{
    // On a BW split that is wrong for the fixed order, greedy
    // (Themis-style) must not be slower.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    BwConfig bw{5.0, 30.0, 10.0};
    ChunkTimeline tl(3, bw);
    Seconds fixed = tl.collectiveTime(arJob(1e9, spans, 64));
    Seconds greedy = tl.collectiveTime(
        arJob(1e9, spans, 64, SchedulePolicy::Greedy));
    EXPECT_LE(greedy, fixed * 1.001);
}

TEST(ChunkTimeline, ReleaseTimeDelaysJob)
{
    std::vector<DimSpan> spans{{0, 4}};
    ChunkTimeline tl(1, {10.0});
    CollectiveJob j = arJob(1e9, spans, 4);
    j.releaseTime = 5.0;
    TimelineResult r = tl.run({j});
    EXPECT_GE(r.records.front().start, 5.0);
    EXPECT_NEAR(r.makespan, 5.0 + 0.15, 1e-6);
}

TEST(ChunkTimeline, TwoJobsContendOnSharedDim)
{
    std::vector<DimSpan> spans{{0, 4}};
    ChunkTimeline tl(1, {10.0});
    CollectiveJob j = arJob(1e9, spans, 4);
    TimelineResult r = tl.run({j, j});
    // Two identical ARs on one dim take twice one AR.
    EXPECT_NEAR(r.makespan, 0.30, 1e-6);
}

TEST(ChunkTimeline, RenderProducesRows)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 4}};
    ChunkTimeline tl(2, {10.0, 10.0});
    TimelineResult r = tl.run({arJob(1e9, spans, 4)});
    std::string art = r.render(2, 40);
    EXPECT_NE(art.find("Dim1"), std::string::npos);
    EXPECT_NE(art.find("Dim2"), std::string::npos);
    EXPECT_NE(art.find("% busy"), std::string::npos);
}

TEST(ChunkTimeline, MalformedJobsAreFatal)
{
    ChunkTimeline tl(2, {10.0, 10.0});
    EXPECT_THROW(tl.run({arJob(1e9, {{0, 4}}, 0)}), FatalError);
    // A span past the network's dimensions used to index out of bounds.
    EXPECT_THROW(tl.run({arJob(1e9, {{0, 4}, {2, 4}}, 4)}), FatalError);
}

/** Property: makespan decreases (weakly) as bottleneck BW increases. */
class TimelineMonotonicity : public ::testing::TestWithParam<double>
{};

TEST_P(TimelineMonotonicity, MoreBwNotSlower)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    ChunkTimeline slow(2, {GetParam(), 10.0});
    ChunkTimeline fast(2, {GetParam() * 2.0, 10.0});
    Seconds ts = slow.collectiveTime(arJob(1e9, spans, 16));
    Seconds tf = fast.collectiveTime(arJob(1e9, spans, 16));
    EXPECT_LE(tf, ts + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Bw, TimelineMonotonicity,
                         ::testing::Values(1.0, 5.0, 20.0, 100.0));

std::uint64_t
splitmix64(std::uint64_t* state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Uniform double in [lo, hi). */
double
uniform(std::uint64_t* state, double lo, double hi)
{
    return lo + (hi - lo) * static_cast<double>(splitmix64(state) >> 11) *
                    0x1.0p-53;
}

/** Uniform integer in [lo, hi]. */
int
uniformInt(std::uint64_t* state, int lo, int hi)
{
    return lo + static_cast<int>(splitmix64(state) %
                                 static_cast<std::uint64_t>(hi - lo + 1));
}

void
fnv1a(std::uint64_t* hash, const std::string& text)
{
    for (unsigned char c : text) {
        *hash ^= c;
        *hash *= 0x100000001b3ull;
    }
}

std::string
hexfloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/**
 * Bit-identity pin: FNV-1a over the hexfloat makespan, dimBusy and
 * every record of a seeded corpus. The corpus draws every collective
 * type, both schedule policies, partial-span efficiencies, multi-job
 * releases and 1-5 dims. The digest was computed on the
 * std::function/EventQueue engine; any rewrite of ChunkTimeline must
 * reproduce it bit for bit.
 */
TEST(ChunkTimeline, SeededCorpusDigestIsPinned)
{
    constexpr int kCases = 2000;
    constexpr CollectiveType kTypes[] = {
        CollectiveType::AllReduce, CollectiveType::ReduceScatter,
        CollectiveType::AllGather, CollectiveType::AllToAll,
        CollectiveType::PointToPoint};
    std::uint64_t rng = 0x4c49425241ull; // "LIBRA"
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::size_t totalRecords = 0;
    bool sawType[5] = {};
    bool sawPolicy[2] = {};
    bool sawPartial = false;
    bool sawMultiJobRelease = false;
    for (int c = 0; c < kCases; ++c) {
        std::size_t dims = static_cast<std::size_t>(c % 5) + 1;
        BwConfig bw(dims);
        for (double& b : bw)
            b = uniform(&rng, 1.0, 500.0);
        ChunkTimeline tl(dims, bw);

        std::vector<CollectiveJob> jobs(
            static_cast<std::size_t>(uniformInt(&rng, 1, 3)));
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            CollectiveJob& job = jobs[j];
            int t = (c / 5 + static_cast<int>(j)) % 5;
            job.type = kTypes[t];
            sawType[t] = true;
            job.policy = uniformInt(&rng, 0, 1) == 1
                             ? SchedulePolicy::Greedy
                             : SchedulePolicy::FixedAscending;
            sawPolicy[job.policy == SchedulePolicy::Greedy] = true;
            job.size = uniform(&rng, 1e6, 4e9);
            job.numChunks = uniformInt(&rng, 1, 48);
            if (j > 0 && uniformInt(&rng, 0, 1) == 1) {
                job.releaseTime = uniform(&rng, 0.0, 0.05);
                sawMultiJobRelease = true;
            }
            for (std::size_t d = 0; d < dims; ++d) {
                if (dims > 1 && uniformInt(&rng, 0, 3) == 0)
                    continue; // Groups need not span every dim.
                DimSpan span;
                span.dim = d;
                span.groupSize = uniformInt(&rng, 2, 16);
                if (uniformInt(&rng, 0, 2) == 0) {
                    span.efficiency = uniform(&rng, 0.25, 1.0);
                    sawPartial = true;
                }
                job.spans.push_back(span);
            }
        }

        TimelineResult r = tl.run(jobs);
        std::string text = hexfloat(r.makespan) + "|" +
                           hexfloat(r.avgBwUtilization) + "|";
        for (Seconds busy : r.dimBusy)
            text += hexfloat(busy) + ",";
        for (const TimelineRecord& rec : r.records) {
            text += std::to_string(rec.job) + ":" +
                    std::to_string(rec.chunk) + ":" +
                    std::to_string(rec.dim) + ":" +
                    (rec.allGather ? "g" : "s") + ":" +
                    hexfloat(rec.start) + ":" + hexfloat(rec.end) + ";";
        }
        fnv1a(&hash, text);
        totalRecords += r.records.size();
    }

    for (bool seen : sawType)
        EXPECT_TRUE(seen);
    EXPECT_TRUE(sawPolicy[0] && sawPolicy[1]);
    EXPECT_TRUE(sawPartial);
    EXPECT_TRUE(sawMultiJobRelease);
    EXPECT_EQ(totalRecords, 239532u);
    EXPECT_EQ(hash, 4126901080887435852ull);
}

} // namespace
} // namespace libra
