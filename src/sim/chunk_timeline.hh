/**
 * @file
 * Chunk-level multi-rail collective pipeline simulator (paper Fig. 9).
 *
 * Collectives split into chunks that flow through per-dimension stages:
 * Reduce-Scatter ascending then All-Gather descending for All-Reduce.
 * Each network dimension is a serial resource (one chunk-stage at a
 * time), so an under-provisioned dimension backs the pipeline up exactly
 * as in Fig. 9(a)/(b). The simulator supports two scheduling policies:
 *
 *  - FixedAscending: the canonical multi-rail order (dim 1..N for RS).
 *  - Greedy: a Themis-style scheduler [39] that picks, per chunk, the
 *    dimension with the earliest completion time for its next stage —
 *    traffic per dimension depends on the visit order (earlier stages
 *    carry bigger, less-reduced payloads), which is precisely the degree
 *    of freedom Themis exploits to rebalance load.
 *
 * Output is a full op-level timeline with per-dimension busy time and
 * the BW-weighted average network utilization (the Fig. 10 metric).
 *
 * The engine is a flat event loop: a (when, seq)-ordered heap of POD
 * stage-end events beside a time-sorted release array, POD chunk
 * records whose span lists are slices of two flat arrays, and one
 * vector-backed FIFO per dimension, all reused per thread. Events fire
 * in (when, seq) order: integer picosecond ticks first, then FIFO by
 * scheduling order, so runs are bit-reproducible;
 * tests/test_chunk_timeline.cc pins its output bits with a seeded
 * digest.
 */

#ifndef LIBRA_SIM_CHUNK_TIMELINE_HH
#define LIBRA_SIM_CHUNK_TIMELINE_HH

#include <span>
#include <string>
#include <vector>

#include "collective/multi_rail.hh"
#include "topology/network.hh"

namespace libra {

/** Chunk scheduling policy across dimensions. */
enum class SchedulePolicy { FixedAscending, Greedy };

/** One collective injected into the timeline. */
struct CollectiveJob
{
    CollectiveType type = CollectiveType::AllReduce;
    Bytes size = 0.0;            ///< Whole-collective payload.
    std::vector<DimSpan> spans;  ///< Dimensions the group occupies.
    int numChunks = 64;          ///< Pipelining granularity (§V-B).
    Seconds releaseTime = 0.0;   ///< Injection time.
    SchedulePolicy policy = SchedulePolicy::FixedAscending;
};

/** One executed chunk-stage, for timeline rendering. */
struct TimelineRecord
{
    int job = 0;
    int chunk = 0;
    std::size_t dim = 0;
    bool allGather = false; ///< False: RS (or the only phase); true: AG.
    Seconds start = 0.0;
    Seconds end = 0.0;
};

/** Aggregate result of a timeline run. */
struct TimelineResult
{
    Seconds makespan = 0.0;          ///< Last completion time.
    std::vector<Seconds> dimBusy;    ///< Busy seconds per network dim.
    std::vector<TimelineRecord> records;

    /**
     * BW-weighted average utilization over the makespan:
     * sum_d busy_d * B_d / (makespan * sum_d B_d).
     */
    double avgBwUtilization = 0.0;

    /** ASCII rendering of the per-dimension timeline (Fig. 9 style). */
    std::string render(std::size_t num_dims, int width = 72) const;
};

/**
 * Simulate @p jobs to completion on a bw.size()-dim network; what
 * ChunkTimeline::run does, without copying @p bw into a timeline. A
 * warm thread allocates only the result.
 * @throws FatalError on a job with spans but fewer than one chunk, or
 * a span outside the network's dimensions.
 */
TimelineResult runChunkTimeline(const BwConfig& bw,
                                std::span<const CollectiveJob> jobs);

/** Chunk-granularity simulator over one network's dimensions. */
class ChunkTimeline
{
  public:
    ChunkTimeline(std::size_t num_dims, BwConfig bw);

    /** Simulate all jobs to completion. */
    TimelineResult run(const std::vector<CollectiveJob>& jobs) const;

    /** Convenience: single job, returns its completion time. */
    Seconds collectiveTime(const CollectiveJob& job) const;

  private:
    std::size_t numDims_;
    BwConfig bw_;
};

} // namespace libra

#endif // LIBRA_SIM_CHUNK_TIMELINE_HH
