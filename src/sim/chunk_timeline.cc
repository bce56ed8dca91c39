#include "sim/chunk_timeline.hh"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>

#include "common/logging.hh"

namespace libra {

namespace {

/** Phase a chunk is in. */
enum class Phase : std::uint8_t { ReduceScatter, AllGatherMirror,
                                  AllGather, AllToAll, Done };

/**
 * Mutable per-chunk state while flowing through the pipeline. Its
 * `remaining` span list and RS-mirror stack are the slices
 * [base, base + spans) of the engine's two flat arrays.
 */
struct Chunk
{
    std::uint32_t job;
    std::uint32_t chunk;
    std::uint32_t base;      ///< First slot of both slices.
    std::uint32_t remCount;  ///< Span indices not yet visited.
    std::uint32_t rsCount;   ///< Visited RS stages on the mirror stack.
    std::uint32_t a2aNext;   ///< Next span index for All-to-All.
    Phase phase;
    double fraction;         ///< Payload share left after reductions.
    double gatherProduct;    ///< Product of groups not yet gathered.
};

/** One visited RS stage, replayed in reverse by the AG mirror. */
struct RsStage
{
    std::uint32_t span;
    Seconds duration;
};

/** A chunk-stage waiting for its dimension. */
struct Pending
{
    std::uint32_t chunk;
    bool allGather;
    Seconds duration;
};

/**
 * One dimension: its FIFO of waiting stages (a vector drained from a
 * head index), greedy's drain-time estimate, and whether a stage is in
 * flight.
 */
struct DimState
{
    std::vector<Pending> ops;
    std::size_t head = 0;
    Seconds queueEnd = 0.0;
    bool busy = false;
};

/**
 * One scheduled stage end: @c chunk leaves @c dim at @c when. Ordered
 * by (when, seq), the EventQueue rule.
 */
struct Event
{
    Tick when;
    std::uint64_t seq;
    std::uint32_t chunk;
    std::uint32_t dim;
};

/** A chunk's injection into the pipeline. */
struct Release
{
    Tick when;
    std::uint32_t chunk;
};

struct Later
{
    bool
    operator()(const Event& a, const Event& b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

/** Per-thread buffers, reused so a warm run allocates only its result. */
struct Workspace
{
    std::vector<Chunk> chunks;
    std::vector<std::uint32_t> remaining;
    std::vector<RsStage> rsStages;
    std::vector<Event> heap;
    std::vector<Release> releases;
    std::vector<Bytes> chunkBytes; ///< Per job: size / numChunks.
    std::vector<DimState> dims;
};

/**
 * One discrete-event run over @p jobs.
 *
 * Event order is the EventQueue's (when, seq) order with seq the
 * scheduling order. Every release is scheduled before the first stage
 * end, so releases take the lowest seqs: they sit in their own array,
 * stably sorted by time, and win ties against the heap. The heap then
 * holds only in-flight stage ends, at most one per dimension.
 */
class Engine
{
  public:
    Engine(const BwConfig& bw, std::span<const CollectiveJob> jobs,
           Workspace& workspace, TimelineResult& result)
        : bw_(bw), jobs_(jobs), s_(workspace), result_(result)
    {
    }

    void
    run()
    {
        const std::size_t numDims = bw_.size();
        result_.dimBusy.assign(numDims, 0.0);
        s_.dims.resize(numDims);
        for (DimState& d : s_.dims) {
            d.ops.clear();
            d.head = 0;
            d.queueEnd = 0.0;
            d.busy = false;
        }
        s_.heap.clear();
        s_.releases.clear();
        s_.chunks.clear();
        s_.chunkBytes.resize(jobs_.size());

        // Size every array up front: chunks, span slots, records.
        std::size_t numChunks = 0;
        std::size_t slots = 0;
        std::size_t stages = 0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const CollectiveJob& job = jobs_[j];
            if (job.spans.empty())
                continue;
            if (job.numChunks < 1)
                fatal("job ", j, " has ", job.numChunks, " chunks");
            s_.chunkBytes[j] =
                job.size / static_cast<double>(job.numChunks);
            for (const DimSpan& span : job.spans) {
                if (span.dim >= numDims)
                    fatal("job ", j, " spans dim ", span.dim,
                          " of a ", numDims, "-dim timeline");
            }
            auto n = static_cast<std::size_t>(job.numChunks);
            std::size_t perChunk = job.spans.size();
            if (job.type == CollectiveType::AllReduce)
                perChunk *= 2;
            else if (job.type == CollectiveType::PointToPoint)
                perChunk = 1;
            numChunks += n;
            slots += n * job.spans.size();
            stages += n * perChunk;
        }
        if (slots > std::numeric_limits<std::uint32_t>::max())
            fatal("chunk timeline too large: ", slots, " chunk-spans");
        s_.chunks.reserve(numChunks);
        s_.releases.reserve(numChunks);
        s_.remaining.resize(slots);
        s_.rsStages.resize(slots);
        result_.records.reserve(stages);

        std::uint32_t base = 0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const CollectiveJob& job = jobs_[j];
            if (job.spans.empty())
                continue;
            auto spans = static_cast<std::uint32_t>(job.spans.size());
            double gatherProduct = 1.0;
            for (const DimSpan& span : job.spans)
                gatherProduct *= static_cast<double>(span.groupSize);
            Phase phase = Phase::ReduceScatter;
            switch (job.type) {
              case CollectiveType::AllReduce:
              case CollectiveType::ReduceScatter:
                phase = Phase::ReduceScatter;
                break;
              case CollectiveType::AllGather:
                phase = Phase::AllGather;
                break;
              case CollectiveType::AllToAll:
              case CollectiveType::PointToPoint:
                phase = Phase::AllToAll;
                break;
            }
            Tick release = toTicks(job.releaseTime);
            for (int ch = 0; ch < job.numChunks; ++ch) {
                // Canonical standalone AG visits dims descending.
                for (std::uint32_t s = 0; s < spans; ++s) {
                    s_.remaining[base + s] =
                        phase == Phase::AllGather ? spans - 1 - s : s;
                }
                auto index = static_cast<std::uint32_t>(s_.chunks.size());
                s_.chunks.push_back({static_cast<std::uint32_t>(j),
                                     static_cast<std::uint32_t>(ch),
                                     base, spans, 0, 0, phase, 1.0,
                                     gatherProduct});
                s_.releases.push_back({release, index});
                base += spans;
            }
        }
        auto earlier = [](const Release& a, const Release& b) {
            return a.when < b.when;
        };
        // Usually sorted already (one release time per job, jobs in
        // time order); stable_sort would allocate a buffer regardless.
        if (!std::is_sorted(s_.releases.begin(), s_.releases.end(),
                            earlier))
            std::stable_sort(s_.releases.begin(), s_.releases.end(),
                             earlier);

        std::size_t nextRelease = 0;
        while (true) {
            bool release = nextRelease < s_.releases.size();
            if (!s_.heap.empty() &&
                (!release ||
                 s_.heap.front().when < s_.releases[nextRelease].when)) {
                std::pop_heap(s_.heap.begin(), s_.heap.end(), Later{});
                Event ev = s_.heap.back();
                s_.heap.pop_back();
                setNow(ev.when);
                startNext(ev.dim);
                advance(ev.chunk);
            } else if (release) {
                const Release& r = s_.releases[nextRelease++];
                setNow(r.when);
                advance(r.chunk);
            } else {
                break;
            }
        }

        double sumBw = 0.0;
        double weighted = 0.0;
        for (std::size_t d = 0; d < numDims; ++d) {
            sumBw += bw_[d];
            weighted += result_.dimBusy[d] * bw_[d];
        }
        if (result_.makespan > 0.0 && sumBw > 0.0)
            result_.avgBwUtilization =
                weighted / (result_.makespan * sumBw);
    }

  private:
    void
    setNow(Tick now)
    {
        now_ = now;
        nowSeconds_ = toSeconds(now);
    }

    void
    schedule(Tick when, std::uint32_t chunk, std::uint32_t dim)
    {
        if (when < now_)
            panic("scheduling event at ", when, " before now ", now_);
        s_.heap.push_back({when, nextSeq_++, chunk, dim});
        std::push_heap(s_.heap.begin(), s_.heap.end(), Later{});
    }

    /**
     * Seconds this chunk spends on span @p s in its *next* stage.
     *  RS       : share * fraction * (g-1)/g  (fraction = 1/q_visited)
     *  AG alone : share * (g-1) / gatherProduct
     *  A2A      : share * (g-1)/g             (order-independent)
     */
    Seconds
    stageDuration(const Chunk& c, std::size_t s) const
    {
        const CollectiveJob& job = jobs_[c.job];
        Bytes chunkBytes = s_.chunkBytes[c.job];
        double g = static_cast<double>(job.spans[s].groupSize);
        Bytes moved = 0.0;
        switch (c.phase) {
          case Phase::ReduceScatter:
            moved = chunkBytes * c.fraction * (g - 1.0) / g;
            break;
          case Phase::AllGather:
            moved = chunkBytes * (g - 1.0) / c.gatherProduct;
            break;
          case Phase::AllToAll:
            if (job.type == CollectiveType::PointToPoint)
                moved = chunkBytes; // One full hop per chunk.
            else
                moved = chunkBytes * (g - 1.0) / g;
            break;
          default:
            panic("stageDuration in phase without volume rule");
        }
        return transferTime(moved, bw_[job.spans[s].dim] *
                                       job.spans[s].efficiency);
    }

    void
    enqueue(std::uint32_t chunk, std::size_t span, Seconds duration,
            bool allGather)
    {
        std::size_t dim = jobs_[s_.chunks[chunk].job].spans[span].dim;
        DimState& d = s_.dims[dim];
        d.ops.push_back({chunk, allGather, duration});
        d.queueEnd = std::max(d.queueEnd, nowSeconds_) + duration;
        if (!d.busy)
            startNext(dim);
    }

    void
    startNext(std::size_t dim)
    {
        DimState& d = s_.dims[dim];
        if (d.head == d.ops.size()) {
            d.ops.clear();
            d.head = 0;
            d.busy = false;
            return;
        }
        d.busy = true;
        Pending op = d.ops[d.head++];
        const Chunk& c = s_.chunks[op.chunk];
        Seconds start = nowSeconds_;
        Seconds end = start + op.duration;
        result_.records.push_back({static_cast<int>(c.job),
                                   static_cast<int>(c.chunk), dim,
                                   op.allGather, start, end});
        result_.makespan = std::max(result_.makespan, end);
        result_.dimBusy[dim] += op.duration;
        schedule(toTicks(end), op.chunk, static_cast<std::uint32_t>(dim));
    }

    /** Pick the next position within the chunk's remaining slice. */
    std::uint32_t
    pickNext(const Chunk& c) const
    {
        const CollectiveJob& job = jobs_[c.job];
        if (job.policy != SchedulePolicy::Greedy || c.remCount < 2)
            return 0;
        const std::uint32_t* remaining = &s_.remaining[c.base];
        std::uint32_t pick = 0;
        Seconds bestEnd = 0.0;
        for (std::uint32_t i = 0; i < c.remCount; ++i) {
            std::size_t s = remaining[i];
            std::size_t dim = job.spans[s].dim;
            Seconds end = std::max(s_.dims[dim].queueEnd, nowSeconds_) +
                          stageDuration(c, s);
            if (i == 0 || end < bestEnd) {
                bestEnd = end;
                pick = i;
            }
        }
        return pick;
    }

    /** Remove and return the span picked from the remaining slice. */
    std::uint32_t
    takeNext(Chunk& c)
    {
        std::uint32_t* remaining = &s_.remaining[c.base];
        std::uint32_t pick = pickNext(c);
        std::uint32_t s = remaining[pick];
        std::copy(remaining + pick + 1, remaining + c.remCount,
                  remaining + pick);
        --c.remCount;
        return s;
    }

    void
    advance(std::uint32_t chunk)
    {
        Chunk& c = s_.chunks[chunk];
        const CollectiveJob& job = jobs_[c.job];
        switch (c.phase) {
          case Phase::ReduceScatter:
            if (c.remCount > 0) {
                std::uint32_t s = takeNext(c);
                Seconds dur = stageDuration(c, s);
                s_.rsStages[c.base + c.rsCount++] = {s, dur};
                c.fraction /= static_cast<double>(job.spans[s].groupSize);
                enqueue(chunk, s, dur, false);
                return;
            }
            if (job.type != CollectiveType::AllReduce) {
                c.phase = Phase::Done;
                return;
            }
            c.phase = Phase::AllGatherMirror;
            [[fallthrough]];
          case Phase::AllGatherMirror:
            if (c.rsCount > 0) {
                RsStage stage = s_.rsStages[c.base + --c.rsCount];
                enqueue(chunk, stage.span, stage.duration, true);
                return;
            }
            c.phase = Phase::Done;
            return;
          case Phase::AllGather:
            if (c.remCount > 0) {
                std::uint32_t s = takeNext(c);
                Seconds dur = stageDuration(c, s);
                c.gatherProduct /=
                    static_cast<double>(job.spans[s].groupSize);
                enqueue(chunk, s, dur, true);
                return;
            }
            c.phase = Phase::Done;
            return;
          case Phase::AllToAll: {
            // Point-to-point hops cross only the first spanned dim.
            std::size_t stageLimit =
                job.type == CollectiveType::PointToPoint
                    ? 1
                    : job.spans.size();
            if (c.a2aNext < stageLimit) {
                std::uint32_t s = c.a2aNext++;
                enqueue(chunk, s, stageDuration(c, s), false);
                return;
            }
            c.phase = Phase::Done;
            return;
          }
          case Phase::Done:
            return;
        }
    }

    const BwConfig& bw_;
    std::span<const CollectiveJob> jobs_;
    Workspace& s_;
    TimelineResult& result_;
    Tick now_ = 0;
    Seconds nowSeconds_ = 0.0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace

TimelineResult
runChunkTimeline(const BwConfig& bw, std::span<const CollectiveJob> jobs)
{
    thread_local Workspace workspace;
    TimelineResult result;
    Engine(bw, jobs, workspace, result).run();
    return result;
}

ChunkTimeline::ChunkTimeline(std::size_t num_dims, BwConfig bw)
    : numDims_(num_dims), bw_(std::move(bw))
{
    if (bw_.size() != numDims_)
        panic("bw rank ", bw_.size(), " != dims ", numDims_);
}

TimelineResult
ChunkTimeline::run(const std::vector<CollectiveJob>& jobs) const
{
    return runChunkTimeline(bw_, jobs);
}

Seconds
ChunkTimeline::collectiveTime(const CollectiveJob& job) const
{
    TimelineResult r = run({job});
    return r.makespan - job.releaseTime;
}

std::string
TimelineResult::render(std::size_t num_dims, int width) const
{
    if (makespan <= 0.0)
        return "(empty timeline)\n";
    std::vector<std::string> rows(num_dims, std::string(width, '.'));
    for (const auto& rec : records) {
        int from = static_cast<int>(rec.start / makespan * width);
        int to = static_cast<int>(rec.end / makespan * width);
        from = std::clamp(from, 0, width - 1);
        to = std::clamp(to, from + 1, width);
        char mark = rec.allGather
                        ? static_cast<char>('A' + rec.chunk % 26)
                        : static_cast<char>('1' + rec.chunk % 9);
        for (int x = from; x < to; ++x)
            rows[rec.dim][x] = mark;
    }
    std::ostringstream oss;
    for (std::size_t d = 0; d < num_dims; ++d) {
        double busyPct =
            d < dimBusy.size() ? dimBusy[d] / makespan * 100.0 : 0.0;
        oss << "Dim" << d + 1 << " |" << rows[d] << "| " << std::fixed
            << std::setprecision(1) << busyPct << "% busy\n";
    }
    return oss.str();
}

} // namespace libra
