#include "core/timing_backend.hh"

#include <atomic>
#include <bit>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "sim/chunk_timeline.hh"

namespace libra {

namespace {

/** The historical hard-wired path, now the default registry entry. */
class AnalyticalTimingBackend final : public TimingBackend
{
  public:
    std::string name() const override
    {
        return kAnalyticalTimingBackendName;
    }

    std::string
    description() const override
    {
        return "closed-form multi-rail bottleneck model (paper §IV-C; "
               "precompilable, the default)";
    }

    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool in_network) const override
    {
        return multiRailTime(type, size, spans, bw, in_network);
    }
};

std::atomic<bool> gChunkSimMemo{true};

/**
 * Bit-exact memo key of one (collective, bandwidth) query: fixed-width
 * words for the type, the in-network flag, the field counts, the bit
 * patterns of size and bandwidths, and every span. Bit-equal keys are
 * finer than the canonical text (-0.0 and 0.0 differ), so two distinct
 * queries never share an entry.
 */
using ChunkSimKey = std::vector<std::uint64_t>;

struct ChunkSimKeyHash
{
    std::size_t
    operator()(const ChunkSimKey& key) const
    {
        return std::hash<std::string_view>{}(std::string_view(
            reinterpret_cast<const char*>(key.data()),
            key.size() * sizeof(std::uint64_t)));
    }
};

void
chunkSimMemoKey(ChunkSimKey* key, CollectiveType type, Bytes size,
                const std::vector<DimSpan>& spans, const BwConfig& bw,
                bool in_network)
{
    key->clear();
    key->push_back(static_cast<std::uint64_t>(type) |
                   (in_network ? 1ull << 8 : 0ull));
    key->push_back(spans.size());
    key->push_back(bw.size());
    key->push_back(std::bit_cast<std::uint64_t>(size));
    for (const auto& span : spans) {
        key->push_back(span.dim);
        key->push_back(static_cast<std::uint32_t>(span.groupSize));
        key->push_back(std::bit_cast<std::uint64_t>(span.efficiency));
    }
    for (double b : bw)
        key->push_back(std::bit_cast<std::uint64_t>(b));
}

/** One chunk-pipelined collective through the chunk timeline. */
CollectiveTiming
chunkSimCollectiveTiming(CollectiveType type, Bytes size,
                         const std::vector<DimSpan>& spans,
                         const BwConfig& bw, bool in_network)
{
    CollectiveTiming timing;
    if (spans.empty())
        return timing; // Single-NPU group: no communication.

    // The chunk simulator has no switch-reduction mode (the same
    // restriction CollectiveSim documents), so the in-network
    // All-Reduce keeps its analytical closed form m / q_{i-1}.
    if (in_network && type == CollectiveType::AllReduce)
        return multiRailTime(type, size, spans, bw, true);

    // One reused job per thread: a miss copies only the spans, into
    // capacity the previous miss left behind.
    thread_local CollectiveJob job;
    job.type = type;
    job.size = size;
    job.spans.assign(spans.begin(), spans.end());
    job.numChunks = kChunkSimNumChunks;
    job.policy = SchedulePolicy::FixedAscending;
    TimelineResult result = runChunkTimeline(bw, {&job, 1});

    timing.time = result.makespan;
    timing.trafficPerDim = multiRailTraffic(type, size, spans);
    timing.timePerDim.assign(spans.size(), 0.0);
    for (std::size_t s = 0; s < spans.size(); ++s)
        timing.timePerDim[s] = result.dimBusy[spans[s].dim];
    std::size_t arg = 0;
    for (std::size_t s = 1; s < spans.size(); ++s) {
        if (timing.timePerDim[s] > timing.timePerDim[arg])
            arg = s;
    }
    timing.bottleneckSpan = arg;
    return timing;
}

/**
 * Chunk-granularity pipeline simulation per collective. Each query is
 * an independent single-threaded discrete-event run, so the backend is
 * trivially thread-safe and the parallel multistart/sweep fan-out on
 * the global pool batches many simulations at once. A per-thread
 * memoization cache (layered workloads issue the same collective
 * hundreds of times per evaluation, and multistart restarts revisit
 * the same bandwidth points) amortizes the sim cost without any shared
 * mutable state.
 */
class ChunkSimTimingBackend final : public TimingBackend
{
  public:
    std::string name() const override
    {
        return kChunkSimTimingBackendName;
    }

    std::string
    description() const override
    {
        return "chunk-level pipeline simulation (ChunkTimeline, 64 "
               "chunks; memoized per thread)";
    }

    std::string
    cacheKeyTag() const override
    {
        return name() + "/" + std::to_string(kChunkSimNumChunks);
    }

    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool in_network) const override
    {
        if (!chunkSimMemoEnabled()) {
            return chunkSimCollectiveTiming(type, size, spans, bw,
                                            in_network);
        }
        // Per-thread, so pool workers never contend; bounded so a long
        // sweep over ever-changing bandwidth points cannot grow it
        // without limit (clearing never changes results — the sim is a
        // pure function of the key).
        constexpr std::size_t kMemoCapacity = 1u << 15;
        thread_local std::unordered_map<ChunkSimKey, CollectiveTiming,
                                        ChunkSimKeyHash>
            memo;
        // Reused lookup buffer: a hit allocates nothing.
        thread_local ChunkSimKey key;
        chunkSimMemoKey(&key, type, size, spans, bw, in_network);
        auto it = memo.find(key);
        if (it != memo.end())
            return it->second;
        if (memo.size() >= kMemoCapacity)
            memo.clear();
        CollectiveTiming timing =
            chunkSimCollectiveTiming(type, size, spans, bw, in_network);
        memo.emplace(key, timing);
        return timing;
    }
};

} // namespace

TimingBackendRegistry&
TimingBackendRegistry::global()
{
    static TimingBackendRegistry* registry = [] {
        auto* r = new TimingBackendRegistry;
        r->add(std::make_unique<AnalyticalTimingBackend>());
        r->add(std::make_unique<ChunkSimTimingBackend>());
        return r;
    }();
    return *registry;
}

void
TimingBackendRegistry::add(std::unique_ptr<const TimingBackend> backend)
{
    if (!backend)
        fatal("cannot register a null timing backend");
    if (find(backend->name()))
        fatal("timing backend '", backend->name(),
              "' is already registered");
    backends_.push_back(std::move(backend));
}

const TimingBackend*
TimingBackendRegistry::find(const std::string& name) const
{
    for (const auto& b : backends_)
        if (b->name() == name)
            return b.get();
    return nullptr;
}

std::vector<std::string>
TimingBackendRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(backends_.size());
    for (const auto& b : backends_)
        out.push_back(b->name());
    return out;
}

std::string
timingBackendOrDefault(const std::string& name)
{
    return name.empty() ? kAnalyticalTimingBackendName : name;
}

const TimingBackend*
resolveTimingBackend(const std::string& name)
{
    std::string effective = timingBackendOrDefault(name);
    const TimingBackend* b =
        TimingBackendRegistry::global().find(effective);
    if (!b) {
        std::string known;
        for (const auto& k : TimingBackendRegistry::global().names())
            known += (known.empty() ? "" : ", ") + k;
        fatal("unknown timing backend '", effective,
              "' (registered: ", known, ")");
    }
    return b;
}

void
setChunkSimMemoEnabled(bool enabled)
{
    gChunkSimMemo.store(enabled, std::memory_order_relaxed);
}

bool
chunkSimMemoEnabled()
{
    return gChunkSimMemo.load(std::memory_order_relaxed);
}

double
chunkSimRelTolerance(const CollectiveTiming& analytical, int num_chunks)
{
    if (analytical.time <= 0.0 || num_chunks < 1)
        return 0.0;
    Seconds sum = 0.0;
    for (Seconds t : analytical.timePerDim)
        sum += t;
    // Ramp bound: one chunk's full trip through every stage, relative
    // to the steady-state bottleneck; plus headroom for the
    // simulator's picosecond event grid (a few hundred quantized
    // event times) and FP summation order.
    return sum / (analytical.time * static_cast<double>(num_chunks)) +
           1e-6;
}

} // namespace libra
