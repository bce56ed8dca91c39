/**
 * @file
 * Per-layer attribution for the traced pass.
 *
 * tracedMatrix() re-runs a scenario matrix from the library's public
 * functions, in the order runScenarioMatrix() runs them, with a span
 * around each call: scenario build and design-space expansion, key
 * hashing and dedup, cache loads, the sweep (one span per design
 * point), cache stores, each scenario's formatter, and emission. Its
 * emitted bytes must equal an untraced run's.
 *
 * probeLayers() then times the layers a design point runs through, on
 * a sample of the workload's own points, one public call at a time:
 * network parsing, zoo workload construction, study-file parsing,
 * compilation, single and batched estimates, the EqualBW baseline, the
 * optimizer per timing backend, the fig10 training simulation, and
 * JSON dump/parse.
 */

#ifndef LIBRA_PERFBENCH_LAYERS_HH
#define LIBRA_PERFBENCH_LAYERS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "study/cache.hh"
#include "study/matrix.hh"
#include "trace.hh"

namespace perfbench {

/** Ordered (name, value, unit) metric list, printed as given. */
struct Metrics
{
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> entries;

    void set(const std::string& name, double value,
             const std::string& unit);
};

/** Nearest-rank @p q quantile of @p values; 0 when empty. */
double percentile(std::vector<double> values, double q);

/**
 * StudyStore decorator that counts and times every load and store it
 * forwards to a ResultCache, plus the cache's own fault counters.
 */
class TimedStore : public libra::StudyStore
{
  public:
    explicit TimedStore(const std::string& dir) : cache_(dir) {}

    bool load(std::uint64_t key, const std::string& canonical,
              libra::LibraReport* out) override;
    bool store(std::uint64_t key, const std::string& canonical,
               const libra::LibraReport& report) override;

    std::size_t loads() const { return loads_; }
    std::size_t hits() const { return hits_; }
    std::size_t stores() const { return stores_; }
    double loadSeconds() const { return loadNs_ * 1e-9; }
    double storeSeconds() const { return storeNs_ * 1e-9; }

    /** Quarantines, load/store failures and key collisions. */
    std::size_t faults() const;

  private:
    libra::ResultCache cache_;
    std::atomic<std::size_t> loads_{0}, hits_{0}, stores_{0};
    std::atomic<std::uint64_t> loadNs_{0}, storeNs_{0};
};

/** A design point with its report, as the traced matrix saw it. */
struct PointReport
{
    std::string scenario;
    libra::LibraInputs inputs;
    libra::LibraReport report;
};

/** Outcome of one traced matrix. */
struct TracedMatrix
{
    std::string bytes;       ///< Emitted JSON (run-matrix bytes).
    bool ok = true;          ///< Every point evaluated.
    double seconds = 0.0;    ///< Wall time of the root span.
    std::size_t points = 0;
    std::size_t unique = 0;
    std::size_t candidates = 0;      ///< Design-space candidates.
    std::vector<PointReport> uniquePoints; ///< One per unique key.
};

/**
 * Run @p names against @p store with spans (run id @p run). The
 * matrix uses each scenario's defaults (no overrides), as the matrix
 * and serve workloads do.
 */
TracedMatrix tracedMatrix(const std::vector<std::string>& names,
                          TimedStore& store, Tracer& tracer,
                          std::uint64_t run);

/**
 * Time the per-point layers on up to @p sample evenly spaced points of
 * @p points (the chunk-sim points are sampled separately, at most
 * one), adding spans to @p tracer under run id @p run. JSON parse time
 * also covers every cache entry file in @p cacheDir when non-empty.
 */
void probeLayers(const std::vector<PointReport>& points,
                 std::size_t sample, const std::string& cacheDir,
                 Tracer& tracer, std::uint64_t run);

/**
 * Fill @p out with every layer metric derivable from @p tracer's spans
 * (the per-scenario format times are listed for every registered
 * scenario; a layer the workload never reached reads 0). @p threads is
 * the pool size used for the sweep efficiency.
 */
void layerMetrics(const Tracer& tracer, std::size_t threads,
                  Metrics& out);

} // namespace perfbench

#endif // LIBRA_PERFBENCH_LAYERS_HH
