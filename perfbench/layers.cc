#include "layers.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/estimator.hh"
#include "core/study_config.hh"
#include "core/timing_backend.hh"
#include "explore/explore.hh"
#include "sim/training_sim.hh"
#include "study/scenario.hh"

#include "gen.hh"

namespace perfbench {

using namespace libra;

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    for (Entry& e : entries) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries.push_back(Entry{name, value, unit});
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least q of the samples
    // at or below it.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

namespace {

std::uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

/** Zoo key of a workload display name ("MSFT-1T" -> "msft1t"). */
std::string
zooKey(const std::string& displayName)
{
    static const char* kZoo[] = {"turing-nlg", "gpt3", "msft1t", "dlrm",
                                 "resnet50"};
    auto squash = [](const std::string& s) {
        std::string out;
        for (char c : s) {
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
        }
        return out;
    };
    const std::string want = squash(displayName);
    for (const char* key : kZoo) {
        if (squash(key) == want)
            return key;
    }
    return "";
}

bool
analytical(const LibraInputs& p)
{
    const std::string& backend = p.config.estimator.timingBackend;
    return !p.config.estimator.commTimeFn &&
           (backend.empty() || backend == "analytical");
}

/** Candidates per estimate probe. */
constexpr std::size_t kEstimateCandidates = 256;

/** Deterministic BW configs around EqualBW, all on the budget. */
std::vector<BwConfig>
probeConfigs(const Network& net, double totalBw)
{
    std::vector<BwConfig> configs;
    const BwConfig equal = net.equalBw(totalBw);
    SplitMix64 rng(0x50524f4245ull);
    for (std::size_t i = 0; i < kEstimateCandidates; ++i) {
        BwConfig bw = equal;
        double sum = 0.0;
        for (double& b : bw) {
            b *= 0.5 + rng.uniform();
            sum += b;
        }
        for (double& b : bw)
            b *= totalBw / sum;
        configs.push_back(std::move(bw));
    }
    return configs;
}

void
probePoint(const PointReport& pr, Tracer& tracer, std::uint64_t run)
{
    const LibraInputs& p = pr.inputs;
    Network net = [&] {
        Span s(&tracer, "topology.parse", run);
        return Network::parse(p.networkShape);
    }();

    for (const TargetWorkload& t : p.targets) {
        const std::string key = zooKey(t.workload.name);
        if (key.empty())
            continue;
        try {
            Span s(&tracer, "workload.build", run);
            (void)zooWorkloadByName(key, net.npus());
        } catch (const FatalError&) {
            // The zoo's default strategy does not fit this NPU count;
            // the point was built with a custom strategy.
        }
    }

    if (studyConfigSerializable(p)) {
        const std::string text = studyConfigToString(p);
        Span s(&tracer, "core.study_config.parse", run);
        (void)parseStudyConfigString(text);
    }

    if (analytical(p)) {
        TrainingEstimator estimator(net, p.config.estimator);
        const std::vector<BwConfig> configs =
            probeConfigs(net, p.config.totalBw);
        std::vector<double> out(configs.size());
        for (const TargetWorkload& t : p.targets) {
            CompiledWorkload compiled = [&] {
                Span s(&tracer, "core.compile", run);
                return estimator.compile(t.workload);
            }();
            {
                Span s(&tracer, "core.estimate", run);
                for (std::size_t i = 0; i < configs.size(); ++i)
                    out[i] = compiled.estimate(configs[i]);
            }
            {
                Span s(&tracer, "core.estimate_batch", run);
                compiled.estimateBatch(configs.data(), configs.size(),
                                       out.data());
            }
        }
    }

    BwOptimizer optimizer(net, p.costModel);
    std::vector<TargetWorkload> targets = p.targets;
    if (p.normalizeTargetWeights) {
        TrainingEstimator estimator(net, p.config.estimator);
        targets = normalizeWeights(estimator, std::move(targets),
                                   p.config.totalBw);
    }
    {
        Span s(&tracer, "core.baseline", run);
        (void)optimizer.baseline(targets, p.config);
    }
    {
        Span s(&tracer,
               "solver.optimize." +
                   timingBackendOrDefault(p.config.estimator.timingBackend),
               run);
        (void)optimizer.optimize(targets, p.config);
    }

    std::string text;
    {
        Span s(&tracer, "common.json.dump", run);
        text = reportToJson(pr.report).dump();
    }
    {
        Span s(&tracer, "common.json.parse", run);
        (void)Json::parse(text);
    }
}

/** fig10's formatter work: two TrainingSim runs per point. */
void
probeSim(const PointReport& pr, Tracer& tracer, std::uint64_t run)
{
    const LibraInputs& p = pr.inputs;
    Network net = Network::parse(p.networkShape);
    TrainingSim sim(net, {});
    const Workload& w = p.targets.at(0).workload;
    {
        Span s(&tracer, "sim.simulate", run);
        (void)sim.simulate(w, net.equalBw(p.config.totalBw));
    }
    {
        Span s(&tracer, "sim.simulate", run);
        (void)sim.simulate(w, pr.report.optimized.bw);
    }
}

} // namespace

bool
TimedStore::load(std::uint64_t key, const std::string& canonical,
                 LibraReport* out)
{
    const Clock::time_point start = Clock::now();
    const bool hit = cache_.load(key, canonical, out);
    loadNs_ += nanosSince(start);
    ++loads_;
    hits_ += hit ? 1 : 0;
    return hit;
}

bool
TimedStore::store(std::uint64_t key, const std::string& canonical,
                  const LibraReport& report)
{
    const Clock::time_point start = Clock::now();
    const bool stored = cache_.store(key, canonical, report);
    storeNs_ += nanosSince(start);
    ++stores_;
    return stored;
}

std::size_t
TimedStore::faults() const
{
    ResultCache::Stats s = cache_.stats();
    return s.quarantined + s.loadFailures + s.storeFailures + s.collisions;
}

TracedMatrix
tracedMatrix(const std::vector<std::string>& names, TimedStore& store,
             Tracer& tracer, std::uint64_t run)
{
    const ScenarioRegistry& registry = ScenarioRegistry::global();
    TracedMatrix out;
    std::optional<Span> root;
    root.emplace(&tracer, "matrix", run);
    const Clock::time_point start = Clock::now();

    // Phase 1: every scenario's points, in scenario order.
    struct Slice
    {
        const Scenario* scenario = nullptr;
        std::size_t begin = 0;
        std::size_t count = 0;
        std::vector<Candidate> candidates;
    };
    std::vector<Slice> slices;
    std::vector<LibraInputs> points;
    for (const std::string& name : names) {
        Slice slice;
        slice.scenario = registry.find(name);
        if (!slice.scenario)
            fatal("perfbench: unknown scenario '", name, "'");
        slice.begin = points.size();
        if (slice.scenario->space) {
            Span s(&tracer, "explore.expand", run);
            slice.candidates = expandDesignSpace(slice.scenario->space());
            for (const Candidate& c : slice.candidates)
                points.push_back(c.inputs);
            slice.count = slice.candidates.size();
            out.candidates += slice.count;
        } else if (slice.scenario->build) {
            Span s(&tracer, "study.build", run);
            std::vector<LibraInputs> built = slice.scenario->build();
            slice.count = built.size();
            std::move(built.begin(), built.end(),
                      std::back_inserter(points));
        }
        slices.push_back(std::move(slice));
    }

    // Phase 2: content keys, dedup, cache, one sweep, stores.
    std::vector<std::size_t> slotOf(points.size());
    std::vector<std::string> slotKey;
    std::vector<std::size_t> slotRep;
    {
        Span s(&tracer, "study.key", run);
        std::unordered_map<std::string, std::size_t> slotByKey;
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!studyPointCacheable(points[i])) {
                slotOf[i] = slotRep.size();
                slotKey.emplace_back();
                slotRep.push_back(i);
                continue;
            }
            auto [it, inserted] = slotByKey.try_emplace(
                canonicalStudyKey(points[i]), slotRep.size());
            if (inserted) {
                slotKey.push_back(it->first);
                slotRep.push_back(i);
            }
            slotOf[i] = it->second;
        }
    }
    const std::size_t slots = slotRep.size();
    std::vector<LibraReport> slotReport(slots);
    std::vector<std::size_t> missing;
    {
        Span s(&tracer, "study.cache.load", run);
        for (std::size_t k = 0; k < slots; ++k) {
            if (slotKey[k].empty() ||
                !store.load(studyCacheHashOfKey(slotKey[k]), slotKey[k],
                            &slotReport[k]))
                missing.push_back(k);
        }
    }
    std::vector<PointStatus> status(missing.size());
    if (!missing.empty()) {
        Span s(&tracer, "core.sweep", run);
        parallelFor(missing.size(), [&](std::size_t j) {
            Span point(&tracer, "core.point", run);
            SweepOutcome one =
                runLibraSweepIsolated({points[slotRep[missing[j]]]});
            slotReport[missing[j]] = std::move(one.reports[0]);
            status[j] = std::move(one.status[0]);
        });
    }
    {
        Span s(&tracer, "study.cache.store", run);
        for (std::size_t j = 0; j < missing.size(); ++j) {
            const std::size_t k = missing[j];
            out.ok = out.ok && status[j].ok;
            if (status[j].ok && !slotKey[k].empty())
                store.store(studyCacheHashOfKey(slotKey[k]), slotKey[k],
                            slotReport[k]);
        }
    }
    if (!out.ok) {
        out.seconds = secondsSince(start);
        return out;
    }

    // Phase 3: format each scenario over its aligned reports.
    MatrixResult result;
    for (Slice& slice : slices) {
        ScenarioRun run_;
        run_.name = slice.scenario->name;
        run_.title = slice.scenario->title;
        run_.points = slice.count;
        Span s(&tracer, "study.format." + slice.scenario->name, run);
        std::vector<LibraReport> reports;
        reports.reserve(slice.count);
        for (std::size_t i = 0; i < slice.count; ++i)
            reports.push_back(slotReport[slotOf[slice.begin + i]]);
        if (slice.scenario->space) {
            run_.output = slice.scenario->formatSpace(
                exhaustiveResultFromReports(slice.candidates, reports));
        } else if (slice.scenario->format) {
            // Lend the slice's points to the formatter and take them
            // back, as runScenarioMatrix does, instead of deep-copying
            // the workload IR.
            auto begin =
                points.begin() + static_cast<std::ptrdiff_t>(slice.begin);
            std::vector<LibraInputs> slicePoints(
                std::make_move_iterator(begin),
                std::make_move_iterator(
                    begin + static_cast<std::ptrdiff_t>(slice.count)));
            run_.output = slice.scenario->format(slicePoints, reports);
            std::move(slicePoints.begin(), slicePoints.end(), begin);
        }
        result.scenarios.push_back(std::move(run_));
    }
    {
        Span s(&tracer, "study.emit", run);
        out.bytes = matrixToJson(result).dump(1) + "\n";
    }
    out.seconds = secondsSince(start);
    root.reset();
    out.points = points.size();
    out.unique = slots;
    for (std::size_t k = 0; k < slots; ++k) {
        std::size_t rep = slotRep[k];
        std::string scenario;
        for (const Slice& slice : slices) {
            if (rep >= slice.begin && rep < slice.begin + slice.count)
                scenario = slice.scenario->name;
        }
        out.uniquePoints.push_back(
            PointReport{scenario, points[rep], slotReport[k]});
    }
    return out;
}

void
probeLayers(const std::vector<PointReport>& points, std::size_t sample,
            const std::string& cacheDir, Tracer& tracer, std::uint64_t run)
{
    std::vector<std::size_t> fast, slow;
    for (std::size_t i = 0; i < points.size(); ++i)
        (analytical(points[i].inputs) ? fast : slow).push_back(i);
    std::vector<std::size_t> chosen;
    for (std::size_t j = 0; j < std::min(sample, fast.size()); ++j)
        chosen.push_back(fast[j * fast.size() / std::min(sample,
                                                         fast.size())]);
    if (!slow.empty())
        chosen.push_back(slow.front());
    for (std::size_t i : chosen)
        probePoint(points[i], tracer, run);

    for (const PointReport& pr : points) {
        if (pr.scenario == "fig10")
            probeSim(pr, tracer, run);
    }

    if (cacheDir.empty())
        return;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(cacheDir, ec)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".json")
            continue;
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        Span s(&tracer, "common.json.parse", run);
        (void)Json::parse(text.str());
    }
}

void
layerMetrics(const Tracer& tracer, std::size_t threads, Metrics& out)
{
    const std::vector<SpanRecord> spans = tracer.spans();
    auto durations = [&](const std::string& name) {
        std::vector<double> d;
        for (const SpanRecord& s : spans) {
            if (s.name == name)
                d.push_back(s.duration());
        }
        return d;
    };
    auto sum = [](const std::vector<double>& v) {
        double t = 0.0;
        for (double x : v)
            t += x;
        return t;
    };
    auto mean = [&](const std::string& name, double scale) {
        std::vector<double> d = durations(name);
        return d.empty() ? 0.0 : scale * sum(d) / d.size();
    };

    // Scenario build and matrix phases.
    out.set("study.build_s", sum(durations("study.build")), "s");
    out.set("study.points", 0, "count");
    out.set("study.key_s", sum(durations("study.key")), "s");
    out.set("study.unique", 0, "count");
    out.set("study.dedup_ratio", 0, "ratio");
    out.set("study.cache.load_s", 0, "s");
    out.set("study.cache.loads", 0, "count");
    out.set("study.cache.hit_ratio", 0, "ratio");
    out.set("study.cache.store_s", 0, "s");
    out.set("study.cache.stores", 0, "count");
    out.set("study.cache.faults", 0, "count");
    double format = 0.0;
    for (const std::string& name : ScenarioRegistry::global().names())
        format += sum(durations("study.format." + name));
    out.set("study.format_s", format, "s");
    for (const std::string& name : ScenarioRegistry::global().names())
        out.set("study.format_s." + name,
                sum(durations("study.format." + name)), "s");
    out.set("study.emit_s", sum(durations("study.emit")), "s");
    out.set("study.emit_bytes", 0, "bytes");

    // Design-point evaluation.
    const double sweep = sum(durations("core.sweep"));
    const std::vector<double> pointTimes = durations("core.point");
    out.set("core.sweep_s", sweep, "s");
    out.set("core.sweep_efficiency",
            sweep > 0.0 ? sum(pointTimes) / (threads * sweep) : 0.0,
            "ratio");
    out.set("core.point_ms.p50", 1e3 * percentile(pointTimes, 0.5), "ms");
    out.set("core.point_ms.max", 1e3 * percentile(pointTimes, 1.0), "ms");
    out.set("core.baseline_ms", mean("core.baseline", 1e3), "ms");
    out.set("core.compile_us", mean("core.compile", 1e6), "us");
    out.set("core.estimate_ns",
            mean("core.estimate", 1e9 / kEstimateCandidates), "ns");
    out.set("core.estimate_batch_ns",
            mean("core.estimate_batch", 1e9 / kEstimateCandidates), "ns");
    out.set("core.study_config.parse_us",
            mean("core.study_config.parse", 1e6), "us");
    out.set("solver.optimize_ms.analytical",
            mean("solver.optimize.analytical", 1e3), "ms");
    out.set("solver.optimize_ms.chunk-sim",
            mean("solver.optimize.chunk-sim", 1e3), "ms");
    out.set("topology.parse_us", mean("topology.parse", 1e6), "us");
    out.set("workload.build_us", mean("workload.build", 1e6), "us");
    out.set("explore.expand_s", sum(durations("explore.expand")), "s");
    out.set("explore.candidates", 0, "count");
    out.set("sim.simulate_ms", mean("sim.simulate", 1e3), "ms");
    out.set("sim.simulate_calls",
            static_cast<double>(durations("sim.simulate").size()),
            "count");
    out.set("common.json.parse_us", mean("common.json.parse", 1e6), "us");
    out.set("common.json.dump_us", mean("common.json.dump", 1e6), "us");

    // Coverage: the share of each operation's wall time that its
    // direct child spans account for.
    const std::vector<double> self = tracer.selfTimes();
    double rootWall = 0.0, rootSelf = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0 &&
            (spans[i].name == "matrix" || spans[i].name == "study")) {
            rootWall += spans[i].duration();
            rootSelf += self[i];
        }
    }
    out.set("trace.coverage",
            rootWall > 0.0 ? 1.0 - rootSelf / rootWall : 0.0, "ratio");
    out.set("trace.spans", static_cast<double>(spans.size()), "count");
}

} // namespace perfbench
