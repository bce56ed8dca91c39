/**
 * @file
 * libra_bench: the repository's end-to-end benchmark.
 *
 *   libra_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads (one process each; see perfbench/README.md):
 *   matrix-cold  runScenarioMatrix(all) into an empty cache, repeatedly
 *   matrix-warm  the same matrix replayed against a filled cache
 *   serve-mix    an in-process Server driven by a closed-loop client
 *   studies-gen  seeded study files through parse + runLibra
 *
 * --trace 0 measures for --seconds and prints the end-to-end metrics;
 * --trace 1 runs the traced pass instead and prints per-layer metrics,
 * writing the spans as Chrome trace-event JSON under .perfbench-out/.
 * Every operation's output is checked (golden files, byte identity
 * against the cold matrix, bit-identical study reports); a mismatch
 * counts as a failed operation. The last stdout line is the result
 * object {"correct", "attempted", "failed", "metrics"}.
 *
 * Also: --dump-gen <studies|serve> --seed <n> [--count <k>] prints the
 * generated inputs (for determinism tests).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/estimator.hh"
#include "core/study_config.hh"
#include "serve/server.hh"
#include "study/cache.hh"
#include "study/matrix.hh"
#include "study/scenario.hh"

#include "gen.hh"
#include "layers.hh"
#include "trace.hh"

namespace fs = std::filesystem;
using namespace libra;
using namespace perfbench;

namespace {

/**
 * Pool sizes, clamped to the machine. studies-gen fans each ~50 ms
 * study's multistart out over the pool, so one descheduled thread
 * stalls the whole study; on a shared 4-vCPU machine its wall times
 * spread 2-4x less at 2 threads than at 4.
 */
constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kStudyPoolThreads = 2;
/**
 * Set-up repetitions whose median is setup_s: fewer where set-up runs
 * a whole matrix (matrix-warm's cache fill, serve-mix's priming).
 */
constexpr int kSetupReps = 9;
constexpr int kHeavySetupReps = 3;
/**
 * The served LRU's capacity. Set-up caches about 90 points that every
 * deck uses again; each cold request adds about 10 new ones. At 256
 * entries the cold points fill the LRU within the first few seconds and
 * later ones evict the oldest, so the run measures a server in steady
 * state (evictions included) whose memory does not grow with the run's
 * length, while the hot points stay resident.
 */
constexpr std::size_t kServeLruEntries = 256;
/**
 * Generated studies per studies-gen run: two periods of the
 * generator's 90-study structure cycle. Runs time whole periods.
 */
constexpr std::size_t kStudies = 180;
constexpr std::size_t kStudyPeriod = 90;
/** Studies in each of the traced pass's two passes. */
constexpr std::size_t kTracedStudies = 36;
/** Sequence entries in the serve-mix traced pass. */
constexpr std::size_t kTracedRequests = 3 * kServeDeck;
/** Design points sampled by the per-point layer probes. */
constexpr std::size_t kProbeSample = 12;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string dumpGen;
    std::size_t count = 12;
    std::string commit = "unknown";
};

/**
 * attempted/failed bookkeeping (failures are described on stderr),
 * plus the timed operations behind the percentiles.
 */
struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t timedOps = 0;
    double tailQuantile = 0.0;

    void
    record(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 10)
                std::cerr << "perfbench: FAILED " << what << "\n";
        }
    }
};

std::size_t
poolThreads(const std::string& workload)
{
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(
        workload == "studies-gen" ? kStudyPoolThreads : kPoolThreads, hw);
}

double
cpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return u.ru_utime.tv_sec + u.ru_stime.tv_sec +
           1e-6 * (u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/**
 * Restart the peak resident set at the current one, so the peak covers
 * the workload's own set-up and timed phase, not the benchmark's
 * reference runs before them. Where /proc/self/clear_refs cannot be
 * written the peak stays the process's lifetime peak.
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return u.ru_maxrss / 1024.0;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
matrixBytes(const MatrixResult& r)
{
    return matrixToJson(r).dump(1) + "\n";
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** The design's gain over EqualBW in its own objective. */
double
objectiveGain(const LibraInputs& in, const LibraReport& r)
{
    return in.config.objective == OptimizationObjective::PerfPerCostOpt
               ? r.perfPerCostGain
               : r.speedup;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / v.size());
}

/** Per-run scratch directory, removed on exit. */
class WorkDir
{
  public:
    WorkDir()
        : path_(".perfbench-work/" + std::to_string(::getpid()))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
        fs::remove(".perfbench-work", ec); // Only when empty.
    }
    std::string sub(const std::string& name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/** Golden files for the golden scenarios, read once. */
std::map<std::string, std::string>
loadGoldens()
{
    std::map<std::string, std::string> goldens;
    for (const std::string& name : goldenScenarioNames()) {
        const std::string text = readFile("tests/golden/" + name + ".json");
        if (text.empty())
            fatal("perfbench: missing golden file tests/golden/", name,
                  ".json (run from the repository root)");
        goldens[name] = text;
    }
    return goldens;
}

/** True when every golden scenario in @p r matches its file bytes. */
bool
goldensMatch(const MatrixResult& r,
             const std::map<std::string, std::string>& goldens)
{
    for (const ScenarioRun& run : r.scenarios) {
        auto it = goldens.find(run.name);
        if (it != goldens.end() &&
            scenarioRunToJson(run).dump(1) + "\n" != it->second)
            return false;
    }
    return true;
}

/** Geomean objective gain over a matrix's design points. */
double
matrixGain(const std::vector<std::string>& names, StudyStore& store)
{
    std::vector<double> gains;
    std::set<std::string> seen;
    for (const LibraInputs& p : buildMatrixSharedBatch(names, {})) {
        if (!studyPointCacheable(p))
            continue;
        std::string key = canonicalStudyKey(p);
        if (!seen.insert(key).second)
            continue;
        LibraReport r;
        if (!store.load(studyCacheHashOfKey(key), key, &r))
            fatal("perfbench: matrix point missing from the cache");
        gains.push_back(objectiveGain(p, r));
    }
    return geomean(gains);
}

/** Common end-to-end metrics from one timed phase. */
struct Timed
{
    std::vector<double> setups;   ///< Seconds per set-up repetition.
    std::vector<double> opMs;     ///< Milliseconds per operation.
    double wall = 0.0;            ///< Timed-phase wall seconds.
    double cpu = 0.0;             ///< Timed-phase user+sys seconds.
    double gain = 0.0;            ///< objective_gain_geomean.
    double peakRssMb = 0.0;       ///< At the end of the timed phase.
};

/**
 * The highest quantile, up to p90, with at least 10 operations beyond
 * it; the median when a run has fewer than 20 operations.
 */
double
tailQuantile(std::size_t ops)
{
    if (ops < 20)
        return 0.5;
    return std::min(0.9, 1.0 - 10.0 / static_cast<double>(ops));
}

void
endToEndMetrics(const Timed& t, Outcome& o, Metrics& m)
{
    o.timedOps = t.opMs.size();
    o.tailQuantile = tailQuantile(t.opMs.size());
    const double ops = static_cast<double>(t.opMs.size());
    m.set("setup_s", median(t.setups), "s");
    m.set("op_p50_ms", percentile(t.opMs, 0.5), "ms");
    m.set("op_tail_ms", percentile(t.opMs, o.tailQuantile), "ms");
    m.set("ops_per_s", ops / t.wall, "1/s");
    m.set("cpu_ms_per_op", 1e3 * t.cpu / ops, "ms");
    m.set("peak_rss_mb", t.peakRssMb, "MB");
    m.set("ok_frac",
          o.attempted ? 1.0 - static_cast<double>(o.failed) / o.attempted
                      : 0.0,
          "frac");
    m.set("objective_gain_geomean", t.gain, "x");
}

/**
 * Run @p op until @p seconds have passed, in whole multiples of
 * @p batch operations (at least one batch).
 */
void
timedLoop(double seconds, Timed& t, const std::function<void()>& op,
          std::size_t batch = 1)
{
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    while (t.opMs.empty() || t.opMs.size() % batch != 0 ||
           secondsSince(start) < seconds) {
        const Clock::time_point opStart = Clock::now();
        op();
        t.opMs.push_back(1e3 * secondsSince(opStart));
    }
    t.wall = secondsSince(start);
    t.cpu = cpuSeconds() - cpu0;
    t.peakRssMb = peakRssMb();
}

/** Per-layer metrics of a traced matrix + its store. */
void
matrixLayerMetrics(const TracedMatrix& tm, const TimedStore& store,
                   Metrics& m)
{
    m.set("study.points", static_cast<double>(tm.points), "count");
    m.set("study.unique", static_cast<double>(tm.unique), "count");
    m.set("study.dedup_ratio",
          tm.unique ? static_cast<double>(tm.points) / tm.unique : 0.0,
          "ratio");
    m.set("study.cache.load_s", store.loadSeconds(), "s");
    m.set("study.cache.loads", static_cast<double>(store.loads()), "count");
    m.set("study.cache.hit_ratio",
          store.loads() ? static_cast<double>(store.hits()) / store.loads()
                        : 0.0,
          "ratio");
    m.set("study.cache.store_s", store.storeSeconds(), "s");
    m.set("study.cache.stores", static_cast<double>(store.stores()),
          "count");
    m.set("study.cache.faults", static_cast<double>(store.faults()),
          "count");
    m.set("study.emit_bytes", static_cast<double>(tm.bytes.size()),
          "bytes");
    m.set("explore.candidates", static_cast<double>(tm.candidates),
          "count");
}

/** Every serve.* metric, zero unless serve-mix sets it. */
void
zeroServeMetrics(Metrics& m)
{
    for (const char* name : {"serve.ping_ms.p50", "serve.hot_ms.p50",
                             "serve.hot_ms.p90", "serve.cold_ms.p50"})
        m.set(name, 0.0, "ms");
    m.set("serve.lru.hit_ratio", 0.0, "ratio");
    for (const char* name : {"serve.lru.evictions", "serve.misses",
                             "serve.coalesced", "serve.computed_points"})
        m.set(name, 0.0, "count");
    m.set("serve.payload_bytes", 0.0, "bytes");
}

// ---------------------------------------------------------------------
// matrix-cold / matrix-warm
// ---------------------------------------------------------------------

void
runMatrix(const Args& args, bool warm, const WorkDir& work, Outcome& o,
          Metrics& m, Tracer& tracer)
{
    Timed t;
    std::vector<std::string> names;
    std::map<std::string, std::string> goldens;
    std::string reference;
    const std::string warmDir = work.sub("warm-cache");
    std::size_t coldRuns = 0;

    // A cold matrix into a fresh directory; the first one's bytes are
    // the reference every later matrix (cold or warm) must equal.
    auto coldMatrix = [&](const std::string& dir) {
        fs::remove_all(dir);
        MatrixOptions opts;
        opts.cacheDir = dir;
        MatrixResult r = runScenarioMatrix(names, opts);
        std::string bytes = matrixBytes(r);
        if (reference.empty())
            reference = bytes;
        o.record(r.failed == 0 && r.computed == r.unique &&
                     bytes == reference && goldensMatch(r, goldens),
                 "cold matrix " + std::to_string(++coldRuns));
        return bytes;
    };

    // Set-up: pool, registry and goldens; matrix-warm also fills the
    // cache with a cold run. Repeated; setup_s is the median.
    resetPeakRss();
    for (int rep = 0; rep < (warm ? kHeavySetupReps : kSetupReps); ++rep) {
        const Clock::time_point start = Clock::now();
        ThreadPool::setGlobalThreads(poolThreads(args.workload));
        names = expandScenarioGroups({"all"});
        goldens = loadGoldens();
        (void)buildMatrixSharedBatch(names, {});
        if (warm)
            coldMatrix(warmDir);
        t.setups.push_back(secondsSince(start));
    }

    auto warmReplay = [&] {
        MatrixOptions opts;
        opts.cacheDir = warmDir; // A fresh ResultCache per replay.
        MatrixResult r = runScenarioMatrix(names, opts);
        o.record(r.failed == 0 && r.computed == 0 &&
                     matrixBytes(r) == reference,
                 "warm replay");
    };

    if (!args.trace) {
        const std::string coldDir = work.sub("cold-cache");
        if (warm) {
            warmReplay(); // Untimed warm-up: first-touch of the heap.
            timedLoop(args.seconds, t, warmReplay);
        } else {
            timedLoop(args.seconds, t, [&] { coldMatrix(coldDir); });
        }
        ResultCache gainStore(warm ? warmDir : coldDir);
        t.gain = matrixGain(names, gainStore);
        endToEndMetrics(t, o, m);
        return;
    }

    // Traced pass: one untraced matrix, then the same matrix through
    // tracedMatrix(), then the per-point layer probes.
    const std::string dir = warm ? warmDir : work.sub("traced-cache");
    const Clock::time_point start = Clock::now();
    if (warm)
        warmReplay();
    else
        coldMatrix(work.sub("untraced-cache"));
    const double untraced = secondsSince(start);
    if (!warm)
        fs::remove_all(dir);
    TimedStore store(dir);
    TracedMatrix tm = tracedMatrix(names, store, tracer, 1);
    o.record(tm.ok && tm.bytes == reference, "traced matrix bytes");
    probeLayers(tm.uniquePoints, kProbeSample, dir, tracer, 2);

    layerMetrics(tracer, poolThreads(args.workload), m);
    matrixLayerMetrics(tm, store, m);
    zeroServeMetrics(m);
    m.set("trace.overhead_s", tm.seconds - untraced, "s");
}

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

/** One timed request. */
struct Served
{
    double ms = 0.0;
    bool ok = false;
    std::string payload;
    double bytes = 0.0;
    double computed = 0.0;
    double coalesced = 0.0;
};

Served
sendTimed(const std::string& socket, const std::string& line, bool cold,
          Tracer* tracer)
{
    Served s;
    const Clock::time_point start = Clock::now();
    try {
        Span span(tracer, cold ? "serve.cold" : "serve.hot");
        ServeReply reply = serveRequest(socket, line);
        s.ok = reply.status.has("ok") && reply.status.at("ok").asBool();
        if (reply.status.has("computed"))
            s.computed = reply.status.at("computed").asNumber();
        if (reply.status.has("coalesced"))
            s.coalesced = reply.status.at("coalesced").asNumber();
        s.bytes = static_cast<double>(reply.payload.size());
        s.payload = std::move(reply.payload);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: request failed: " << e.what() << "\n";
    }
    s.ms = 1e3 * secondsSince(start);
    return s;
}

/** In-process run-matrix of a request, against @p cacheDir. */
MatrixResult
oneShot(const std::string& line, const std::string& cacheDir)
{
    Json req = Json::parse(line);
    std::vector<std::string> names;
    for (const Json& n : req.at("scenario").items())
        names.push_back(n.asString());
    MatrixOptions opts;
    opts.cacheDir = cacheDir;
    if (req.has("explore"))
        opts.exploreSpec = req.at("explore").asString();
    return runScenarioMatrix(expandScenarioGroups(names), opts);
}

/** A sequence entry and its replies: one, or two for a pair. */
struct ServedEntry
{
    const ServeRequest* req = nullptr;
    std::vector<Served> copies;
};

void
runServe(const Args& args, const WorkDir& work, Outcome& o, Metrics& m,
         Tracer& tracer)
{
    Timed t;
    std::unique_ptr<Server> server;
    std::string cacheDir;

    // Expected bytes, untimed: in-process matrices over a cache of
    // their own that the server never touches, with the golden group
    // also checked against tests/golden.
    ThreadPool::setGlobalThreads(poolThreads(args.workload));
    const std::string refDir = work.sub("reference-cache");
    auto reference = [&](const std::string& line) {
        return matrixBytes(oneShot(line, refDir));
    };
    MatrixOptions refOpts;
    refOpts.cacheDir = refDir;
    const MatrixResult golden =
        runScenarioMatrix(expandScenarioGroups({"golden"}), refOpts);
    o.record(golden.failed == 0 && goldensMatch(golden, loadGoldens()),
             "reference golden matrix");
    const std::string primeBytes = matrixBytes(golden);
    std::vector<std::string> expected; // Per hot request.
    for (const std::string& line : serveHotRequests())
        expected.push_back(reference(line));
    std::vector<std::pair<std::string, std::string>> plainCold;
    for (const std::string& scenario : serveColdScenarios()) {
        const std::string line = R"({"scenario":[")" + scenario + "\"]}";
        plainCold.emplace_back(line, reference(line));
    }

    // Set-up: a fresh server and cache, primed with the golden group,
    // every hot request and every cold scenario's plain request, each
    // reply checked. Repeated; the last server stays up.
    resetPeakRss();
    for (int rep = 0; rep < kHeavySetupReps; ++rep) {
        const Clock::time_point start = Clock::now();
        if (server)
            server->stop();
        server.reset();
        ThreadPool::setGlobalThreads(poolThreads(args.workload));
        cacheDir = work.sub("serve-cache-" + std::to_string(rep));
        ServeOptions opts;
        opts.socketPath = work.sub(std::to_string(rep) + ".sock");
        opts.cacheDir = cacheDir;
        opts.lruCapacity = kServeLruEntries;
        server = std::make_unique<Server>(opts);
        server->start();
        auto prime = [&](const std::string& line,
                         const std::string& bytes) {
            Served s = sendTimed(opts.socketPath, line, false, nullptr);
            o.record(s.ok && s.payload == bytes, "serve prime " + line);
        };
        prime(servePrimeRequest(), primeBytes);
        for (std::size_t h = 0; h < expected.size(); ++h)
            prime(serveHotRequests()[h], expected[h]);
        for (const auto& [line, bytes] : plainCold)
            prime(line, bytes);
        t.setups.push_back(secondsSince(start));
    }
    const std::string socket = server->socketPath();

    // Closed loop with one client: each entry goes out only after the
    // previous reply; a pair's two copies go out at once from two
    // threads. More clients would put more threads to work than the
    // machine has cores (each request runs on its own server thread,
    // cold ones also on the pool), so the run would time the
    // scheduler. Entries go out until the time is up and a whole
    // number of decks has been sent, so every run serves the same
    // make-up of requests.
    const std::vector<ServeRequest> seq = generateServeSequence(
        args.seed, args.trace ? kTracedRequests : 200000);
    std::vector<ServedEntry> done;
    Tracer* tr = args.trace ? &tracer : nullptr;
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    for (const ServeRequest& req : seq) {
        if (done.size() % kServeDeck == 0 && !args.trace &&
            secondsSince(start) >= args.seconds)
            break;
        ServedEntry e;
        e.req = &req;
        if (req.duplicate) {
            Served twin;
            std::thread other(
                [&] { twin = sendTimed(socket, req.line, true, tr); });
            e.copies.push_back(sendTimed(socket, req.line, true, tr));
            other.join();
            e.copies.push_back(std::move(twin));
        } else {
            e.copies.push_back(sendTimed(socket, req.line, req.cold, tr));
        }
        if (!req.cold) {
            Served& s = e.copies.front();
            o.record(s.ok && s.payload == expected[req.hotIndex],
                     "hot request " + req.line);
            s.payload.clear();
        }
        done.push_back(std::move(e));
    }
    t.wall = secondsSince(start);
    t.cpu = cpuSeconds() - cpu0;
    t.peakRssMb = peakRssMb();

    // Each cold entry against the same request run in-process over the
    // reference cache: equal bytes, and between its copies the server
    // computed exactly the points the reference computed (single-flight
    // runs no point twice), at least one. A pair's copies must have
    // shared at least one point in flight.
    for (const ServedEntry& e : done) {
        if (!e.req->cold)
            continue;
        const MatrixResult ref = oneShot(e.req->line, refDir);
        const std::string bytes = matrixBytes(ref);
        bool ok = ref.failed == 0 && ref.computed > 0;
        double computed = 0.0, coalesced = 0.0;
        for (const Served& s : e.copies) {
            ok = ok && s.ok && s.payload == bytes;
            computed += s.computed;
            coalesced += s.coalesced;
        }
        ok = ok && computed == static_cast<double>(ref.computed) &&
             (e.copies.size() == 1 || coalesced >= 1.0);
        for (std::size_t c = 0; c < e.copies.size(); ++c)
            o.record(ok, "cold request " + e.req->line);
    }

    std::vector<double> all, hot, cold;
    double computed = 0.0, payload = 0.0;
    for (const ServedEntry& e : done) {
        for (const Served& s : e.copies) {
            all.push_back(s.ms);
            (e.req->cold ? cold : hot).push_back(s.ms);
            computed += s.computed;
            payload += s.bytes;
        }
    }

    if (!args.trace) {
        t.opMs = all;
        t.gain = matrixGain(expandScenarioGroups({"golden"}),
                            server->store());
        server->stop();
        endToEndMetrics(t, o, m);
        return;
    }

    std::vector<double> pings;
    for (int i = 0; i < 200; ++i) {
        const Clock::time_point p = Clock::now();
        ServeReply r = serveRequest(socket, R"({"op":"ping"})");
        pings.push_back(1e3 * secondsSince(p));
        if (i == 0)
            o.record(r.status.at("ok").asBool(), "ping");
    }
    ServeReply stats = serveRequest(socket, R"({"op":"stats"})");
    Json st = Json::parse(stats.payload);
    server->stop();

    // The served scenarios through the traced matrix, warm from the
    // server's disk cache, plus the per-point probes.
    const std::vector<std::string> goldenNames =
        expandScenarioGroups({"golden"});
    const Clock::time_point untracedStart = Clock::now();
    const std::string untracedBytes =
        matrixBytes(oneShot(servePrimeRequest(), cacheDir));
    const double untraced = secondsSince(untracedStart);
    TimedStore store(cacheDir);
    TracedMatrix tm = tracedMatrix(goldenNames, store, tracer, 1);
    o.record(tm.ok && tm.bytes == untracedBytes && tm.bytes == primeBytes,
             "traced matrix bytes");
    probeLayers(tm.uniquePoints, kProbeSample, cacheDir, tracer, 2);

    layerMetrics(tracer, poolThreads(args.workload), m);
    matrixLayerMetrics(tm, store, m);
    const double lruHits = st.at("lruHits").asNumber();
    const double lookups = lruHits + st.at("diskHits").asNumber() +
                           st.at("misses").asNumber();
    m.set("serve.ping_ms.p50", percentile(pings, 0.5), "ms");
    m.set("serve.hot_ms.p50", percentile(hot, 0.5), "ms");
    m.set("serve.hot_ms.p90", percentile(hot, 0.9), "ms");
    m.set("serve.cold_ms.p50", percentile(cold, 0.5), "ms");
    m.set("serve.lru.hit_ratio", lookups > 0 ? lruHits / lookups : 0.0,
          "ratio");
    m.set("serve.lru.evictions", st.at("lruEvictions").asNumber(), "count");
    m.set("serve.misses", st.at("misses").asNumber(), "count");
    m.set("serve.coalesced", st.at("coalesced").asNumber(), "count");
    m.set("serve.computed_points", computed, "count");
    m.set("serve.payload_bytes", payload / all.size(), "bytes");
    m.set("trace.overhead_s", tm.seconds - untraced, "s");
}

// ---------------------------------------------------------------------
// studies-gen
// ---------------------------------------------------------------------

/** Bit-exact fingerprint of a report. */
std::string
reportBytes(const LibraReport& r)
{
    return reportToJson(r).dump();
}

void
runStudies(const Args& args, Outcome& o, Metrics& m, Tracer& tracer)
{
    Timed t;
    std::vector<std::string> studies;

    // Set-up: generate the texts and check each round-trips through
    // studyConfigToString/parseStudyConfigString. Repeated.
    resetPeakRss();
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point start = Clock::now();
        ThreadPool::setGlobalThreads(poolThreads(args.workload));
        studies = generateStudies(args.seed, kStudies);
        for (std::size_t i = 0; i < studies.size(); ++i) {
            LibraInputs in = parseStudyConfigString(studies[i]);
            LibraInputs back =
                parseStudyConfigString(studyConfigToString(in));
            if (rep == 0)
                o.record(studyInputsEqual(in, back),
                         "study round-trip " + std::to_string(i));
        }
        t.setups.push_back(secondsSince(start));
    }

    // One study the way `libra_cli <study-file>` runs it.
    auto runStudy = [&](std::size_t i, Tracer* tr) {
        Span root(tr, "study", i);
        LibraInputs in = [&] {
            Span s(tr, "core.study_config.parse", i);
            return parseStudyConfigString(studies[i]);
        }();
        Span s(tr, "core.point", i);
        LibraReport r = runLibra(in);
        return std::make_pair(std::move(in), std::move(r));
    };
    auto valid = [](const LibraInputs& in, const LibraReport& r) {
        const double gain = objectiveGain(in, r);
        return std::isfinite(gain) && gain >= 1.0 - 1e-9 &&
               std::isfinite(r.optimized.weightedTime) &&
               r.optimized.weightedTime > 0.0;
    };

    if (!args.trace) {
        std::vector<std::string> seen(studies.size());
        std::vector<double> gains;
        std::size_t n = 0;
        timedLoop(args.seconds, t, [&] {
            const std::size_t i = n++ % studies.size();
            auto [in, r] = runStudy(i, nullptr);
            std::string bytes = reportBytes(r);
            bool ok = valid(in, r);
            if (seen[i].empty()) {
                gains.push_back(objectiveGain(in, r));
                seen[i] = std::move(bytes);
            } else {
                ok = ok && bytes == seen[i];
            }
            o.record(ok, "study " + std::to_string(i));
        }, kStudyPeriod);
        t.gain = geomean(gains);
        endToEndMetrics(t, o, m);
        return;
    }

    // Traced pass: the first studies untraced, then traced; the
    // reports must be bit-identical.
    const std::size_t n = std::min(kTracedStudies, studies.size());
    std::vector<std::string> untracedBytes;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
        untracedBytes.push_back(reportBytes(runStudy(i, nullptr).second));
    const double untraced = secondsSince(start);
    std::vector<PointReport> points;
    const Clock::time_point tracedStart = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        auto [in, r] = runStudy(i, &tracer);
        o.record(valid(in, r) && reportBytes(r) == untracedBytes[i],
                 "traced study " + std::to_string(i));
        points.push_back(PointReport{"", std::move(in), std::move(r)});
    }
    const double traced = secondsSince(tracedStart);
    probeLayers(points, kProbeSample, "", tracer, n);

    layerMetrics(tracer, poolThreads(args.workload), m);
    m.set("study.points", static_cast<double>(n), "count");
    m.set("study.unique", static_cast<double>(n), "count");
    m.set("study.dedup_ratio", 1.0, "ratio");
    zeroServeMetrics(m);
    m.set("trace.overhead_s", traced - untraced, "s");
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("perfbench: ", flag, " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::stoull(value);
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--trace")
            a.trace = value == "1";
        else if (flag == "--dump-gen")
            a.dumpGen = value;
        else if (flag == "--count")
            a.count = std::stoul(value);
        else if (flag == "--commit")
            a.commit = value;
        else
            fatal("perfbench: unknown flag ", flag);
    }
    return a;
}

Json
environment(const Args& args)
{
    Json env = Json::object();
    env["workload"] = args.workload;
    env["seed"] = static_cast<double>(args.seed);
    env["seconds"] = args.seconds;
    env["trace"] = args.trace;
    env["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
    env["pool_threads"] = static_cast<double>(poolThreads(args.workload));
    env["simd_kernel"] = activeSimdKernel();
    env["compiler"] = PERFBENCH_COMPILER;
    env["build_type"] = PERFBENCH_BUILD_TYPE;
    env["commit"] = args.commit;
    return env;
}

int
dumpGenerated(const Args& args)
{
    if (args.dumpGen == "studies") {
        for (const std::string& text :
             generateStudies(args.seed, args.count))
            std::cout << text << "---\n";
    } else if (args.dumpGen == "serve") {
        for (const ServeRequest& r :
             generateServeSequence(args.seed, args.count))
            std::cout << r.line << (r.duplicate ? " pair" : "") << "\n";
    } else {
        fatal("perfbench: --dump-gen takes studies or serve");
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        setInformEnabled(false);
        const Args args = parseArgs(argc, argv);
        if (!args.dumpGen.empty())
            return dumpGenerated(args);

        Json env = environment(args);
        std::cerr << "perfbench: env " << env.dump() << "\n";
        WorkDir work;
        Outcome outcome;
        Metrics metrics;
        Tracer tracer;
        if (args.workload == "matrix-cold" || args.workload == "matrix-warm")
            runMatrix(args, args.workload == "matrix-warm", work, outcome,
                      metrics, tracer);
        else if (args.workload == "serve-mix")
            runServe(args, work, outcome, metrics, tracer);
        else if (args.workload == "studies-gen")
            runStudies(args, outcome, metrics, tracer);
        else
            fatal("perfbench: unknown workload '", args.workload, "'");

        if (args.trace) {
            fs::create_directories(".perfbench-out");
            const std::string path = ".perfbench-out/trace-" +
                                     args.workload + "-seed" +
                                     std::to_string(args.seed) + ".json";
            tracer.writeChromeTrace(path);
            std::cerr << "perfbench: trace written to " << path << "\n";
        }

        if (!args.trace) {
            // The sample count behind op_p50_ms and op_tail_ms.
            env["ops"] = static_cast<double>(outcome.timedOps);
            env["tail_quantile"] = outcome.tailQuantile;
        }
        Json result = Json::object();
        result["correct"] = outcome.failed == 0;
        result["attempted"] = static_cast<double>(outcome.attempted);
        result["failed"] = static_cast<double>(outcome.failed);
        Json mj = Json::object();
        for (const Metrics::Entry& e : metrics.entries) {
            Json v = Json::object();
            v["value"] = e.value;
            v["unit"] = e.unit;
            mj[e.name] = std::move(v);
        }
        result["metrics"] = std::move(mj);
        std::cout << "{\"env\":" << env.dump() << "}\n";
        std::cout << result.dump() << "\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
