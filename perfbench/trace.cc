#include "trace.hh"

#include <fstream>
#include <functional>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"

namespace perfbench {

namespace {

/** The calling thread's stack of open span indices. */
thread_local std::vector<std::size_t> tlsOpen;

std::uint64_t
threadId()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           100000;
}

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::size_t
Tracer::open(std::string name, std::uint64_t run)
{
    SpanRecord rec;
    rec.name = std::move(name);
    rec.run = run;
    rec.thread = threadId();
    rec.parent = tlsOpen.empty() ? -1 : static_cast<long>(tlsOpen.back());
    std::size_t index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = spans_.size();
        rec.start = secondsSince(origin_);
        spans_.push_back(std::move(rec));
    }
    tlsOpen.push_back(index);
    return index;
}

void
Tracer::close(std::size_t index)
{
    const double end = secondsSince(origin_);
    if (tlsOpen.empty() || tlsOpen.back() != index)
        libra::panic("perfbench: span closed out of order");
    tlsOpen.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end = end;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<SpanRecord> all = spans();
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].duration();
    for (const SpanRecord& s : all) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.duration();
    }
    return self;
}

void
Tracer::writeChromeTrace(const std::string& path) const
{
    std::vector<SpanRecord> all = spans();
    std::vector<double> self = selfTimes();
    libra::Json events = libra::Json::array();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord& s = all[i];
        libra::Json e = libra::Json::object();
        e["name"] = s.name;
        e["cat"] = s.name.substr(0, s.name.find('.'));
        e["ph"] = "X";
        e["ts"] = s.start * 1e6;
        e["dur"] = s.duration() * 1e6;
        e["pid"] = 1;
        e["tid"] = static_cast<double>(s.thread);
        libra::Json args = libra::Json::object();
        args["run"] = static_cast<double>(s.run);
        args["parent"] = static_cast<double>(s.parent);
        args["self_us"] = self[i] * 1e6;
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    libra::Json doc = libra::Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out)
        libra::warn("perfbench: cannot write trace '", path, "'");
}

Span::Span(Tracer* tracer, std::string name, std::uint64_t run)
    : tracer_(tracer)
{
    if (tracer_)
        index_ = tracer_->open(std::move(name), run);
}

Span::~Span()
{
    if (tracer_)
        tracer_->close(index_);
}

} // namespace perfbench
