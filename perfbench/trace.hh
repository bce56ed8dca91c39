/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * Spans are recorded from the benchmark's own code, around calls into
 * the library's public functions: each has a name, start, end, parent
 * span (per thread, from RAII nesting) and a run id that ties the
 * spans of one operation together. Nothing is written until the run
 * ends; then the spans go out as Chrome trace-event JSON, which
 * Perfetto and chrome://tracing open offline.
 */

#ifndef LIBRA_PERFBENCH_TRACE_HH
#define LIBRA_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

struct SpanRecord
{
    std::string name;
    double start = 0.0; ///< Seconds since the tracer was created.
    double end = 0.0;
    long parent = -1;   ///< Index of the enclosing span; -1 = root.
    std::uint64_t run = 0;
    std::uint64_t thread = 0;

    double duration() const { return end - start; }
};

class Tracer
{
  public:
    Tracer();

    /** Open a span on the calling thread; returns its index. */
    std::size_t open(std::string name, std::uint64_t run);

    /** Close span @p index (must be the calling thread's innermost). */
    void close(std::size_t index);

    /** Snapshot of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

    /**
     * Per span: duration minus the part of it covered by its children
     * (children never overlap on one thread, so a plain sum).
     */
    std::vector<double> selfTimes() const;

    /** Write Chrome trace-event JSON ("X" events, microseconds). */
    void writeChromeTrace(const std::string& path) const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** RAII span: opened on construction, closed on destruction. */
class Span
{
  public:
    /** A null @p tracer makes the span a no-op (untraced runs). */
    Span(Tracer* tracer, std::string name, std::uint64_t run = 0);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer* tracer_;
    std::size_t index_ = 0;
};

} // namespace perfbench

#endif // LIBRA_PERFBENCH_TRACE_HH
