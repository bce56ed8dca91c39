/**
 * @file
 * Tick-based discrete-event engine.
 *
 * Ticks are integer picoseconds so event ordering is exact and runs are
 * bit-reproducible; ties break by insertion order (FIFO), the convention
 * simulators like gem5 and ASTRA-sim follow.
 */

#ifndef LIBRA_SIM_EVENT_QUEUE_HH
#define LIBRA_SIM_EVENT_QUEUE_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hh"

namespace libra {

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

constexpr double kTicksPerSecond = 1e12;

/** Seconds -> ticks (rounded). */
inline Tick
toTicks(Seconds s)
{
    return static_cast<Tick>(std::llround(s * kTicksPerSecond));
}

/** Ticks -> seconds. */
inline Seconds
toSeconds(Tick t)
{
    return static_cast<Seconds>(t) / kTicksPerSecond;
}

/** A chronological queue of callbacks. */
class EventQueue
{
  public:
    EventQueue() = default;

    Tick now() const { return now_; }

    /**
     * Schedule @p callback at absolute time @p when (>= now()).
     * @throws FatalError when scheduling into the past.
     */
    void schedule(Tick when, std::function<void()> callback);

    /** Schedule @p delay after now(). */
    void scheduleAfter(Tick delay, std::function<void()> callback);

    bool empty() const { return queue_.empty(); }

    /** Pop and run the next event; returns false when empty. */
    bool step();

    /** Run until the queue drains. */
    void run();

  private:
    /**
     * Heap entries carry only ordering keys plus a slot index; the
     * callbacks live in a side vector so heap sifts shuffle 24-byte
     * PODs and step() moves (never copies) the std::function out of
     * priority_queue::top()'s const reference.
     */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
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

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::vector<std::function<void()>> slots_; ///< Keyed by Event::slot.
    std::vector<std::uint32_t> freeSlots_;     ///< Recyclable slots.
};

} // namespace libra

#endif // LIBRA_SIM_EVENT_QUEUE_HH
