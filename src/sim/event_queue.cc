#include "sim/event_queue.hh"

#include "common/logging.hh"

namespace libra {

void
EventQueue::schedule(Tick when, std::function<void()> callback)
{
    if (when < now_)
        panic("scheduling event at ", when, " before now ", now_);
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(callback);
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(callback));
    }
    queue_.push({when, nextSeq_++, slot});
}

void
EventQueue::scheduleAfter(Tick delay, std::function<void()> callback)
{
    schedule(now_ + delay, std::move(callback));
}

bool
EventQueue::step()
{
    if (queue_.empty())
        return false;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.when;
    // Move the callback out and free its slot before running: the
    // callback may schedule new events that reuse the slot.
    std::function<void()> callback = std::move(slots_[ev.slot]);
    slots_[ev.slot] = nullptr;
    freeSlots_.push_back(ev.slot);
    callback();
    return true;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

} // namespace libra
