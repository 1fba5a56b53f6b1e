#include "event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace genie
{

void
EventQueue::registerStats(StatGroup &group)
{
    if (_statRegistry != nullptr)
        _statRegistry->registerGroup(group);
}

EventQueue::~EventQueue()
{
#if GENIE_CHECK_INVARIANTS
    // Event-leak-at-exit detector: live events at destruction usually
    // mean a component leaked a handshake (e.g. a response that never
    // arrived). Destroying a queue after run(until) legitimately
    // leaves future events, so this only warns; flows that must drain
    // completely should assert with checkDrained().
    if (liveEvents != 0) {
        warn("EventQueue destroyed with %zu live event(s) pending "
             "(first at tick %llu)",
             liveEvents, (unsigned long long)nextTick());
    }
#endif
}

EventId
EventQueue::schedule(Tick when, std::function<void()> action,
                     const char *kind)
{
    return scheduleImpl(when, std::move(action), kind, 0);
}

EventId
EventQueue::scheduleImpl(Tick when, std::function<void()> action,
                         const char *kind, std::uint64_t flowFrom)
{
    return scheduleRawImpl(when, &EventQueue::runAction, this,
                           actions.put(std::move(action)), kind,
                           flowFrom);
}

EventId
EventQueue::scheduleRawImpl(Tick when, RawEvent fn, void *ctx,
                            std::uint64_t arg, const char *kind,
                            std::uint64_t flowFrom)
{
    if (when < _curTick)
        panic("scheduling event in the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)_curTick);
    GENIE_ASSERT(fn != nullptr, "raw event scheduled with a null "
                 "handler (null marks a cancelled event)");
    const std::uint64_t seq = nextSeq++;
    pending.push_back({when, seq, fn, ctx, arg, kind, flowFrom});
    std::push_heap(pending.begin(), pending.end(), Later{});
    ++liveEvents;
    return seq + 1;
}

void
EventQueue::runAction(void *ctx, std::uint64_t arg)
{
    // Move the payload out and free its slot before invoking it: the
    // handler may schedule more std::function events, which can reuse
    // the slot or grow (and so move) the table.
    std::function<void()> action =
        static_cast<EventQueue *>(ctx)->actions.take(arg);
    action();
}

void
EventQueue::deschedule(EventId id)
{
    if (id == invalidEventId)
        return;
    // A linear scan: the pending set holds a handful of events (a
    // mean of 2.9 to 5.5 on the perfbench workloads), and a fired,
    // cancelled or never-issued id matches no live entry, so it is a
    // no-op.
    const std::uint64_t seq = id - 1;
    for (Event &e : pending) {
        if (e.seq != seq)
            continue;
        if (e.fn == nullptr)
            return;
        if (e.fn == &EventQueue::runAction)
            actions.take(e.arg); // destroys the captures
        e.fn = nullptr;
        --liveEvents;
        return;
    }
}

void
EventQueue::popTop() const
{
    // Sift the last event down from the hole at the top. Pending sets
    // are a handful of events, so the sift usually stops within a
    // level or two; this saves std::pop_heap's extra 56-byte move and
    // its walk to a leaf.
    const Event last = pending.back();
    pending.pop_back();
    const std::size_t n = pending.size();
    if (n == 0)
        return;
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
        if (child + 1 < n && Later{}(pending[child], pending[child + 1]))
            ++child;
        if (!Later{}(last, pending[child]))
            break;
        pending[hole] = pending[child];
        hole = child;
    }
    pending[hole] = last;
}

void
EventQueue::skipCancelled() const
{
    while (!pending.empty() && pending.front().fn == nullptr)
        popTop();
}

Tick
EventQueue::nextTick() const
{
    skipCancelled();
    return pending.empty() ? maxTick : pending.front().when;
}

void
EventQueue::fireTop()
{
    // Copy the event out and pop it before dispatch: the handler may
    // schedule (and so reshape the heap), and a deschedule() of the
    // firing id from inside it must find nothing.
    const Event e = pending.front();
    popTop();
    GENIE_ASSERT(e.when >= _curTick, "event order went backwards");
    _curTick = e.when;
    --liveEvents;
    ++executed;
    if (_tracer != nullptr) {
        // Hand the captured origin to the firing action: the first
        // span it records closes the flow edge, and inheriting the
        // origin as the cursor keeps causality threaded through
        // span-less intermediary events (e.g. a chain of cpu.step
        // events between a DMA completion and the next ioctl).
        resumeFlow(e.flowFrom);
    }
    if (_profiler != nullptr) {
        _profiler->beginEvent(e.when, e.kind);
        e.fn(e.ctx, e.arg);
        _profiler->endEvent();
    } else {
        e.fn(e.ctx, e.arg);
    }
}

bool
EventQueue::step()
{
    skipCancelled();
    if (pending.empty())
        return false;
    fireTop();
    return true;
}

Tick
EventQueue::run(Tick until)
{
    while (true) {
        // nextTick() and step() inlined: one cancelled-event sweep
        // per fired event.
        skipCancelled();
        if (pending.empty() || pending.front().when == maxTick ||
            pending.front().when > until)
            break;
        fireTop();
    }
    if (until != maxTick && _curTick < until)
        _curTick = until;
    return _curTick;
}

void
EventQueue::checkDrained() const
{
    if (liveEvents != 0) {
        panic("EventQueue not drained: %zu live event(s) remain, "
              "next at tick %llu",
              liveEvents, (unsigned long long)nextTick());
    }
}

} // namespace genie
