/**
 * @file
 * The discrete-event simulation kernel.
 *
 * An EventQueue owns the global tick counter for one simulated system.
 * There is deliberately no global/singleton queue: each Soc instance
 * owns its own EventQueue so that design-space sweeps can run thousands
 * of independent simulations concurrently on different threads.
 *
 * THE ORDERING CONTRACT: events fire in the strict total order
 * (when ascending, then seq ascending), where seq is the schedule
 * order — equal-tick events fire FIFO. Stats, traces and fingerprints
 * depend on exactly this order; tests/golden/event_order.txt pins the
 * full output of the paper design points to it.
 *
 * The pending set is one std::vector binary min-heap that holds each
 * event by value, keyed inline on (when, seq), so a sift never chases
 * a pointer. Every event dispatches as fn(ctx, arg). Schedule sites
 * on the hot kinds pass the function pointer and context word
 * themselves (scheduleFlowRaw()/...): the datapath's accel.tick,
 * accel.nodeComplete and accel.drainCheck, the driver CPU's steps,
 * and on the memory path cache.hit, cache.fillResponse,
 * bus.arbitrate, bus.deliver, bus.snoopSupply, dram.kick and
 * dram.finish. A payload larger than the one argument word waits in
 * a SlotTable owned by the scheduling component (sim/slot_table.hh),
 * and the slot index is the arg. A std::function action is parked
 * the same way, in the queue's own slot table. A null fn marks a
 * cancelled event: deschedule() scans the heap, clears fn and frees
 * the payload, and cancelled events are dropped when they reach the
 * top.
 */

#ifndef GENIE_SIM_EVENT_QUEUE_HH
#define GENIE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/slot_table.hh"
#include "sim/types.hh"

namespace genie
{

class Tracer;
class StatGroup;
class StatRegistry;
class FaultInjector;

/**
 * Opaque handle identifying a scheduled event (for cancellation): the
 * event's schedule sequence number plus one. Sequence numbers are
 * never reused, so deschedule() on the handle of a fired or cancelled
 * event finds nothing and is a safe no-op.
 */
using EventId = std::uint64_t;

/** Sentinel returned for "no event". */
constexpr EventId invalidEventId = 0;

/**
 * Host-side execution observer (Genie-Metrics self-profiling). The
 * queue calls beginEvent()/endEvent() around every fired action so an
 * implementation can attribute wall-clock time and event counts per
 * event kind. Declared here as an abstract hook so the simulation
 * kernel never depends on host clocks itself; the concrete
 * wall-clock implementation lives in src/metrics/profiler.hh.
 */
class EventProfiler
{
  public:
    virtual ~EventProfiler() = default;

    /** An event tagged @p kind (may be null = untagged) is about to
     * execute at simulated time @p when. */
    virtual void beginEvent(Tick when, const char *kind) = 0;

    /** The event begun last has finished executing. */
    virtual void endEvent() = 0;
};

/**
 * The discrete event queue: deterministic (when, seq) ordering over
 * one binary heap of pending events held by value.
 */
class EventQueue
{
  public:
    /**
     * Raw-dispatch event handler: @p ctx is the scheduling component
     * (typically `this`), @p arg one payload word packed by the
     * schedule site. The devirtualized alternative to std::function
     * for hot kinds.
     */
    using RawEvent = void (*)(void *ctx, std::uint64_t arg);

    EventQueue() = default;
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p action to run at absolute time @p when. @p kind is
     * an optional static-string tag ("bus.deliver", "dram.tick", ...)
     * used by the attached EventProfiler to attribute host time per
     * component/event kind; untagged events profile as "(untagged)".
     * The string is not copied — pass a literal or a string that
     * outlives the event.
     * @return a handle usable with deschedule().
     */
    EventId schedule(Tick when, std::function<void()> action,
                     const char *kind = nullptr);

    /** Schedule @p action @p delta ticks in the future. */
    EventId
    scheduleIn(Tick delta, std::function<void()> action,
               const char *kind = nullptr)
    {
        return schedule(_curTick + delta, std::move(action), kind);
    }

    /**
     * Flow-aware variant of schedule() (Genie-Scope): the event
     * additionally captures the ambient flow cursor — the id of the
     * span most recently recorded in the currently executing event —
     * as its causal origin. When the event fires, the origin becomes
     * the pending flow source, and the first span the fired action
     * records closes a flowFrom edge back to it (trace/tracer.hh).
     * With tracing disabled the cursor is permanently 0 and this is
     * schedule() plus one integer copy; recording is strictly
     * passive either way — traced results stay byte-identical to
     * untraced.
     */
    EventId
    scheduleFlow(Tick when, std::function<void()> action,
                 const char *kind = nullptr)
    {
        return scheduleImpl(when, std::move(action), kind,
                            _flowCursor);
    }

    /** Flow-aware variant of scheduleIn(). */
    EventId
    scheduleFlowIn(Tick delta, std::function<void()> action,
                   const char *kind = nullptr)
    {
        return scheduleImpl(_curTick + delta, std::move(action), kind,
                            _flowCursor);
    }

    /**
     * Raw-dispatch schedule (Genie-Turbo fast path): @p fn fires as
     * fn(ctx, arg) with no std::function anywhere on the path. Flow
     * semantics match scheduleFlow(). Same ordering, cancellation and
     * profiling behavior as the std::function path — a site may be
     * converted freely without changing results. @p fn must not be
     * null.
     */
    EventId
    scheduleFlowRaw(Tick when, RawEvent fn, void *ctx,
                    std::uint64_t arg, const char *kind = nullptr)
    {
        return scheduleRawImpl(when, fn, ctx, arg, kind, _flowCursor);
    }

    /** Raw-dispatch scheduleFlowIn(). */
    EventId
    scheduleFlowRawIn(Tick delta, RawEvent fn, void *ctx,
                      std::uint64_t arg, const char *kind = nullptr)
    {
        return scheduleRawImpl(_curTick + delta, fn, ctx, arg, kind,
                               _flowCursor);
    }

    /** Raw-dispatch schedule() (no flow capture). */
    EventId
    scheduleRaw(Tick when, RawEvent fn, void *ctx, std::uint64_t arg,
                const char *kind = nullptr)
    {
        return scheduleRawImpl(when, fn, ctx, arg, kind, 0);
    }

    /** Cancel a previously scheduled event. Safe on fired events. */
    void deschedule(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveEvents == 0; }

    /** Number of live (scheduled, uncancelled, unfired) events. */
    std::size_t size() const { return liveEvents; }

    /** Tick of the next live event, or maxTick if none. */
    Tick nextTick() const;

    /**
     * Run events until the queue is empty or @p until is reached
     * (events at exactly @p until are executed).
     * @return the final current tick.
     */
    Tick run(Tick until = maxTick);

    /** Execute at most one event. @return false if queue was empty. */
    bool step();

    /** Total number of events executed since construction. */
    std::uint64_t numExecuted() const { return executed; }

    /**
     * Entries in the pending heap: live events plus cancelled ones not
     * yet dropped from the top. Debug/test hook; always >= size().
     */
    std::size_t allocatedEntries() const { return pending.size(); }

    /**
     * Attach the event recorder for this queue's system (see
     * trace/tracer.hh). The queue does not own the Tracer; the Soc
     * that owns both keeps the Tracer alive for the queue's lifetime.
     * Null (the default) means tracing is disabled and emission sites
     * skip all work.
     */
    void setTracer(Tracer *t) { _tracer = t; }

    /** The attached Tracer, or null when tracing is disabled. */
    Tracer *tracer() const { return _tracer; }

    /**
     * Attach this system's StatRegistry (see sim/stats.hh). Like the
     * Tracer slot, the queue does not own it; it is the rendezvous
     * point through which components register their StatGroups at
     * construction without extra constructor plumbing. Null (the
     * default) makes registerStats() a no-op.
     */
    void setStatRegistry(StatRegistry *r) { _statRegistry = r; }

    /** The attached registry, or null. */
    StatRegistry *statRegistry() const { return _statRegistry; }

    /** Register @p group with the attached registry, if any. The
     * one-liner every SimObject constructor calls. */
    void registerStats(StatGroup &group);

    /**
     * Attach this system's fault campaign engine (see
     * fault/fault_injector.hh). Same rendezvous pattern as the Tracer
     * and StatRegistry slots: the queue does not own the injector,
     * and null (the default, and the only state in fault-free runs)
     * means every injection site skips all work after one pointer
     * test — a fault-free build and a zero-rate campaign execute the
     * identical instruction stream.
     */
    void setFaultInjector(FaultInjector *f) { _faultInjector = f; }

    /** The attached fault injector, or null when faults are off. */
    FaultInjector *faultInjector() const { return _faultInjector; }

    /**
     * Attach a host-side execution profiler; every fired event is
     * bracketed with beginEvent()/endEvent(). Null (the default)
     * disables profiling at the cost of one pointer test per event.
     * Observability only: the profiler must never mutate simulation
     * state, so profiled and unprofiled runs produce identical
     * results.
     */
    void setProfiler(EventProfiler *p) { _profiler = p; }

    /** The attached profiler, or null. */
    EventProfiler *profiler() const { return _profiler; }

    // ---- Ambient flow cursor (Genie-Scope causal links) ----
    //
    // The queue carries two span ids that thread causality between
    // events without the kernel depending on the trace library: the
    // *cursor* (span most recently recorded while the current event
    // executes) and the *pending origin* (the firing event's captured
    // flowFrom, consumed by the first span the action records). Both
    // are written only by the attached Tracer and by step(); they are
    // observability state, so the setters are const like the lazily
    // reaped pending set.

    /** Span id the next scheduleFlow() call records as its origin. */
    std::uint64_t flowCursor() const { return _flowCursor; }

    /** Advance the cursor: @p spanId was just recorded in the
     * currently executing event (Tracer-only call). */
    void setFlowCursor(std::uint64_t spanId) const
    {
        _flowCursor = spanId;
    }

    /** The firing event's captured origin, or 0 once consumed. */
    std::uint64_t pendingFlowOrigin() const { return _pendingOrigin; }

    /** Consume the pending origin after recording its flow edge
     * (Tracer-only call). */
    void consumeFlowOrigin() const { _pendingOrigin = 0; }

    /**
     * Re-enter the flow context step() sets up for an event captured
     * with origin @p spanId, for a handler that retires several
     * coalesced events in one (the datapath's completion batches).
     * Only meaningful with a Tracer attached.
     */
    void
    resumeFlow(std::uint64_t spanId) const
    {
        _pendingOrigin = spanId;
        _flowCursor = spanId;
    }

    /**
     * Invariant check: panics if any live (scheduled, uncancelled,
     * unfired) event remains. Call after run() on a flow that must
     * drain completely; a leftover event is a leaked handshake or a
     * component that kept self-rescheduling past the end of the run.
     */
    void checkDrained() const;

  private:
    /**
     * One pending event, held by value in the heap. The ordering key
     * (when, seq) leads; fn == nullptr marks a cancelled event.
     */
    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        RawEvent fn = nullptr;
        void *ctx = nullptr;
        std::uint64_t arg = 0;
        const char *kind = nullptr; ///< profiler attribution tag
        /** Causal origin span captured by scheduleFlow(); 0 = none. */
        std::uint64_t flowFrom = 0;
    };

    /** Heap order: true if @p a fires after @p b. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    EventId scheduleImpl(Tick when, std::function<void()> action,
                         const char *kind, std::uint64_t flowFrom);
    EventId scheduleRawImpl(Tick when, RawEvent fn, void *ctx,
                            std::uint64_t arg, const char *kind,
                            std::uint64_t flowFrom);

    /** Dispatch of a std::function event: @p arg is its payload
     * slot. */
    static void runAction(void *ctx, std::uint64_t arg);

    /** Remove the top of the heap. */
    void popTop() const;

    /** Drop cancelled events off the top of the heap. */
    void skipCancelled() const;

    /** Pop the (live) top event and dispatch it. */
    void fireTop();

    Tick _curTick = 0;
    Tracer *_tracer = nullptr;
    StatRegistry *_statRegistry = nullptr;
    EventProfiler *_profiler = nullptr;
    FaultInjector *_faultInjector = nullptr;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    std::size_t liveEvents = 0;
    // Ambient flow state (see the accessor block above): written by
    // the attached Tracer through const handles, hence mutable.
    mutable std::uint64_t _flowCursor = 0;
    mutable std::uint64_t _pendingOrigin = 0;

    /** The pending set, a min-heap under Later. Mutable because
     * nextTick() drops cancelled events off its top. */
    mutable std::vector<Event> pending;
    /** std::function payloads by slot. */
    SlotTable<std::function<void()>> actions;
};

} // namespace genie

#endif // GENIE_SIM_EVENT_QUEUE_HH
