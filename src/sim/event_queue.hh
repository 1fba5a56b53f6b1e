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
 * order — equal-tick events fire FIFO. Every queue strategy
 * (sim/queue_strategy.hh) implements exactly this order, which is why
 * the strategy knob is purely a host-speed choice: stats, traces and
 * fingerprints are byte-identical across strategies
 * (tests/test_queue_diff.cc).
 *
 * Entry lifetime (Genie-Turbo): entries live in an ObjectArena
 * (sim/event_arena.hh) — bump-allocated blocks with freelist
 * recycling, no per-schedule new/delete. An Entry is destroyed at
 * exactly one of three points: when it fires (step()), when a
 * cancelled entry is lazily reaped at the pending-set head
 * (skipCancelled()), or in the destructor. EventIds encode
 * (slot, generation) into the arena so deschedule() is an O(1) array
 * probe, and allocatedEntries() exposes the arena's live count so
 * tests can prove the accounting closes under any deschedule()/run()
 * interleaving.
 *
 * Hot-path dispatch: beside the std::function path, schedule sites
 * can pass a raw function pointer + context word
 * (scheduleFlowRaw()/...). The kernel then skips std::function
 * construction, move and destruction entirely — the devirtualized
 * fast path the hottest kinds (accel.tick, accel.nodeComplete,
 * cpu.step, bus.deliver, dram.finish) use.
 */

#ifndef GENIE_SIM_EVENT_QUEUE_HH
#define GENIE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/event_arena.hh"
#include "sim/ladder_queue.hh"
#include "sim/queue_strategy.hh"
#include "sim/types.hh"

namespace genie
{

class Tracer;
class StatGroup;
class StatRegistry;
class FaultInjector;

/**
 * Opaque handle identifying a scheduled event (for cancellation).
 * Encodes the arena (slot, generation) pair; a handle for a fired or
 * cancelled event goes stale (its slot's generation moves on) and
 * deschedule() on it is a safe no-op.
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
 * The discrete event queue: deterministic (when, seq) ordering, O(1)
 * cancellation, arena-pooled entries, and a pluggable pending-set
 * strategy (binary heap or self-tuning ladder queue).
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

    explicit EventQueue(QueueStrategy s = QueueStrategy::Ladder)
        : strat(s)
    {
    }
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** The pending-set strategy this queue runs on. */
    QueueStrategy strategy() const { return strat; }

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
     * converted freely without changing results.
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
     * Arena-owned Entry allocations currently alive (live events plus
     * cancelled-but-unreaped ones). Debug/test hook for the entry
     * arena; always >= size().
     */
    std::size_t allocatedEntries() const { return arena.live(); }

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
     * One pending event. Layout is hot-path packed: the ordering key
     * (when, seq) leads so strategy comparisons touch the first cache
     * line; the 32-byte std::function tail is only visited on the
     * non-raw dispatch path.
     */
    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        RawEvent fn = nullptr; ///< non-null => raw fast dispatch
        void *ctx = nullptr;
        std::uint64_t arg = 0;
        const char *kind = nullptr; ///< profiler attribution tag
        /** Causal origin span captured by scheduleFlow(); 0 = none. */
        std::uint64_t flowFrom = 0;
        std::uint32_t slot = 0; ///< arena slot owning this entry
        bool cancelled = false;
        std::function<void()> action; ///< empty on the raw path
    };

    EventId scheduleImpl(Tick when, std::function<void()> action,
                         const char *kind, std::uint64_t flowFrom);
    EventId scheduleRawImpl(Tick when, RawEvent fn, void *ctx,
                            std::uint64_t arg, const char *kind,
                            std::uint64_t flowFrom);

    /** Allocate + enqueue a blank entry keyed (when, nextSeq) and
     * mint its (slot, generation) EventId. */
    Entry *enqueueEntry(Tick when, const char *kind,
                        std::uint64_t flowFrom, EventId &idOut);

    struct EntryCompare
    {
        bool
        operator()(const Entry *a, const Entry *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    // EventId <-> arena (slot, generation) packing. slot+1 keeps every
    // valid id distinct from invalidEventId.
    static EventId makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (EventId(slot + 1) << 32) | EventId(gen);
    }

    // ---- Strategy seam: the pending set ----
    // Exactly one of `heap` / `ladder` is in use, chosen at
    // construction; both retire entries in identical (when, seq)
    // order. Mutable alongside the arena: lazy reaping of cancelled
    // entries happens from const queries (nextTick).

    void
    pendingPush(Entry *e) const
    {
        if (strat == QueueStrategy::Ladder)
            ladder.push(e);
        else
            heap.push(e);
    }

    Entry *
    pendingTop() const
    {
        if (strat == QueueStrategy::Ladder)
            return ladder.top();
        return heap.empty() ? nullptr : heap.top();
    }

    void
    pendingPop() const
    {
        if (strat == QueueStrategy::Ladder)
            ladder.pop();
        else
            heap.pop();
    }

    /** Pop cancelled entries off the head of the pending set. */
    void skipCancelled() const;

    /** Destroy @p e's arena slot, keeping the live count honest. */
    void freeEntry(const Entry *e) const;

    QueueStrategy strat;
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

    // Entry storage (see event_arena.hh): the pending structures hold
    // arena-owned pointers; cancellation marks the entry and the head
    // scan lazily destroys it.
    mutable ObjectArena<Entry> arena;
    mutable std::priority_queue<Entry *, std::vector<Entry *>,
                                EntryCompare> heap;
    mutable LadderQueue<Entry> ladder;
};

} // namespace genie

#endif // GENIE_SIM_EVENT_QUEUE_HH
