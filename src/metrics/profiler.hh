/**
 * @file
 * HostProfiler: wall-clock self-profiling of the simulation kernel.
 *
 * Attach one to an EventQueue (eq.setProfiler(&prof)) and every fired
 * event is timed on the host's monotonic clock and attributed to its
 * schedule-site kind tag ("bus.deliver", "dram.tick", ...; untagged
 * events pool under "(untagged)"). After a run the profiler answers:
 * where does the simulator itself spend host time, and how many
 * simulated events per second does it retire (MEPS = millions of
 * events/second).
 *
 * The profiler observes and never mutates simulation state, so
 * profiled and unprofiled runs produce identical simulated results.
 * Host-clock reads live only here, behind the EventProfiler hook —
 * the one sanctioned wall-clock site in the library (see the
 * determinism suppression in tools/genie_lint/suppressions.txt).
 */

#ifndef GENIE_METRICS_PROFILER_HH
#define GENIE_METRICS_PROFILER_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/thread_safety.hh"

namespace genie
{

/**
 * The sanctioned host-clock read (monotonic nanoseconds). Telemetry
 * callers (SweepEngine progress, bench harnesses) must use this
 * instead of touching std::chrono directly, so every wall-clock read
 * in the library funnels through one auditable site — and the
 * determinism lint rule stays tree-wide with a single suppression.
 * Host time read here must never feed back into simulated behavior.
 */
std::uint64_t profilerNowNs();

class HostProfiler GENIE_THREAD_LOCAL_OK : public EventProfiler
{
  public:
    /** Accumulated attribution for one event kind. */
    struct KindProfile
    {
        std::uint64_t events = 0;
        std::uint64_t wallNs = 0;
        /** Per-event handler latency histogram (ns), for the p50/p95
         * columns of report(). */
        Distribution latencyNs;
    };

    void beginEvent(Tick when, const char *kind) override;
    void endEvent() override;

    /** Events executed while attached. */
    std::uint64_t totalEvents() const { return _totalEvents; }

    /** Host nanoseconds spent inside event actions. */
    std::uint64_t totalWallNs() const { return _totalWallNs; }

    /** Simulated events retired per host second (0 before any
     * event completes). */
    double eventsPerSecond() const;

    /** eventsPerSecond() in millions (the MEPS headline). */
    double meps() const { return eventsPerSecond() / 1e6; }

    /** Attribution by kind tag; values sum exactly to totalEvents()
     * and totalWallNs(). */
    const std::map<std::string, KindProfile> &
    byKind() const
    {
        return kinds;
    }

    /** Kinds sorted by wall time, heaviest first. */
    std::vector<std::pair<std::string, KindProfile>> sorted() const;

    /** Human-readable table: kind, events, wall ms, share. */
    void report(std::ostream &os) const;

    void reset();

  private:
    std::map<std::string, KindProfile> kinds;
    /** Pointer-identity memo of the by-name lookup: kind tags are
     * static literals, so the same tag pointer recurs per site and
     * endEvent() resolves it with one hash probe (Genie-Turbo). */
    std::unordered_map<const char *, KindProfile *> kindCache;
    std::uint64_t _totalEvents = 0;
    std::uint64_t _totalWallNs = 0;

    // In-flight event state between beginEvent() and endEvent().
    std::uint64_t startNs = 0;
    const char *curKind = nullptr;
    bool inEvent = false;
};

} // namespace genie

#endif // GENIE_METRICS_PROFILER_HH
