#include "dram.hh"

#include "fault/fault_injector.hh"
#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

DramCtrl::DramCtrl(std::string name, EventQueue &eq, ClockDomain domain,
                   SystemBus &bus_, Params p)
    : SimObject(std::move(name)), Clocked(eq, domain), params(p),
      bus(bus_), banks(p.numBanks),
      statReads(stats().add("reads", "read requests serviced")),
      statWrites(stats().add("writes", "write requests serviced")),
      statRowHits(stats().add("rowHits", "row buffer hits")),
      statRowMisses(stats().add("rowMisses", "row buffer misses")),
      statQueueTicks(stats().add("queueTicks",
                                 "total ticks requests spent queued")),
      statReadErrors(stats().add("readErrors",
                                 "reads failed by fault injection"))
{
    if (!isPowerOf2(params.rowBytes) || !isPowerOf2(params.numBanks))
        fatal("DRAM rowBytes and numBanks must be powers of two");
    eq.registerStats(stats());
}

double
DramCtrl::rowHitRate() const
{
    double total = statRowHits.value() + statRowMisses.value();
    return total > 0 ? statRowHits.value() / total : 0.0;
}

unsigned
DramCtrl::bankIndex(Addr addr) const
{
    return static_cast<unsigned>((addr / params.rowBytes) %
                                 params.numBanks);
}

Addr
DramCtrl::rowIndex(Addr addr) const
{
    return addr / params.rowBytes / params.numBanks;
}

void
DramCtrl::recvRequest(const Packet &pkt)
{
    queue.push_back({pkt, eventq.curTick()});
    trySchedule();
}

void
DramCtrl::kick(Tick when)
{
    if (when >= pendingKickAt && pendingKickAt > eventq.curTick())
        return; // an earlier wakeup is already pending
    pendingKickAt = when;
    // Raw dispatch: the wakeup tick packs into the payload word.
    eventq.scheduleFlowRaw(when, [](void *c, std::uint64_t at) {
        auto *self = static_cast<DramCtrl *>(c);
        if (self->pendingKickAt == at)
            self->pendingKickAt = maxTick;
        self->trySchedule();
    }, this, when, "dram.kick");
}

void
DramCtrl::trySchedule()
{
    Tick now = eventq.curTick();
    while (!queue.empty()) {
        if (now < nextIssueAt) {
            kick(nextIssueAt);
            return;
        }

        // Row-hit-first among requests whose bank is free; fall back
        // to the oldest request with a free bank.
        std::size_t pick = queue.size();
        bool foundHit = false;
        Tick earliestBank = maxTick;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const Bank &b = banks[bankIndex(queue[i].pkt.addr)];
            if (b.readyAt > now) {
                earliestBank = std::min(earliestBank, b.readyAt);
                continue;
            }
            if (b.rowOpen &&
                b.openRow == rowIndex(queue[i].pkt.addr)) {
                pick = i;
                foundHit = true;
                break;
            }
            if (pick == queue.size())
                pick = i;
        }
        (void)foundHit;
        if (pick == queue.size()) {
            // Every bank with pending work is busy.
            if (earliestBank != maxTick)
                kick(earliestBank);
            return;
        }

        Request req = queue[pick];
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(pick));

        Bank &bank = banks[bankIndex(req.pkt.addr)];
        statQueueTicks += static_cast<double>(now - req.arrival);

        Tick latency = params.tCtrl;
        const char *service = "service";
        if (!params.perfect) {
            bool hit = bank.rowOpen &&
                       bank.openRow == rowIndex(req.pkt.addr);
            if (hit) {
                ++statRowHits;
                latency += params.tCas;
            } else {
                ++statRowMisses;
                latency += (bank.rowOpen ? params.tRp : 0) +
                           params.tRcd + params.tCas;
            }
            service = hit ? "rowHit" : "rowMiss";
            latency += divCeil(req.pkt.size, 32) * params.tBurst32;
            bank.rowOpen = true;
            bank.openRow = rowIndex(req.pkt.addr);
            bank.readyAt = now + latency;
        }
        nextIssueAt = now + params.tIssue;

        if (Tracer *t = tracerFor(eventq, TraceCategory::Dram)) {
            t->complete(TraceCategory::Dram, name(), service, now,
                        now + latency);
        }
        eventq.scheduleFlowRawIn(latency, [](void *c, std::uint64_t slot) {
            auto *self = static_cast<DramCtrl *>(c);
            self->finish(self->inService.take(slot));
        }, this, inService.put(req.pkt), "dram.finish");
    }
}

void
DramCtrl::finish(const Packet &pkt)
{
    bool isRead = pkt.cmd == MemCmd::ReadShared ||
                  pkt.cmd == MemCmd::ReadExclusive;

    // Fault site: the read completes with an uncorrectable error —
    // full access latency was paid, but the requester gets an
    // ErrorResp instead of data and must reissue.
    if (isRead) {
        if (FaultInjector *fi = eventq.faultInjector();
            fi && fi->shouldFault(FaultSite::DramRead)) {
            ++statReadErrors;
            bus.sendResponse(pkt.makeError());
            trySchedule();
            return;
        }
    }

    if (isRead)
        ++statReads;
    else
        ++statWrites;

    // Writes are acknowledged too: a cache holds each writeback until
    // its WriteResp arrives, and reissues it if that comes back as an
    // error.
    bus.sendResponse(pkt.makeResponse());

    trySchedule();
}

} // namespace genie
