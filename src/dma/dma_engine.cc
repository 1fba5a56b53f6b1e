#include "dma_engine.hh"

#include "fault/fault_injector.hh"
#include "sim/logging.hh"

namespace genie
{

namespace
{

/** Register @p name in @p group only when @p on. */
Stat *
statIf(bool on, StatGroup &group, const char *name, const char *desc)
{
    return on ? &group.add(name, desc) : nullptr;
}

} // namespace

DmaEngine::DmaEngine(std::string name, EventQueue &eq, ClockDomain domain,
                     SystemBus &bus_, Params p)
    : SimObject(std::move(name)), Clocked(eq, domain), params(p),
      bus(bus_),
      category(p.coherent ? TraceCategory::Iface : TraceCategory::Dma),
      loadSpan(p.coherent ? "acpLoad" : "load"),
      storeSpan(p.coherent ? "acpStore" : "store"),
      setupSpan(p.coherent ? nullptr : "setup"),
      setupKind(p.coherent ? "iface.acpSetup" : "dma.setup"),
      retryKind(p.coherent ? "iface.acpRetry" : "dma.retryBeat"),
      // Coherent stores snoop-invalidate every cached copy; plain
      // WriteReq leaves coherence to the software flush.
      storeCmd(p.coherent ? MemCmd::WriteInvalidate : MemCmd::WriteReq),
      beatFault(p.coherent ? FaultSite::AcpSnoop : FaultSite::DmaBeat),
      statTransactions(stats().add(
          "transactions", p.coherent ? "ACP bursts serviced"
                                     : "DMA transactions serviced")),
      statSegments(statIf(!p.coherent, stats(), "segments",
                          "descriptors serviced")),
      statBeats(stats().add("beats", p.coherent ? "coherent beats issued"
                                                : "bus beats issued")),
      statBytes(stats().add("bytes", "payload bytes transferred")),
      statDescriptorFetches(statIf(!p.coherent, stats(),
                                   "descriptorFetches",
                                   "descriptor fetch reads")),
      statSnoopHits(statIf(p.coherent, stats(), "snoopHits",
                           "load beats supplied cache-to-cache by a "
                           "snooped dirty CPU line")),
      statMemFills(statIf(p.coherent, stats(), "memFills",
                          "load beats that missed every cache and "
                          "filled from DRAM")),
      statWriteInvalidations(statIf(
          p.coherent, stats(), "writeInvalidations",
          "store beats that invalidated a cached copy")),
      statErrors(stats().add("errors", "beats observed failed")),
      statRetries(stats().add("retries",
                              "beats reissued after an error")),
      statRetryExhausted(stats().add(
          "retryExhausted",
          "transactions failed after exhausting retries"))
{
    if (params.beatBytes == 0 || params.maxOutstanding == 0)
        fatal("%s: beat size and window must be non-zero",
              this->name().c_str());
    // Even coherent, the engine only snoops others through its
    // requests and owns no cache, so it attaches as a non-snooped
    // client.
    busPort = bus.attachClient(this, /*snooper=*/false);
    eq.registerStats(stats());
}

void
DmaEngine::startTransaction(Direction dir, std::vector<Segment> segments,
                            BeatCallback onBeat, DoneCallback onDone)
{
    // Drop empty segments up front.
    std::vector<Segment> live;
    for (auto &s : segments) {
        if (s.len > 0)
            live.push_back(s);
    }
    pending.push_back({dir, std::move(live), std::move(onBeat),
                       std::move(onDone)});
    if (!active)
        startNext();
}

void
DmaEngine::startNext()
{
    GENIE_ASSERT(!active, "startNext while a transaction is active");
    if (pending.empty())
        return;
    active = true;
    current = std::move(pending.front());
    pending.pop_front();
    segIndex = 0;
    txnFailed = false;
    txnStart = eventq.curTick();
    ++statTransactions;

    if (Tracer *t = tracerFor(eventq, category)) {
        txnSpan = t->begin(category, name(),
                           current.dir == Direction::MemToAccel
                               ? loadSpan
                               : storeSpan);
        // The setup window's end tick is known analytically.
        if (setupSpan)
            t->complete(category, name(), setupSpan, txnStart,
                        clockEdge(params.setupCycles));
    }

    // Fixed setup: descriptor metadata and CPU initiation, or a
    // coherent burst's doorbell write.
    scheduleCycles(params.setupCycles, [this] {
        if (current.segments.empty())
            finishTransaction();
        else
            beginSegment();
    }, setupKind);
}

void
DmaEngine::beginSegment()
{
    segIssued = 0;
    segCompleted = 0;

    if (Tracer *t = tracerFor(eventq, category))
        chunkSpan = t->begin(category, name(), "chunk");

    if (params.coherent) {
        pump();
        return;
    }

    // The descriptor itself is fetched from main memory.
    ++*statSegments;
    ++*statDescriptorFetches;
    if (Tracer *t = tracerFor(eventq, category))
        descSpan = t->begin(category, name(), "descriptor");
    ++outstanding;
    send(BeatInfo{0, 0, 0, /*isDescriptor=*/true,
                  current.segments[segIndex].busAddr, 0});
}

void
DmaEngine::send(const BeatInfo &info)
{
    std::uint64_t id = nextReqId++;
    inFlight.emplace(id, info);
    Packet pkt;
    pkt.addr = info.busAddr;
    pkt.size = info.isDescriptor ? 16 : info.len;
    pkt.reqId = id;
    pkt.cmd = (info.isDescriptor ||
               current.dir == Direction::MemToAccel)
                  ? MemCmd::ReadShared
                  : storeCmd;
    bus.sendRequest(busPort, pkt);
}

void
DmaEngine::pump()
{
    if (txnFailed)
        return;
    const Segment &seg = current.segments[segIndex];
    while (outstanding < params.maxOutstanding && segIssued < seg.len) {
        auto len = static_cast<unsigned>(std::min<std::uint64_t>(
            params.beatBytes, seg.len - segIssued));
        ++outstanding;
        ++statBeats;
        send(BeatInfo{seg.arrayId, seg.arrayOffset + segIssued, len,
                      /*isDescriptor=*/false, seg.busAddr + segIssued,
                      0});
        segIssued += len;
    }
}

void
DmaEngine::recvResponse(const Packet &pkt)
{
    auto it = inFlight.find(pkt.reqId);
    GENIE_ASSERT(it != inFlight.end(), "%s: response with unknown reqId",
                 name().c_str());
    BeatInfo info = it->second;
    inFlight.erase(it);
    GENIE_ASSERT(outstanding > 0, "%s: outstanding underflow",
                 name().c_str());

    // A beat fails if the memory system answered with an error, or if
    // the engine-boundary fault site corrupts an otherwise-good beat.
    bool failed = pkt.isError();
    if (!failed && !info.isDescriptor) {
        if (FaultInjector *fi = eventq.faultInjector();
            fi && fi->shouldFault(beatFault))
            failed = true;
    }

    if (txnFailed) {
        // Already abandoning this transaction: just drain the window.
        --outstanding;
        maybeAbort();
        return;
    }

    if (failed) {
        ++statErrors;
        if (info.retries >= faultMaxRetries(eventq)) {
            ++statRetryExhausted;
            warn("%s: %s at bus addr %#llx still failing after %u "
                 "retries; failing the transaction",
                 name().c_str(),
                 info.isDescriptor ? "descriptor fetch" : "beat",
                 (unsigned long long)info.busAddr, info.retries);
            txnFailed = true;
            --outstanding;
            maybeAbort();
            return;
        }
        // Reissue after bounded exponential backoff. The beat keeps
        // its window slot through the backoff, so a burst of errors
        // cannot over-subscribe the bus.
        unsigned attempt = info.retries++;
        ++statRetries;
        scheduleCycles(
            static_cast<Cycles>(faultBackoffCycles(eventq, attempt)),
            [this, info] { reissue(info); }, retryKind);
        return;
    }

    --outstanding;

    if (info.isDescriptor) {
        if (Tracer *t = eventq.tracer()) {
            t->end(descSpan);
            descSpan = invalidTraceSpan;
        }
        pump();
        return;
    }

    if (params.coherent) {
        if (current.dir == Direction::MemToAccel)
            ++*(pkt.cacheToCache ? statSnoopHits : statMemFills);
        else if (pkt.sharerPresent)
            ++*statWriteInvalidations;
    }

    segCompleted += info.len;
    statBytes += info.len;
    if (current.onBeat)
        current.onBeat(info.arrayId, info.arrayOffset, info.len);

    const Segment &seg = current.segments[segIndex];
    if (segCompleted == seg.len)
        finishSegment();
    else
        pump();
}

void
DmaEngine::finishSegment()
{
    if (Tracer *t = eventq.tracer()) {
        t->end(chunkSpan);
        chunkSpan = invalidTraceSpan;
    }
    ++segIndex;
    if (segIndex < current.segments.size())
        beginSegment();
    else
        finishTransaction();
}

void
DmaEngine::reissue(BeatInfo info)
{
    if (txnFailed) {
        // The transaction died while this beat waited out its
        // backoff; release the window slot instead of re-sending.
        GENIE_ASSERT(outstanding > 0, "%s: outstanding underflow",
                     name().c_str());
        --outstanding;
        maybeAbort();
        return;
    }
    send(info);
}

void
DmaEngine::maybeAbort()
{
    GENIE_ASSERT(txnFailed, "maybeAbort on a healthy transaction");
    if (outstanding > 0 || !inFlight.empty())
        return;
    // Close any open spans before abandoning the transaction.
    if (Tracer *t = eventq.tracer()) {
        if (descSpan != invalidTraceSpan) {
            t->end(descSpan);
            descSpan = invalidTraceSpan;
        }
        if (chunkSpan != invalidTraceSpan) {
            t->end(chunkSpan);
            chunkSpan = invalidTraceSpan;
        }
    }
    finishTransaction(/*ok=*/false);
}

void
DmaEngine::finishTransaction(bool ok)
{
    if (Tracer *t = eventq.tracer()) {
        t->end(txnSpan);
        txnSpan = invalidTraceSpan;
    }
    busy.add(txnStart, eventq.curTick());
    active = false;
    DoneCallback done = std::move(current.onDone);
    current = Transaction{};
    if (done)
        done(ok);
    // The done callback may itself have enqueued and started the next
    // transaction (startTransaction services an idle engine
    // immediately), so only kick the queue if it did not.
    if (!active)
        startNext();
}

} // namespace genie
