#include "cache.hh"

#include "fault/fault_injector.hh"
#include "mem/prefetcher.hh"
#include "sim/logging.hh"

namespace genie
{

Cache::Cache(std::string name, EventQueue &eq, ClockDomain domain,
             SystemBus &bus_, Params p)
    : SimObject(std::move(name)), Clocked(eq, domain), params(p),
      bus(bus_),
      statHits(stats().add("hits", "demand hits")),
      statMisses(stats().add("misses", "demand misses")),
      statReads(stats().add("reads", "demand read accesses")),
      statWrites(stats().add("writes", "demand write accesses")),
      statEvictions(stats().add("evictions", "lines evicted")),
      statWritebacks(stats().add("writebacks", "dirty lines written back")),
      statUpgrades(stats().add("upgrades", "S/O -> M upgrade requests")),
      statMshrCoalesced(stats().add("mshrCoalesced",
                                    "misses merged into an existing MSHR")),
      statPrefetches(stats().add("prefetches", "prefetch requests issued")),
      statPrefetchHits(stats().add("prefetchHits",
                                   "demand hits on prefetched lines")),
      statSnoopsServiced(stats().add("snoopsServiced",
                                     "snoops answered with data")),
      statSnoopInvalidations(stats().add("snoopInvalidations",
                                         "lines invalidated by snoops")),
      statTagAccesses(stats().add("tagAccesses", "tag array accesses")),
      statDataAccesses(stats().add("dataAccesses", "data array accesses")),
      statErrors(stats().add("errors",
                             "error responses received")),
      statRetries(stats().add("retries",
                              "requests reissued after an error")),
      statRetryExhausted(stats().add(
          "retryExhausted",
          "requests abandoned after exhausting retries")),
      statMissLatency(stats().addDistribution(
          "missLatency", "demand miss lifetime (ns)", 0.0, 1000.0, 20))
{
    if (!isPowerOf2(params.lineBytes))
        fatal("cache line size must be a power of two");
    if (params.sizeBytes % (params.lineBytes * params.assoc) != 0)
        fatal("cache size must be divisible by line size * assoc");
    const Addr numSets = params.sizeBytes / (params.lineBytes * params.assoc);
    if (!isPowerOf2(numSets))
        fatal("cache set count must be a power of two");
    lines.assign(numSets * params.assoc, Line{});
    lineShift = floorLog2(params.lineBytes);
    setMask = numSets - 1;
    busPort = bus.attachClient(this, /*snooper=*/true);
    eq.registerStats(stats());
    if (params.prefetchEnabled) {
        prefetcher = std::make_unique<StridePrefetcher>(
            *this, params.prefetchDegree);
    }
}

Cache::~Cache() = default;

Cache::Line *
Cache::setOf(Addr line_addr)
{
    return &lines[((line_addr >> lineShift) & setMask) * params.assoc];
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    Line *set = setOf(line_addr);
    for (Line *line = set; line != set + params.assoc; ++line) {
        if (stateValid(line->state) && line->tag == line_addr)
            return line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

void
Cache::touch(Line &line)
{
    line.lastUse = ++useCounter;
}

void
Cache::transition(Line &line, CoherenceState to, CoherenceEvent ev)
{
    GENIE_ASSERT(moesiEdgeLegal(line.state, to, ev),
                 "%s: illegal MOESI transition %s -> %s on %s",
                 name().c_str(), toString(line.state), toString(to),
                 toString(ev));
    line.state = to;
}

bool
Cache::portAvailable() const
{
    Cycles now = curCycle();
    if (now != portCycleStamp)
        return params.ports > 0;
    return portsUsedThisCycle < params.ports;
}

Cache::AccessOutcome
Cache::access(Addr addr, unsigned size, bool isWrite,
              std::uint64_t reqId, int streamId)
{
    GENIE_ASSERT(size <= params.lineBytes &&
                     lineAddr(addr) == lineAddr(addr + size - 1),
                 "access crosses a line boundary");

    Cycles now = curCycle();
    if (now != portCycleStamp) {
        portCycleStamp = now;
        portsUsedThisCycle = 0;
    }
    if (portsUsedThisCycle >= params.ports)
        return {Reject::Ports, false};

    Addr la = lineAddr(addr);
    ++statTagAccesses;

    if (params.perfect) {
        ++portsUsedThisCycle;
        ++statDataAccesses;
        if (isWrite) ++statWrites; else ++statReads;
        ++statHits;
        scheduleCyclesRaw(params.hitLatency, &Cache::respondHit, this,
                          reqId, "cache.hit");
        return {Reject::None, true};
    }

    Line *line = findLine(la);
    bool hit = line != nullptr &&
               (!isWrite || stateWritable(line->state));

    // A line with a pending MSHR is not yet present; route through the
    // MSHR as a coalesced target.
    if (line && line->hasPendingMshr)
        hit = false;

    if (hit) {
        ++portsUsedThisCycle;
        ++statDataAccesses;
        ++statHits;
        if (line->wasPrefetched) {
            ++statPrefetchHits;
            line->wasPrefetched = false;
        }
        if (isWrite) {
            ++statWrites;
            transition(*line, CoherenceState::Modified,
                       CoherenceEvent::StoreHit);
        } else {
            ++statReads;
        }
        touch(*line);
        if (prefetcher)
            prefetcher->notify(streamId, addr);
        scheduleCyclesRaw(params.hitLatency, &Cache::respondHit, this,
                          reqId, "cache.hit");
        return {Reject::None, true};
    }

    // Miss (or write to a non-writable line -> upgrade).
    if (!handleMiss(la, isWrite, reqId, /*isPrefetch=*/false))
        return {Reject::Mshrs, false};

    ++portsUsedThisCycle;
    ++statMisses;
    if (isWrite) ++statWrites; else ++statReads;
    if (prefetcher)
        prefetcher->notify(streamId, addr);
    return {Reject::None, false};
}

bool
Cache::handleMiss(Addr line_addr, bool isWrite, std::uint64_t reqId,
                  bool isPrefetch)
{
    if (Mshr *mshr = mshrForLine(line_addr)) {
        // Coalesce into the existing MSHR.
        if (!isPrefetch) {
            mshr->targets.push_back(reqId);
            mshr->wantExclusive = mshr->wantExclusive || isWrite;
            mshr->isPrefetch = false;
            ++statMshrCoalesced;
        }
        return true;
    }

    if (liveMshrs >= params.mshrs)
        return false;

    // Reuse a free slot (reqId 0), or grow the file by one: at most
    // params.mshrs slots ever exist.
    Mshr *spare = findMshr(0);
    Mshr &mshr = spare ? *spare : mshrs.emplace_back();
    mshr.lineAddr = line_addr;
    mshr.wantExclusive = isWrite;
    mshr.isUpgrade = false;
    mshr.isPrefetch = isPrefetch;
    mshr.targets.clear();
    if (!isPrefetch)
        mshr.targets.push_back(reqId);
    mshr.retries = 0;
    mshr.traceSpan = invalidTraceSpan;

    // A write to a line we already hold in S or O needs only an
    // ownership upgrade, not a data fetch.
    Line *line = findLine(line_addr);
    if (line && !line->hasPendingMshr && isWrite &&
        stateValid(line->state) && !stateWritable(line->state)) {
        mshr.isUpgrade = true;
        line->hasPendingMshr = true;
        ++statUpgrades;
    }

    mshr.issueTick = eventq.curTick();
    if (Tracer *t = tracerFor(eventq, TraceCategory::Cache)) {
        const char *what = mshr.isPrefetch ? "prefetch"
                           : mshr.isUpgrade ? "upgrade"
                                            : "miss";
        mshr.traceSpan = t->begin(TraceCategory::Cache, name(), what);
    }

    mshr.reqId = nextBusReqId++;
    ++liveMshrs;
    issueMshr(mshr);
    return true;
}

Cache::Mshr *
Cache::findMshr(std::uint64_t reqId)
{
    for (Mshr &m : mshrs) {
        if (m.reqId == reqId)
            return &m;
    }
    return nullptr;
}

Cache::Mshr *
Cache::mshrForLine(Addr line_addr)
{
    for (Mshr &m : mshrs) {
        if (m.reqId != 0 && m.lineAddr == line_addr)
            return &m;
    }
    return nullptr;
}

void
Cache::issueMshr(const Mshr &mshr)
{
    Packet pkt;
    pkt.addr = mshr.lineAddr;
    pkt.size = params.lineBytes;
    pkt.reqId = mshr.reqId;
    pkt.isPrefetch = mshr.isPrefetch;
    if (mshr.isUpgrade)
        pkt.cmd = MemCmd::Upgrade;
    else if (mshr.wantExclusive)
        pkt.cmd = MemCmd::ReadExclusive;
    else
        pkt.cmd = MemCmd::ReadShared;
    bus.sendRequest(busPort, pkt);
}

Cache::Line &
Cache::allocateLine(Addr line_addr)
{
    Line *set = setOf(line_addr);
    Line *victim = nullptr;
    for (Line *line = set; line != set + params.assoc; ++line) {
        if (!stateValid(line->state) && !line->hasPendingMshr)
            return *line;
        if (line->hasPendingMshr)
            continue; // never evict a line with an MSHR in flight
        if (!victim || line->lastUse < victim->lastUse)
            victim = line;
    }
    GENIE_ASSERT(victim != nullptr, "no evictable way in set");
    evict(*victim, victim->tag);
    return *victim;
}

void
Cache::evict(Line &line, Addr line_addr)
{
    ++statEvictions;
    if (stateDirty(line.state)) {
        ++statWritebacks;
        Packet pkt;
        pkt.cmd = MemCmd::Writeback;
        pkt.addr = line_addr;
        pkt.size = params.lineBytes;
        pkt.reqId = nextBusReqId++;
        writebacks.push_back({pkt.reqId, 0});
        bus.sendRequest(busPort, pkt);
    }
    transition(line, CoherenceState::Invalid, CoherenceEvent::Evict);
}

void
Cache::recvResponse(const Packet &pkt)
{
    if (pkt.isError()) {
        handleErrorResponse(pkt);
        return;
    }

    Mshr *found = findMshr(pkt.reqId);
    if (!found) {
        // Writeback acknowledgment.
        GENIE_ASSERT(pkt.cmd == MemCmd::WriteResp,
                     "unexpected response with no MSHR");
        takeWriteback(pkt.reqId);
        return;
    }
    // Nothing below re-enters the MSHR file, so the slot stays put
    // until it is freed at the end.
    Mshr &mshr = *found;

    if (Tracer *t = eventq.tracer())
        t->end(mshr.traceSpan);
    if (!mshr.isPrefetch) {
        statMissLatency.sample(
            static_cast<double>(eventq.curTick() - mshr.issueTick) /
            static_cast<double>(tickPerNs));
    }

    Line *line = nullptr;
    if (mshr.isUpgrade) {
        line = findLine(mshr.lineAddr);
        GENIE_ASSERT(line != nullptr, "upgrade response for absent line");
        line->hasPendingMshr = false;
        transition(*line, CoherenceState::Modified,
                   CoherenceEvent::UpgradeDone);
    } else {
        Line &l = allocateLine(mshr.lineAddr);
        l.tag = mshr.lineAddr;
        l.hasPendingMshr = false;
        l.wasPrefetched = mshr.isPrefetch;
        if (mshr.wantExclusive) {
            transition(l, CoherenceState::Modified,
                       CoherenceEvent::FillModified);
        } else if (pkt.cacheToCache) {
            // Supplied by an owner: we get a shared, clean copy; the
            // owner retains responsibility for the dirty data (O).
            transition(l, CoherenceState::Shared,
                       CoherenceEvent::FillShared);
        } else if (pkt.sharerPresent) {
            transition(l, CoherenceState::Shared,
                       CoherenceEvent::FillShared);
        } else {
            transition(l, CoherenceState::Exclusive,
                       CoherenceEvent::FillExclusive);
        }
        line = &l;
        ++statDataAccesses; // line fill writes the data array
    }
    touch(*line);

    for (std::uint64_t target : mshr.targets) {
        scheduleCyclesRaw(params.responseLatency, &Cache::respondFill,
                          this, target, "cache.fillResponse");
    }
    freeMshr(mshr);
}

void
Cache::freeMshr(Mshr &mshr)
{
    mshr.reqId = 0;
    --liveMshrs;
}

unsigned
Cache::takeWriteback(std::uint64_t reqId)
{
    for (Writeback &wb : writebacks) {
        if (wb.reqId == reqId) {
            const unsigned retries = wb.retries;
            wb = writebacks.back();
            writebacks.pop_back();
            return retries;
        }
    }
    panic("%s: response for unknown reqId %llu", name().c_str(),
          (unsigned long long)reqId);
}

void
Cache::handleErrorResponse(const Packet &pkt)
{
    ++statErrors;
    const unsigned maxRetries = faultMaxRetries(eventq);

    Mshr *found = findMshr(pkt.reqId);
    if (!found) {
        // A failed writeback: the dirty data must still reach memory,
        // so reissue under the same bounded backoff as misses.
        const unsigned attempt = takeWriteback(pkt.reqId);
        if (attempt >= maxRetries) {
            ++statRetryExhausted;
            fatal("%s: writeback of line %#llx still failing after "
                  "%u retries — memory is unreachable; lower the "
                  "fault rate or raise fault_max_retries=",
                  name().c_str(), (unsigned long long)pkt.addr,
                  attempt);
        }
        ++statRetries;
        const Addr addr = pkt.addr;
        const unsigned size = pkt.size;
        const std::uint64_t newId = nextBusReqId++;
        writebacks.push_back({newId, attempt + 1});
        scheduleCycles(
            static_cast<Cycles>(faultBackoffCycles(eventq, attempt)),
            [this, addr, size, newId] {
                Packet wb;
                wb.cmd = MemCmd::Writeback;
                wb.addr = addr;
                wb.size = size;
                wb.reqId = newId;
                bus.sendRequest(busPort, wb);
            },
            "cache.retryWriteback");
        return;
    }

    Mshr &mshr = *found;
    if (mshr.isPrefetch && mshr.targets.empty()) {
        // A failed prefetch is just a dropped hint; no reissue.
        if (Tracer *t = eventq.tracer())
            t->end(mshr.traceSpan);
        freeMshr(mshr);
        return;
    }

    if (mshr.retries >= maxRetries) {
        ++statRetryExhausted;
        fatal("%s: miss for line %#llx still failing after %u "
              "retries — memory is unreachable; lower the fault rate "
              "or raise fault_max_retries=",
              name().c_str(), (unsigned long long)mshr.lineAddr,
              mshr.retries);
    }

    // Reissue under a fresh reqId after bounded exponential backoff.
    // The MSHR keeps its slot (and its coalesced targets) during the
    // backoff window, so new accesses to the line keep merging into
    // it; no response can arrive for the new id until issueMshr runs.
    const unsigned attempt = mshr.retries++;
    ++statRetries;
    const std::uint64_t newId = nextBusReqId++;
    mshr.reqId = newId;
    scheduleCycles(
        static_cast<Cycles>(faultBackoffCycles(eventq, attempt)),
        [this, newId] {
            const Mshr *retried = findMshr(newId);
            GENIE_ASSERT(retried != nullptr,
                         "retried MSHR %llu vanished during backoff",
                         (unsigned long long)newId);
            issueMshr(*retried);
        },
        "cache.retryMiss");
}

void
Cache::respondHit(void *self, std::uint64_t reqId)
{
    static_cast<Cache *>(self)->callback(reqId, true);
}

void
Cache::respondFill(void *self, std::uint64_t reqId)
{
    auto *cache = static_cast<Cache *>(self);
    ++cache->statDataAccesses;
    cache->callback(reqId, false);
}

SnoopResult
Cache::recvSnoop(const Packet &pkt)
{
    SnoopResult result;
    Line *line = findLine(lineAddr(pkt.addr));
    if (!line || line->hasPendingMshr)
        return result;

    ++statTagAccesses;
    result.sharerPresent = true;

    switch (pkt.cmd) {
      case MemCmd::ReadShared:
        if (stateDirty(line->state)) {
            // M/O owner supplies the data and (re)enters Owned.
            result.ownerSupplies = true;
            result.supplyLatency = cyclesToTicks(params.hitLatency);
            ++statSnoopsServiced;
            ++statDataAccesses;
            transition(*line, CoherenceState::Owned,
                       CoherenceEvent::SnoopShared);
        } else if (line->state == CoherenceState::Exclusive) {
            transition(*line, CoherenceState::Shared,
                       CoherenceEvent::SnoopShared);
        }
        break;
      case MemCmd::ReadExclusive:
        if (stateDirty(line->state)) {
            result.ownerSupplies = true;
            result.supplyLatency = cyclesToTicks(params.hitLatency);
            ++statSnoopsServiced;
            ++statDataAccesses;
        }
        transition(*line, CoherenceState::Invalid,
                   CoherenceEvent::SnoopExclusive);
        ++statSnoopInvalidations;
        break;
      case MemCmd::Upgrade:
        transition(*line, CoherenceState::Invalid,
                   CoherenceEvent::SnoopUpgrade);
        ++statSnoopInvalidations;
        break;
      case MemCmd::WriteInvalidate:
        // A one-way-coherent (ACP) write replaces the whole target
        // region: drop our copy — dirty or clean — without supplying
        // data, so the writer's payload is the only copy left.
        transition(*line, CoherenceState::Invalid,
                   CoherenceEvent::SnoopWriteInv);
        ++statSnoopInvalidations;
        break;
      default:
        break;
    }
    return result;
}

void
Cache::prefill(Addr base, std::uint64_t len, bool dirty)
{
    // Functional state setup only (models data the CPU produced before
    // the offload window): victims are silently dropped so no bus
    // traffic predates the measured run.
    for (Addr a = alignDown(base, params.lineBytes); a < base + len;
         a += params.lineBytes) {
        Line *line = findLine(a);
        if (!line) {
            Line *set = setOf(a);
            Line *victim = set;
            for (Line *cand = set; cand != set + params.assoc; ++cand) {
                if (!stateValid(cand->state)) {
                    victim = cand;
                    break;
                }
                if (cand->lastUse < victim->lastUse)
                    victim = cand;
            }
            victim->tag = a;
            victim->hasPendingMshr = false;
            victim->wasPrefetched = false;
            line = victim;
        }
        transition(*line,
                   dirty ? CoherenceState::Modified
                         : CoherenceState::Exclusive,
                   CoherenceEvent::Prefill);
        touch(*line);
    }
}

unsigned
Cache::flushRange(Addr base, std::uint64_t len)
{
    unsigned dirty = 0;
    for (Addr a = alignDown(base, params.lineBytes); a < base + len;
         a += params.lineBytes) {
        Line *line = findLine(a);
        if (!line)
            continue;
        if (stateDirty(line->state)) {
            ++dirty;
            ++statWritebacks;
        }
        transition(*line, CoherenceState::Invalid,
                   CoherenceEvent::Flush);
    }
    return dirty;
}

unsigned
Cache::invalidateRange(Addr base, std::uint64_t len)
{
    unsigned count = 0;
    for (Addr a = alignDown(base, params.lineBytes); a < base + len;
         a += params.lineBytes) {
        Line *line = findLine(a);
        if (!line)
            continue;
        transition(*line, CoherenceState::Invalid,
                   CoherenceEvent::Invalidate);
        ++count;
    }
    return count;
}

CoherenceState
Cache::lineState(Addr addr) const
{
    const Line *line = findLine(lineAddr(addr));
    return line ? line->state : CoherenceState::Invalid;
}

bool
Cache::hasOutstanding() const
{
    return liveMshrs != 0 || !writebacks.empty();
}

double
Cache::missRate() const
{
    double total = statHits.value() + statMisses.value();
    return total > 0 ? statMisses.value() / total : 0.0;
}

void
Cache::tryPrefetch(Addr line_addr)
{
    if (params.perfect)
        return;
    Line *line = findLine(line_addr);
    if (line)
        return; // already present
    if (mshrForLine(line_addr))
        return; // already being fetched
    // Throttle: keep a reserve of MSHRs for demand misses so
    // prefetch streams never starve the datapath.
    constexpr unsigned demandReserve = 4;
    if (liveMshrs + demandReserve >= params.mshrs)
        return;
    ++statPrefetches;
    handleMiss(line_addr, /*isWrite=*/false, /*reqId=*/0,
               /*isPrefetch=*/true);
}

} // namespace genie
