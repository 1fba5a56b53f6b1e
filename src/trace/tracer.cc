#include "tracer.hh"

#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace genie
{

namespace
{

/** Category name table, indexed by TraceCategory. */
constexpr const char *categoryNames[numTraceCategories] = {
    "flush", "dma", "bus", "cache", "dram", "datapath", "tlb", "spad",
    "iface",
};

/**
 * Render a picosecond tick count as a microsecond value with exact
 * six-digit decimals. Pure integer arithmetic keeps the JSON
 * byte-identical across runs, platforms, and libm versions.
 */
std::string
ticksToMicros(Tick ticks)
{
    return format("%llu.%06llu",
                  static_cast<unsigned long long>(ticks / 1000000),
                  static_cast<unsigned long long>(ticks % 1000000));
}

} // namespace

const char *
traceCategoryName(TraceCategory c)
{
    auto idx = static_cast<std::size_t>(c);
    GENIE_ASSERT(idx < numTraceCategories, "bad trace category %zu",
                 idx);
    return categoryNames[idx];
}

TraceCategoryMask
parseTraceCategories(const std::string &csv)
{
    if (csv.empty() || csv == "all")
        return allTraceCategories;
    TraceCategoryMask mask = 0;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        bool known = false;
        for (std::size_t i = 0; i < numTraceCategories; ++i) {
            if (item == categoryNames[i]) {
                mask |= traceCategoryBit(static_cast<TraceCategory>(i));
                known = true;
                break;
            }
        }
        if (!known)
            fatal("unknown trace category '%s' (expected one of "
                  "flush,dma,bus,cache,dram,datapath,tlb,spad,iface "
                  "or "
                  "'all')",
                  item.c_str());
    }
    return mask;
}

std::string
traceCategoriesToString(TraceCategoryMask mask)
{
    if (mask == allTraceCategories)
        return "all";
    std::string out;
    for (std::size_t i = 0; i < numTraceCategories; ++i) {
        if ((mask & traceCategoryBit(static_cast<TraceCategory>(i))) ==
            0)
            continue;
        if (!out.empty())
            out += ',';
        out += categoryNames[i];
    }
    return out;
}

Tracer::Tracer(const EventQueue &eq, TraceCategoryMask m)
    : eventq(eq), mask(m)
{
    // Index 0 of the string pool is reserved so that interned indices
    // are never confused with "unset".
    strings.emplace_back("");
}

void
Tracer::noteSpanRecorded(TraceSpanId id)
{
    // First span recorded in a flow-scheduled event closes the causal
    // edge back to the span that scheduled it; later spans in the
    // same event chain off the cursor of whoever schedules next.
    std::uint64_t origin = eventq.pendingFlowOrigin();
    if (origin != 0 && origin != id) {
        flows.push_back({origin, id});
        eventq.consumeFlowOrigin();
    }
    eventq.setFlowCursor(id);
}

std::uint32_t
Tracer::intern(std::string_view s)
{
    auto it = stringIndex.find(std::string(s));
    if (it != stringIndex.end())
        return it->second;
    auto idx = static_cast<std::uint32_t>(strings.size());
    strings.emplace_back(s);
    stringIndex.emplace(strings.back(), idx);
    return idx;
}

TraceSpanId
Tracer::begin(TraceCategory c, std::string_view track,
              std::string_view name)
{
    if (!wants(c))
        return invalidTraceSpan;
    Record r;
    r.begin = eventq.curTick();
    r.end = r.begin;
    r.track = intern(track);
    r.name = intern(name);
    r.cat = c;
    r.kind = Kind::Span;
    r.open = true;
    records.push_back(r);
    ++openCount;
    // Ids are 1-based record indices so 0 stays the invalid handle.
    auto id = static_cast<TraceSpanId>(records.size());
    noteSpanRecorded(id);
    return id;
}

void
Tracer::end(TraceSpanId id)
{
    if (id == invalidTraceSpan)
        return;
    GENIE_ASSERT(id <= records.size(), "bad trace span id %llu",
                 static_cast<unsigned long long>(id));
    Record &r = records[static_cast<std::size_t>(id - 1)];
    GENIE_ASSERT(r.open, "trace span %llu ended twice",
                 static_cast<unsigned long long>(id));
    Tick now = eventq.curTick();
    GENIE_ASSERT(now >= r.begin, "trace span ends before it begins");
    r.end = now;
    r.open = false;
    GENIE_ASSERT(openCount > 0, "open-span accounting underflow");
    --openCount;
}

void
Tracer::complete(TraceCategory c, std::string_view track,
                 std::string_view name, Tick beginTick, Tick endTick)
{
    if (!wants(c))
        return;
    GENIE_ASSERT(endTick >= beginTick,
                 "trace span ends before it begins");
    Record r;
    r.begin = beginTick;
    r.end = endTick;
    r.track = intern(track);
    r.name = intern(name);
    r.cat = c;
    r.kind = Kind::Span;
    r.open = false;
    records.push_back(r);
    noteSpanRecorded(static_cast<TraceSpanId>(records.size()));
}

void
Tracer::instant(TraceCategory c, std::string_view track,
                std::string_view name)
{
    if (!wants(c))
        return;
    Record r;
    r.begin = eventq.curTick();
    r.end = r.begin;
    r.track = intern(track);
    r.name = intern(name);
    r.cat = c;
    r.kind = Kind::Instant;
    r.open = false;
    records.push_back(r);
}

IntervalSet
Tracer::spans(TraceCategory c) const
{
    IntervalSet set;
    for (const Record &r : records) {
        if (r.cat != c || r.kind != Kind::Span || r.open)
            continue;
        if (r.end > r.begin)
            set.add(r.begin, r.end);
    }
    return set;
}

IntervalSet
Tracer::spans(TraceCategory c, std::string_view name) const
{
    IntervalSet set;
    for (const Record &r : records) {
        if (r.cat != c || r.kind != Kind::Span || r.open)
            continue;
        if (strings[r.name] != name)
            continue;
        if (r.end > r.begin)
            set.add(r.begin, r.end);
    }
    return set;
}

TraceDurations
Tracer::durations(TraceCategory c) const
{
    TraceDurations d;
    for (const Record &r : records) {
        if (r.cat != c || r.kind != Kind::Span || r.open)
            continue;
        Tick len = r.end - r.begin;
        if (d.count == 0) {
            d.minTicks = len;
            d.maxTicks = len;
        } else {
            d.minTicks = std::min(d.minTicks, len);
            d.maxTicks = std::max(d.maxTicks, len);
        }
        d.totalTicks += len;
        ++d.count;
    }
    return d;
}

TraceDurations
Tracer::durations(TraceCategory c, std::string_view name) const
{
    TraceDurations d;
    for (const Record &r : records) {
        if (r.cat != c || r.kind != Kind::Span || r.open)
            continue;
        if (strings[r.name] != name)
            continue;
        Tick len = r.end - r.begin;
        if (d.count == 0) {
            d.minTicks = len;
            d.maxTicks = len;
        } else {
            d.minTicks = std::min(d.minTicks, len);
            d.maxTicks = std::max(d.maxTicks, len);
        }
        d.totalTicks += len;
        ++d.count;
    }
    return d;
}

std::vector<SpanView>
Tracer::spanViews() const
{
    std::vector<SpanView> out;
    out.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        if (r.kind != Kind::Span)
            continue;
        SpanView v;
        v.id = static_cast<TraceSpanId>(i + 1);
        v.begin = r.begin;
        v.end = r.end;
        v.track = strings[r.track];
        v.name = strings[r.name];
        v.cat = r.cat;
        v.open = r.open;
        out.push_back(v);
    }
    return out;
}

std::uint64_t
Tracer::instantCount(TraceCategory c, std::string_view name) const
{
    std::uint64_t n = 0;
    for (const Record &r : records) {
        if (r.cat == c && r.kind == Kind::Instant &&
            strings[r.name] == name)
            ++n;
    }
    return n;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    // Tracks (component names) map to Chrome "thread" ids in first-use
    // order, which is deterministic because emission order is.
    std::vector<std::uint32_t> trackIds(strings.size(), 0);
    std::vector<std::uint32_t> trackOrder;
    for (const Record &r : records) {
        if (trackIds[r.track] == 0) {
            trackIds[r.track] =
                static_cast<std::uint32_t>(trackOrder.size() + 1);
            trackOrder.push_back(r.track);
        }
    }

    std::string out;
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    for (std::uint32_t stringIdx : trackOrder) {
        if (!first)
            out += ",\n";
        first = false;
        out += format("{\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                      "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                      trackIds[stringIdx]);
        appendJsonEscaped(out, strings[stringIdx]);
        out += "\"}}";
    }
    for (const Record &r : records) {
        if (!first)
            out += ",\n";
        first = false;
        if (r.kind == Kind::Instant) {
            out += format("{\"ph\":\"i\",\"pid\":0,\"tid\":%u,"
                          "\"cat\":\"%s\",\"name\":\"",
                          trackIds[r.track],
                          traceCategoryName(r.cat));
            appendJsonEscaped(out, strings[r.name]);
            out += format("\",\"ts\":%s,\"s\":\"t\"}",
                          ticksToMicros(r.begin).c_str());
        } else if (r.open) {
            // Span never closed (e.g. dump mid-run): emit a bare
            // begin event so viewers still show its start.
            out += format("{\"ph\":\"B\",\"pid\":0,\"tid\":%u,"
                          "\"cat\":\"%s\",\"name\":\"",
                          trackIds[r.track],
                          traceCategoryName(r.cat));
            appendJsonEscaped(out, strings[r.name]);
            out += format("\",\"ts\":%s}",
                          ticksToMicros(r.begin).c_str());
        } else {
            out += format("{\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                          "\"cat\":\"%s\",\"name\":\"",
                          trackIds[r.track],
                          traceCategoryName(r.cat));
            appendJsonEscaped(out, strings[r.name]);
            out += format("\",\"ts\":%s,\"dur\":%s}",
                          ticksToMicros(r.begin).c_str(),
                          ticksToMicros(r.end - r.begin).c_str());
        }
    }
    // Perfetto flow events: an "s" (start) at the origin span and a
    // matching "f" (finish, binding to the enclosing slice) at the
    // destination, paired by flow id. The "s" is stamped at the
    // origin's end tick — the latest instant inside its slice, and
    // the closest renderable moment to the schedule call.
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const FlowLink &fl = flows[i];
        const Record &from =
            records[static_cast<std::size_t>(fl.from - 1)];
        const Record &to = records[static_cast<std::size_t>(fl.to - 1)];
        out += format(",\n{\"ph\":\"s\",\"pid\":0,\"tid\":%u,"
                      "\"cat\":\"%s\",\"name\":\"flow\",\"id\":%zu,"
                      "\"ts\":%s}",
                      trackIds[from.track],
                      traceCategoryName(from.cat), i + 1,
                      ticksToMicros(from.open ? from.begin : from.end)
                          .c_str());
        out += format(",\n{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,"
                      "\"tid\":%u,\"cat\":\"%s\",\"name\":\"flow\","
                      "\"id\":%zu,\"ts\":%s}",
                      trackIds[to.track], traceCategoryName(to.cat),
                      i + 1, ticksToMicros(to.begin).c_str());
    }
    out += format("\n],\"metadata\":{\"tickUnit\":\"ps\","
                  "\"categories\":\"%s\",\"events\":%llu,"
                  "\"flows\":%llu}}\n",
                  traceCategoriesToString(mask).c_str(),
                  static_cast<unsigned long long>(records.size()),
                  static_cast<unsigned long long>(flows.size()));
    os << out;
}

void
Tracer::writeChromeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace output file '%s'", path.c_str());
    writeChromeJson(out);
}

} // namespace genie
