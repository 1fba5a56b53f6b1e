#include "export.hh"
#include "sim/thread_safety.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "sim/logging.hh"

namespace genie
{

namespace
{

/** CSV field quoting: wrap when the field carries a comma or quote. */
std::string
csvField(const std::string &s)
{
    if (s.find(',') == std::string::npos &&
        s.find('"') == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** Collects one JSON object member list with deterministic order. */
struct JsonStatsWriter GENIE_THREAD_LOCAL_OK : StatVisitor
{
    std::string scalars;
    std::string dists;

    void
    scalar(const StatGroup &, const Stat &s) override
    {
        if (!scalars.empty())
            scalars += ",\n";
        scalars += "    \"";
        appendJsonEscaped(scalars, s.name());
        scalars += "\": {\"value\": " + formatStatNumber(s.value()) +
                   ", \"desc\": \"";
        appendJsonEscaped(scalars, s.desc());
        scalars += "\"}";
    }

    void
    distribution(const StatGroup &, const Distribution &d) override
    {
        if (!dists.empty())
            dists += ",\n";
        dists += "    \"";
        appendJsonEscaped(dists, d.name());
        dists += "\": {\"desc\": \"";
        appendJsonEscaped(dists, d.desc());
        dists += format("\", \"count\": %llu",
                        (unsigned long long)d.count());
        dists += ", \"min\": " + formatStatNumber(d.min());
        dists += ", \"max\": " + formatStatNumber(d.max());
        dists += ", \"mean\": " + formatStatNumber(d.mean());
        dists += ", \"p50\": " + formatStatNumber(d.p50());
        dists += ", \"p95\": " + formatStatNumber(d.p95());
        dists += ", \"p99\": " + formatStatNumber(d.p99());
        dists += format(", \"underflow\": %llu, \"overflow\": %llu",
                        (unsigned long long)d.underflow(),
                        (unsigned long long)d.overflow());
        dists += ", \"buckets\": [";
        bool first = true;
        for (const DistBucket &b : d.buckets()) {
            if (b.count == 0)
                continue; // sparse: empty bins carry no information
            if (!first)
                dists += ", ";
            first = false;
            dists += '[';
            dists += formatStatNumber(b.lo);
            dists += ", ";
            dists += formatStatNumber(b.hi);
            dists += format(", %llu]", (unsigned long long)b.count);
        }
        dists += "]}";
    }
};

struct CsvStatsWriter GENIE_THREAD_LOCAL_OK : StatVisitor
{
    std::string out = "stat,value\n";

    void
    row(const std::string &name, double v)
    {
        out += csvField(name) + "," + formatStatNumber(v) + "\n";
    }

    void
    scalar(const StatGroup &, const Stat &s) override
    {
        row(s.name(), s.value());
    }

    void
    distribution(const StatGroup &, const Distribution &d) override
    {
        row(d.name() + "::count", static_cast<double>(d.count()));
        row(d.name() + "::min", d.min());
        row(d.name() + "::mean", d.mean());
        row(d.name() + "::max", d.max());
        row(d.name() + "::p50", d.p50());
        row(d.name() + "::p95", d.p95());
        row(d.name() + "::p99", d.p99());
        row(d.name() + "::underflow",
            static_cast<double>(d.underflow()));
        row(d.name() + "::overflow",
            static_cast<double>(d.overflow()));
    }
};

/** Run @p write against @p path, with "-" meaning stdout. */
template <typename Fn>
void
toFileOrStdout(const std::string &path, const char *what, Fn &&write)
{
    if (path == "-") {
        write(std::cout);
        std::cout.flush();
        return;
    }
    std::ofstream out(path);
    if (!out)
        fatal("cannot open %s output file '%s'", what, path.c_str());
    write(out);
}

} // namespace

std::string
formatStatNumber(double v)
{
    // Integral values (the overwhelmingly common case for counters)
    // print as integers; everything else uses shortest-round-trip
    // formatting so output is deterministic across runs and builds.
    if (std::isfinite(v) && v == std::floor(v) &&
        std::abs(v) < 9.007199254740992e15) {
        return format("%lld", (long long)v);
    }
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        return "0";
    return std::string(buf, ptr);
}

void
writeStatsJson(std::ostream &os, const StatRegistry &registry)
{
    JsonStatsWriter w;
    registry.visit(w);
    os << "{\"schema\": \"genie-stats-1\",\n  \"stats\": {\n"
       << w.scalars << "\n  },\n  \"distributions\": {\n" << w.dists
       << "\n  }\n}\n";
}

void
writeStatsCsv(std::ostream &os, const StatRegistry &registry)
{
    CsvStatsWriter w;
    registry.visit(w);
    os << w.out;
}

void
writeSamplesJson(std::ostream &os, const MetricsSampler &sampler)
{
    std::string out;
    out += format("{\"schema\": \"genie-samples-1\",\n"
                  "  \"period_ticks\": %llu,\n"
                  "  \"samples\": %zu,\n"
                  "  \"taken\": %llu,\n"
                  "  \"dropped\": %llu,\n",
                  (unsigned long long)sampler.period(),
                  sampler.numSamples(),
                  (unsigned long long)sampler.samplesTaken(),
                  (unsigned long long)sampler.droppedSamples());
    out += "  \"ticks\": [";
    bool first = true;
    for (Tick t : sampler.ticks()) {
        if (!first)
            out += ", ";
        first = false;
        out += format("%llu", (unsigned long long)t);
    }
    out += "],\n  \"series\": {\n";
    for (std::size_t s = 0; s < sampler.numSeries(); ++s) {
        if (s > 0)
            out += ",\n";
        out += "    \"";
        appendJsonEscaped(out, sampler.paths()[s]);
        out += "\": [";
        first = true;
        for (double v : sampler.values(s)) {
            if (!first)
                out += ", ";
            first = false;
            out += formatStatNumber(v);
        }
        out += "]";
    }
    out += "\n  }\n}\n";
    os << out;
}

void
writeSamplesCsv(std::ostream &os, const MetricsSampler &sampler)
{
    std::string out = "tick";
    for (const std::string &p : sampler.paths()) {
        out += ',';
        out += csvField(p);
    }
    out += "\n";
    const auto &ticks = sampler.ticks();
    for (std::size_t i = 0; i < ticks.size(); ++i) {
        out += format("%llu", (unsigned long long)ticks[i]);
        for (std::size_t s = 0; s < sampler.numSeries(); ++s) {
            out += ',';
            out += formatStatNumber(sampler.values(s)[i]);
        }
        out += "\n";
    }
    os << out;
}

void
writeStatsJsonFile(const std::string &path,
                   const StatRegistry &registry)
{
    toFileOrStdout(path, "stats JSON",
                   [&](std::ostream &os) { writeStatsJson(os, registry); });
}

void
writeStatsCsvFile(const std::string &path, const StatRegistry &registry)
{
    toFileOrStdout(path, "stats CSV",
                   [&](std::ostream &os) { writeStatsCsv(os, registry); });
}

void
writeSamplesJsonFile(const std::string &path,
                     const MetricsSampler &sampler)
{
    toFileOrStdout(path, "samples JSON", [&](std::ostream &os) {
        writeSamplesJson(os, sampler);
    });
}

void
writeSamplesCsvFile(const std::string &path,
                    const MetricsSampler &sampler)
{
    toFileOrStdout(path, "samples CSV", [&](std::ostream &os) {
        writeSamplesCsv(os, sampler);
    });
}

} // namespace genie
