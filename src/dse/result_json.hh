/**
 * @file
 * Result serialization: the result-store record line and the
 * deterministic results export.
 *
 * Record line: one design point — its result key (dse/
 * result_store.hh) and its full SocResults — as a single JSON line.
 * It is the payload of every `genie-store-2` record. All doubles
 * round-trip exactly through serialize/parse, so a result restored
 * from the store is bit-identical to the freshly simulated one.
 *
 * Results export (schema `genie-sweep-results-1`): the whole sweep in
 * config order as one JSON document. Output is deterministic — field
 * order is frozen and numbers use formatStatNumber's shortest-round-
 * trip formatting — so exports byte-compare across runs, thread
 * counts, and cold/warm/resumed sweeps (the golden-figure suite's
 * contract).
 */

#ifndef GENIE_DSE_RESULT_JSON_HH
#define GENIE_DSE_RESULT_JSON_HH

#include <ostream>
#include <string>
#include <vector>

#include "dse/sweep.hh"

namespace genie
{

/** Serialize one design point as a single JSON line (no trailing
 * newline). */
std::string resultRecordLine(const std::string &key,
                             const SocResults &results);

/** Parse a resultRecordLine(). Returns false (without touching the
 * outputs) for blank, torn or otherwise unparseable lines. */
bool parseResultRecordLine(const std::string &line, std::string &key,
                           SocResults &results);

/** Serialize @p results as the frozen `"results": {...}` object body
 * used by both the record line and the results export. */
std::string resultsJson(const SocResults &r);

/**
 * Write a full sweep as `genie-sweep-results-1` JSON, points in
 * @p points order. @p workload is an optional label ("" omits it).
 */
void writeSweepResultsJson(std::ostream &os,
                           const std::vector<DesignPoint> &points,
                           const std::string &workload = "");

} // namespace genie

#endif // GENIE_DSE_RESULT_JSON_HH
