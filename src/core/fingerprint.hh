/**
 * @file
 * Design-point identity for the result tiers.
 *
 * Two SocConfigs that simulate identically must produce the same
 * canonical key, and two that differ in any result-affecting knob
 * must produce different keys. The key deliberately EXCLUDES the
 * observability blocks (tracing, metrics): a traced or sampled run is
 * byte-identical to a plain run by contract, so it would be wrong for
 * a stats-export path to defeat the sweep result cache.
 *
 * A config alone does not name a result: the same config on another
 * kernel simulates another trace. resultKey() therefore prefixes the
 * canonical key with traceDigest(), and that full string is the
 * identity both result tiers (ResultCache and ResultStore) key on.
 * Hashes of it (fnv1a64) only ever index or name things; a collision
 * degrades to a miss, never a false hit.
 * configFingerprint() is the FNV-1a hash of the canonical key alone,
 * printed in the results export; test_properties.cc proves it
 * injective over every enumerated Figure 3 space.
 */

#ifndef GENIE_CORE_FINGERPRINT_HH
#define GENIE_CORE_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "accel/trace.hh"
#include "core/soc_config.hh"

namespace genie
{

/** The canonical result-affecting parameter string of @p config:
 * every hardware knob, clock, characterized cost, study switch, and
 * the fault campaign; never tracing or metrics paths. */
std::string configCanonicalKey(const SocConfig &config);

/** FNV-1a 64-bit hash of @p bytes. */
std::uint64_t fnv1a64(const std::string &bytes);

/** FNV-1a 64-bit hash of configCanonicalKey(). */
std::uint64_t configFingerprint(const SocConfig &config);

/**
 * FNV-1a 64-bit digest of everything in @p trace that can change a
 * simulated result: every array (name, size, word size, input/output/
 * private flags), every op (opcode, array, access size, iteration,
 * offset, register deps) and the iteration count. Each field is
 * hashed at a fixed width, never as raw struct bytes, so the digest
 * is stable across compilers and padding. Changing the format
 * changes every result key and cold-starts every store.
 */
std::uint64_t traceDigest(const Trace &trace);

/** The result-tier identity: `trace=<16 hex> ` followed by
 * configCanonicalKey(@p config). */
std::string resultKey(std::uint64_t traceDigest,
                      const SocConfig &config);

/** Fixed-width lower-case hex rendering of a fingerprint. */
std::string fingerprintHex(std::uint64_t fingerprint);

} // namespace genie

#endif // GENIE_CORE_FINGERPRINT_HH
