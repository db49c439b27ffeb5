/**
 * @file
 * Deterministic request-stream generators for the serving layer.
 *
 * The load harness replays a single op stream -- (key, read|write)
 * pairs -- generated here from an explicit seed, so a run is a pure
 * function of its configuration.  Three reference access patterns
 * plus a uniform control:
 *
 *   zipf     YCSB-style Zipfian ranks scrambled over the keyspace
 *            (theta 0.99 by default), the canonical skewed KV load;
 *   hotspot  a hot fraction of the keyspace takes a fixed share of
 *            the accesses, the rest is uniform;
 *   scan     sequential wrap-around sweep, the adversarial streaming
 *            pattern that flushes recency-only policies;
 *   uniform  no locality at all (baseline).
 */

#ifndef CSR_SERVE_KEYGENERATOR_H
#define CSR_SERVE_KEYGENERATOR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/Random.h"
#include "util/Types.h"

namespace csr
{
class CliArgs;
}

namespace csr::serve
{

enum class KeyDist
{
    Uniform,
    Zipfian,
    Hotspot,
    Scan,
};

/** Parse "uniform" / "zipf" / "hotspot" / "scan" (case-insensitive);
 *  throws ConfigError listing the valid names on anything else. */
KeyDist parseKeyDist(const std::string &name);

/** Canonical distribution names, parse order, for diagnostics. */
const std::vector<std::string> &listKeyDistNames();

std::string keyDistName(KeyDist dist);

/** The request mix the harness generates. */
struct WorkloadMix
{
    KeyDist dist = KeyDist::Zipfian;
    std::uint64_t numKeys = 1 << 20;
    double zipfTheta = 0.99;     ///< Zipfian skew (YCSB default)
    double hotFraction = 0.1;    ///< hotspot: share of keys that are hot
    double hotProbability = 0.9; ///< hotspot: share of accesses to them
    double writeFraction = 0.05; ///< read/write mix

    /** Short "zipf(n=...,theta=...)" style label. */
    std::string describe() const;

    /** Read --workload --keys --zipf-theta --hot-frac --hot-prob
     *  --write-frac (absent: the default).  @throws ConfigError. */
    static WorkloadMix fromArgs(const CliArgs &args);
};

/** One request. */
struct Op
{
    Addr key = 0;
    bool write = false;
    /** Invalidate instead of read/write (trace replay only; the
     *  synthetic generators never emit deletes). */
    bool del = false;
};

/** Distinct (numKeys, theta) pairs whose Zipfian normalizer has been
 *  computed so far (the O(numKeys) zeta sum is cached process-wide;
 *  tests assert repeated constructions share one entry). */
std::size_t zetaCacheEntries();

/**
 * Stateful generator of the op stream.  Draws come from one Rng, so
 * the stream depends only on (mix, seed) -- never on worker count or
 * timing.
 */
class KeyGenerator
{
  public:
    /** @throws ConfigError on out-of-range mix parameters. */
    KeyGenerator(const WorkloadMix &mix, std::uint64_t seed);

    Op next();

    const WorkloadMix &mix() const { return mix_; }

  private:
    Addr nextKey();
    Addr zipfianRank();

    WorkloadMix mix_;
    Rng rng_;
    Addr scanCursor_ = 0;
    // Precomputed Zipfian constants (Gray et al.; the YCSB generator).
    double zetaN_ = 0.0;
    double zipfAlpha_ = 0.0;
    double zipfEta_ = 0.0;
};

} // namespace csr::serve

#endif // CSR_SERVE_KEYGENERATOR_H
