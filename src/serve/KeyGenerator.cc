#include "serve/KeyGenerator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "robust/Errors.h"
#include "util/CliArgs.h"

namespace csr::serve
{

namespace
{

std::string
lowered(const std::string &name)
{
    std::string out = name;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

/** Generalized harmonic number sum_{i=1..n} 1/i^theta. */
double
zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

// zeta(numKeys, theta) is an O(numKeys) sum -- for the default 2^20
// keyspace that was tens of milliseconds of setup burned once per
// KeyGenerator, i.e. once per worker/connection in drivers that give
// each thread its own generator.  The value depends only on
// (n, theta), so one process-wide cache serves every construction.
// Keyed on theta's bit pattern: exact-equality semantics, no epsilon.
std::mutex zetaCacheMutex;
std::map<std::pair<std::uint64_t, std::uint64_t>, double> &
zetaCacheMap()
{
    static std::map<std::pair<std::uint64_t, std::uint64_t>, double>
        cache;
    return cache;
}

double
cachedZeta(std::uint64_t n, double theta)
{
    const std::pair<std::uint64_t, std::uint64_t> key{
        n, std::bit_cast<std::uint64_t>(theta)};
    {
        const std::lock_guard<std::mutex> lock(zetaCacheMutex);
        const auto it = zetaCacheMap().find(key);
        if (it != zetaCacheMap().end())
            return it->second;
    }
    // Compute outside the lock: concurrent first builders duplicate
    // the work but insert the identical value (the sum is a pure
    // function of the key), which beats serializing every ctor
    // behind one O(n) loop.
    const double value = zeta(n, theta);
    const std::lock_guard<std::mutex> lock(zetaCacheMutex);
    return zetaCacheMap().emplace(key, value).first->second;
}

} // namespace

std::size_t
zetaCacheEntries()
{
    const std::lock_guard<std::mutex> lock(zetaCacheMutex);
    return zetaCacheMap().size();
}

KeyDist
parseKeyDist(const std::string &name)
{
    const std::string n = lowered(name);
    if (n == "uniform")
        return KeyDist::Uniform;
    if (n == "zipf" || n == "zipfian")
        return KeyDist::Zipfian;
    if (n == "hotspot")
        return KeyDist::Hotspot;
    if (n == "scan")
        return KeyDist::Scan;
    std::string valid;
    for (const std::string &d : listKeyDistNames())
        valid += (valid.empty() ? "" : " ") + d;
    throw ConfigError("unknown key distribution '" + name +
                      "' (valid: " + valid + ")");
}

const std::vector<std::string> &
listKeyDistNames()
{
    static const std::vector<std::string> names = {
        "uniform",
        "zipf",
        "hotspot",
        "scan",
    };
    return names;
}

std::string
keyDistName(KeyDist dist)
{
    switch (dist) {
      case KeyDist::Uniform:
        return "uniform";
      case KeyDist::Zipfian:
        return "zipf";
      case KeyDist::Hotspot:
        return "hotspot";
      case KeyDist::Scan:
        return "scan";
    }
    return "?";
}

std::string
WorkloadMix::describe() const
{
    std::string out = keyDistName(dist) +
                      "(keys=" + std::to_string(numKeys);
    if (dist == KeyDist::Zipfian) {
        std::string theta = std::to_string(zipfTheta);
        theta.resize(4); // "0.99"
        out += ",theta=" + theta;
    }
    if (dist == KeyDist::Hotspot)
        out += ",hot=" + std::to_string(hotFraction) + "@" +
               std::to_string(hotProbability);
    out += ",writes=" + std::to_string(writeFraction) + ")";
    return out;
}

WorkloadMix
WorkloadMix::fromArgs(const CliArgs &args)
{
    WorkloadMix mix;
    mix.dist = parseKeyDist(args.get("workload", "zipf"));
    mix.numKeys = args.getUInt("keys", mix.numKeys);
    mix.zipfTheta = args.getDouble("zipf-theta", mix.zipfTheta);
    mix.hotFraction = args.getDouble("hot-frac", mix.hotFraction);
    mix.hotProbability = args.getDouble("hot-prob", mix.hotProbability);
    mix.writeFraction = args.getDouble("write-frac", mix.writeFraction);
    return mix;
}

KeyGenerator::KeyGenerator(const WorkloadMix &mix, std::uint64_t seed)
    : mix_(mix), rng_(seed)
{
    if (mix_.numKeys == 0)
        throw ConfigError("workload keyspace must be non-empty");
    if (mix_.writeFraction < 0.0 || mix_.writeFraction > 1.0)
        throw ConfigError("write fraction must be in [0,1]");
    if (mix_.dist == KeyDist::Zipfian) {
        if (mix_.zipfTheta <= 0.0 || mix_.zipfTheta >= 1.0)
            throw ConfigError("zipf theta must be in (0,1)");
        const double theta = mix_.zipfTheta;
        const auto n = static_cast<double>(mix_.numKeys);
        zetaN_ = cachedZeta(mix_.numKeys, theta);
        zipfAlpha_ = 1.0 / (1.0 - theta);
        zipfEta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) /
                   (1.0 - zeta(2, theta) / zetaN_);
    }
    if (mix_.dist == KeyDist::Hotspot) {
        if (mix_.hotFraction <= 0.0 || mix_.hotFraction > 1.0)
            throw ConfigError("hotspot fraction must be in (0,1]");
        if (mix_.hotProbability < 0.0 || mix_.hotProbability > 1.0)
            throw ConfigError("hotspot probability must be in [0,1]");
    }
}

Addr
KeyGenerator::zipfianRank()
{
    // Gray et al. "Quickly generating billion-record synthetic
    // databases" rejection-free inversion, as used by YCSB.
    const double u = rng_.nextDouble();
    const double uz = u * zetaN_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, mix_.zipfTheta))
        return 1;
    const auto n = static_cast<double>(mix_.numKeys);
    const auto rank = static_cast<Addr>(
        n * std::pow(zipfEta_ * u - zipfEta_ + 1.0, zipfAlpha_));
    return rank >= mix_.numKeys ? mix_.numKeys - 1 : rank;
}

Addr
KeyGenerator::nextKey()
{
    switch (mix_.dist) {
      case KeyDist::Uniform:
        return rng_.nextBelow(mix_.numKeys);
      case KeyDist::Zipfian:
        // Scramble the rank so the hottest keys spread across the
        // keyspace (and therefore across shards and backend tiers)
        // instead of clustering at 0.
        return hashMix64(zipfianRank()) % mix_.numKeys;
      case KeyDist::Hotspot: {
        const auto hot = static_cast<std::uint64_t>(
            mix_.hotFraction * static_cast<double>(mix_.numKeys));
        const std::uint64_t hot_keys = hot ? hot : 1;
        if (rng_.nextBool(mix_.hotProbability))
            return rng_.nextBelow(hot_keys);
        return hot_keys >= mix_.numKeys
                   ? rng_.nextBelow(mix_.numKeys)
                   : hot_keys + rng_.nextBelow(mix_.numKeys - hot_keys);
      }
      case KeyDist::Scan: {
        const Addr key = scanCursor_;
        scanCursor_ = (scanCursor_ + 1) % mix_.numKeys;
        return key;
      }
    }
    return 0;
}

Op
KeyGenerator::next()
{
    Op op;
    op.key = nextKey();
    // Always draw, so the key sequence is identical across write
    // fractions (read-mostly vs write-heavy runs stay comparable).
    op.write = rng_.nextBool(mix_.writeFraction);
    return op;
}

} // namespace csr::serve
