/**
 * @file
 * Miss-cost models (Section 2: the cost function c(x_t)).
 *
 * A cost model answers one question: if this block misses, what does
 * the miss cost?  Hits always cost zero, which the simulators handle;
 * models only see misses.  The two-static-cost study (Section 3) uses
 * RandomTwoCost / FirstTouchTwoCost; the CC-NUMA study (Section 4)
 * measures latencies at run time and uses LatencyPredictor instead of
 * a static model.
 */

#ifndef CSR_COST_COSTMODEL_H
#define CSR_COST_COSTMODEL_H

#include <string>

#include "util/Types.h"

namespace csr
{

/**
 * Static (time-invariant) cost assignment by block address.
 */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** Cost of a miss on @p block_addr (block-granular address). */
    virtual Cost missCost(Addr block_addr) const = 0;

    /** Short description for table headers. */
    virtual std::string describe() const = 0;
};

/**
 * The two-static-cost parameterization of Section 2: low-cost misses
 * cost `low`, high-cost ones cost `high`.  A finite cost ratio r maps
 * to (1, r); the infinite ratio maps to (0, 1), which makes the
 * aggregate cost a pure count of high-cost misses and neutralizes
 * cost depreciation, exactly as the paper describes.
 */
struct CostRatio
{
    Cost low = 1.0;
    Cost high = 2.0;
    bool infinite = false;

    static CostRatio
    finite(double r)
    {
        return {1.0, r, false};
    }

    static CostRatio
    makeInfinite()
    {
        return {0.0, 1.0, true};
    }

    /** "r=8", "r=2.5" (shortest form) or "r=inf". */
    std::string label() const;
};

/**
 * The one cost-ratio parser (sweep grids, `csrsim trace --ratio`, the
 * examples): "inf" (any case) or a finite number above 0; anything
 * else is a ConfigError.
 */
CostRatio parseCostRatio(const std::string &text);

} // namespace csr

#endif // CSR_COST_COSTMODEL_H
