#include "cache/StackPolicyBase.h"

#include <algorithm>
#include <string>
#include <vector>

#include "robust/Errors.h"
#include "util/Logging.h"

namespace csr
{

StackPolicyBase::StackPolicyBase(const CacheGeometry &geom)
    : ReplacementPolicy(geom), packed_(geom.assoc() <= 8),
      packedOrder_(packed_ ? geom.numSets() : 0, 0),
      order_(packed_ ? 0
                     : static_cast<std::size_t>(geom.numSets()) *
                           geom.assoc(),
             kInvalidWay),
      count_(geom.numSets(), 0), lastLru_(geom.numSets(), kInvalidWay)
{
}

void
StackPolicyBase::access(std::uint32_t set, Addr tag, int hit_way)
{
    if (hit_way == kInvalidWay) {
        if (usesMissHook_)
            onMissAccess(set, tag);
        return;
    }
    csr_assert(model_->tagAt(set, hit_way) == tag,
               "hit way holds a different tag");
    const std::int32_t n = count_[set];
    int old_pos;
    if (packed_) {
        std::uint64_t &w = packedOrder_[set];
        // Fast path: a re-hit on the MRU way of a multi-way stack
        // needs no promotion and cannot move the LRU position, so
        // the word stays untouched and the LRU-only hit hooks and
        // LRU-change scan are skipped wholesale.  (n == 1 falls
        // through: there MRU == LRU and the hooks must fire.)
        if (n > 1 &&
            static_cast<std::int32_t>(w & 0xFF) == hit_way) {
            if (usesHitHook_ && !hitHookLruOnly_)
                onHit(set, hit_way, 1);
            return;
        }
        const std::int32_t p =
            findByte(w, static_cast<std::uint32_t>(n),
                     static_cast<std::uint8_t>(hit_way));
        if (p < 0)
            csr_panic("way %d not in stack of set %u", hit_way, set);
        old_pos = static_cast<int>(p) + 1;
        // Promote: bytes [0, p) slide up one slot, way lands at MRU.
        w = ((w & maskBytes(static_cast<std::uint32_t>(p))) << 8) |
            (w & ~maskBytes(static_cast<std::uint32_t>(p) + 1)) |
            static_cast<std::uint64_t>(hit_way);
    } else {
        old_pos = posOf(set, hit_way);
        promoteToMru(set, hit_way);
    }
    // Promoting a way that was NOT at the LRU position leaves the
    // LRU identity untouched, so both the LRU-change scan and the
    // LRU-only hit hooks are skippable for it.
    const bool was_lru = old_pos == static_cast<int>(n);
    if (usesHitHook_ && (was_lru || !hitHookLruOnly_))
        onHit(set, hit_way, old_pos);
    if (usesLruHook_ && was_lru)
        checkLruChanged(set);
}

void
StackPolicyBase::fill(std::uint32_t set, int way, Addr tag, Cost cost)
{
    (void)tag;
    (void)cost; // tag and cost are already recorded in the CacheModel
    // The way may still be in the stack if the owner reuses a victim
    // way without an explicit invalidate; scrub it first.
    if (packed_) {
        std::uint64_t &w = packedOrder_[set];
        std::int32_t p =
            findByte(w, static_cast<std::uint32_t>(count_[set]),
                     static_cast<std::uint8_t>(way));
        if (p < 0) {
            p = count_[set]++;
            csr_assert(count_[set] <=
                       static_cast<std::int32_t>(geom_.assoc()),
                       "stack overflow");
        }
        w = ((w & maskBytes(static_cast<std::uint32_t>(p))) << 8) |
            (w & ~maskBytes(static_cast<std::uint32_t>(p) + 1)) |
            static_cast<std::uint64_t>(way);
    } else {
        std::int32_t *order = &order_[orderBase(set)];
        const std::int32_t n = count_[set];
        std::int32_t pos = n;
        for (std::int32_t j = 0; j < n; ++j)
            pos = order[j] == way ? j : pos;
        if (pos == n) {
            ++count_[set];
            csr_assert(count_[set] <=
                       static_cast<std::int32_t>(geom_.assoc()),
                       "stack overflow");
        }
        for (std::int32_t j = count_[set] - 1; j > 0; --j)
            order[j] = j <= pos ? order[j - 1] : order[j];
        order[0] = way;
    }
    if (usesLruHook_)
        checkLruChanged(set);
}

void
StackPolicyBase::invalidate(std::uint32_t set, Addr tag, int way)
{
    if (way == kInvalidWay) {
        onInvalidateAbsent(set, tag);
        return;
    }
    onInvalidateWay(set, tag, way);
    removeFromStack(set, way);
    if (usesLruHook_)
        checkLruChanged(set);
}

void
StackPolicyBase::reset()
{
    std::fill(packedOrder_.begin(), packedOrder_.end(), 0);
    std::fill(order_.begin(), order_.end(), kInvalidWay);
    std::fill(count_.begin(), count_.end(), 0);
    std::fill(lastLru_.begin(), lastLru_.end(), kInvalidWay);
    counters_ = {};
}

void
StackPolicyBase::checkInvariants() const
{
    for (std::uint32_t set = 0; set < geom_.numSets(); ++set) {
        const std::int32_t n = count_[set];
        if (n < 0 || n > static_cast<std::int32_t>(geom_.assoc()))
            throw InvariantError(
                "recency stack of set " + std::to_string(set) +
                " has impossible size " + std::to_string(n));
        if (model_ != nullptr &&
            n != static_cast<std::int32_t>(model_->validCountOf(set)))
            throw InvariantError(
                "recency stack of set " + std::to_string(set) +
                " holds " + std::to_string(n) + " ways but the model"
                " has " + std::to_string(model_->validCountOf(set)) +
                " valid lines");
        std::vector<char> seen(geom_.assoc(), 0);
        for (std::int32_t pos = 1; pos <= n; ++pos) {
            const int way = wayAt(set, static_cast<int>(pos));
            if (way < 0 ||
                way >= static_cast<int>(geom_.assoc()) ||
                seen[static_cast<std::size_t>(way)])
                throw InvariantError(
                    "recency stack of set " + std::to_string(set) +
                    " is not a permutation (way " +
                    std::to_string(way) + " at position " +
                    std::to_string(pos) + ")");
            seen[static_cast<std::size_t>(way)] = 1;
            if (model_ != nullptr && !model_->isValid(set, way))
                throw InvariantError(
                    "recency stack of set " + std::to_string(set) +
                    " lists invalid way " + std::to_string(way));
        }
    }
}

int
StackPolicyBase::posOf(std::uint32_t set, int way) const
{
    if (packed_) {
        const std::int32_t p =
            findByte(packedOrder_[set],
                     static_cast<std::uint32_t>(count_[set]),
                     static_cast<std::uint8_t>(way));
        if (p < 0)
            csr_panic("way %d not in stack of set %u", way, set);
        return static_cast<int>(p) + 1;
    }
    const std::int32_t *order = &order_[orderBase(set)];
    const std::int32_t n = count_[set];
    for (std::int32_t i = 0; i < n; ++i) {
        if (order[i] == way)
            return static_cast<int>(i) + 1;
    }
    csr_panic("way %d not in stack of set %u", way, set);
}

void
StackPolicyBase::promoteToMru(std::uint32_t set, int way)
{
    if (packed_) {
        std::uint64_t &w = packedOrder_[set];
        const std::int32_t p =
            findByte(w, static_cast<std::uint32_t>(count_[set]),
                     static_cast<std::uint8_t>(way));
        if (p < 0)
            csr_panic("promote of non-resident way %d in set %u", way,
                      set);
        w = ((w & maskBytes(static_cast<std::uint32_t>(p))) << 8) |
            (w & ~maskBytes(static_cast<std::uint32_t>(p) + 1)) |
            static_cast<std::uint64_t>(way);
        return;
    }
    std::int32_t *order = &order_[orderBase(set)];
    const std::int32_t n = count_[set];
    for (std::int32_t i = 0; i < n; ++i) {
        if (order[i] == way) {
            for (; i > 0; --i)
                order[i] = order[i - 1];
            order[0] = way;
            return;
        }
    }
    csr_panic("promote of non-resident way %d in set %u", way, set);
}

void
StackPolicyBase::removeFromStack(std::uint32_t set, int way)
{
    if (packed_) {
        std::uint64_t &w = packedOrder_[set];
        const std::int32_t p =
            findByte(w, static_cast<std::uint32_t>(count_[set]),
                     static_cast<std::uint8_t>(way));
        if (p < 0)
            return;
        // Bytes above p slide down one slot.
        const std::uint64_t below =
            maskBytes(static_cast<std::uint32_t>(p));
        w = (w & below) | ((w >> 8) & ~below);
        --count_[set];
        return;
    }
    std::int32_t *order = &order_[orderBase(set)];
    const std::int32_t n = count_[set];
    for (std::int32_t i = 0; i < n; ++i) {
        if (order[i] == way) {
            for (; i < n - 1; ++i)
                order[i] = order[i + 1];
            --count_[set];
            return;
        }
    }
}

void
StackPolicyBase::checkLruChanged(std::uint32_t set)
{
    const int lru = lruWay(set);
    if (lru != lastLru_[set]) {
        lastLru_[set] = lru;
        onLruChanged(set, lru);
    }
}

} // namespace csr
