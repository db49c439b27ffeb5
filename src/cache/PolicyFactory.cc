#include "cache/PolicyFactory.h"

#include <algorithm>
#include <cctype>

#include "cache/AclPolicy.h"
#include "cache/BclPolicy.h"
#include "cache/DclPolicy.h"
#include "cache/GreedyDualPolicy.h"
#include "cache/LfuPolicy.h"
#include "cache/LruPolicy.h"
#include "cache/RandomPolicy.h"
#include "robust/Errors.h"
#include "util/Logging.h"

namespace csr
{

PolicyPtr
makePolicy(PolicyKind kind, const CacheGeometry &geom,
           const PolicyParams &params)
{
    switch (kind) {
      case PolicyKind::Lru:
        return std::make_unique<LruPolicy>(geom);
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(geom, params.seed);
      case PolicyKind::Lfu:
        return std::make_unique<LfuPolicy>(geom);
      case PolicyKind::GreedyDual:
        return std::make_unique<GreedyDualPolicy>(geom);
      case PolicyKind::Bcl:
        return std::make_unique<BclPolicy>(geom,
                                           params.depreciationFactor);
      case PolicyKind::Dcl:
        return std::make_unique<DclPolicy>(geom, params.etdAliasBits,
                                           params.depreciationFactor);
      case PolicyKind::Acl:
        return std::make_unique<AclPolicy>(geom, params.etdAliasBits,
                                           params.depreciationFactor);
      case PolicyKind::Opt:
      case PolicyKind::CostOpt:
        throw ConfigError(
            "policy '" + policyKindName(kind) +
            "' is an offline oracle: it needs the whole future, so only "
            "a trace study (csrsim trace, csrsim sweep) computes it; "
            "online policies: " + onlinePolicyNamesJoined());
    }
    csr_panic("unhandled PolicyKind %d", static_cast<int>(kind));
}

std::optional<PolicyKind>
parsePolicyKind(const std::string &name)
{
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "lru")
        return PolicyKind::Lru;
    if (lower == "random" || lower == "rand")
        return PolicyKind::Random;
    if (lower == "lfu")
        return PolicyKind::Lfu;
    if (lower == "gd" || lower == "greedydual")
        return PolicyKind::GreedyDual;
    if (lower == "bcl")
        return PolicyKind::Bcl;
    if (lower == "dcl")
        return PolicyKind::Dcl;
    if (lower == "acl")
        return PolicyKind::Acl;
    if (lower == "opt" || lower == "belady")
        return PolicyKind::Opt;
    if (lower == "costopt")
        return PolicyKind::CostOpt;
    return std::nullopt;
}

PolicyKind
requirePolicyKind(const std::string &name)
{
    if (auto kind = parsePolicyKind(name))
        return *kind;
    throw ConfigError("unknown replacement policy '" + name +
                      "' (valid: " + policyNamesJoined() + ")");
}

const std::vector<std::string> &
listPolicyNames()
{
    static const std::vector<std::string> names = {
        "lru", "random", "lfu", "gd", "bcl",
        "dcl", "acl",    "opt", "costopt",
    };
    return names;
}

std::string
policyNamesJoined(const std::string &sep)
{
    std::string out;
    for (const std::string &name : listPolicyNames())
        out += (out.empty() ? "" : sep) + name;
    return out;
}

std::string
onlinePolicyNamesJoined(const std::string &sep)
{
    std::string out;
    for (const std::string &name : listPolicyNames()) {
        const PolicyKind kind = *parsePolicyKind(name);
        if (kind != PolicyKind::Opt && kind != PolicyKind::CostOpt)
            out += (out.empty() ? "" : sep) + name;
    }
    return out;
}

std::string
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru:
        return "LRU";
      case PolicyKind::Random:
        return "Random";
      case PolicyKind::Lfu:
        return "LFU";
      case PolicyKind::GreedyDual:
        return "GD";
      case PolicyKind::Bcl:
        return "BCL";
      case PolicyKind::Dcl:
        return "DCL";
      case PolicyKind::Acl:
        return "ACL";
      case PolicyKind::Opt:
        return "OPT";
      case PolicyKind::CostOpt:
        return "CostOPT~";
    }
    return "?";
}

const std::vector<PolicyKind> &
paperPolicies()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::GreedyDual,
        PolicyKind::Bcl,
        PolicyKind::Dcl,
        PolicyKind::Acl,
    };
    return kinds;
}

} // namespace csr
