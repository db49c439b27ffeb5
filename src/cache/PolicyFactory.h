/**
 * @file
 * Construction of replacement policies by symbolic kind, so that
 * simulators, benches and examples can be configured with a string or
 * enum instead of hard-wiring types.
 */

#ifndef CSR_CACHE_POLICYFACTORY_H
#define CSR_CACHE_POLICYFACTORY_H

#include <optional>
#include <string>
#include <vector>

#include "cache/ReplacementPolicy.h"

namespace csr
{

/** Policy selector. */
enum class PolicyKind
{
    Lru,
    Random,
    Lfu,
    GreedyDual,
    Bcl,
    Dcl,
    Acl,
    Opt,        ///< offline Belady OPT (miss count); TraceStudy only
    CostOpt,    ///< offline greedy cost-weighted oracle; TraceStudy only
};

/** Tunables shared by the factory. */
struct PolicyParams
{
    /** ETD tag aliasing for DCL/ACL (0 = full tags). */
    unsigned etdAliasBits = 0;
    /** Acost depreciation multiplier for BCL/DCL/ACL (paper: 2). */
    double depreciationFactor = 2.0;
    /** Seed for RandomPolicy. */
    std::uint64_t seed = 0xC5CADAull;
};

/** Build an online policy instance.  The offline oracles (Opt,
 *  CostOpt) need the whole future, so no cache can run them: they
 *  throw ConfigError naming the online policies, and
 *  TraceStudy::run computes them in one pass over a trace. */
PolicyPtr makePolicy(PolicyKind kind, const CacheGeometry &geom,
                     const PolicyParams &params = {});

/** Parse "lru" / "gd" / "bcl" / "dcl" / "acl" / ... (case-insensitive);
 *  std::nullopt on unknown names so callers can report their own
 *  diagnostic (CLIs print listPolicyNames()). */
std::optional<PolicyKind> parsePolicyKind(const std::string &name);

/** Like parsePolicyKind but throws ConfigError on unknown names,
 *  with the valid names in the diagnostic (grid specs, replay and
 *  bench flags -- drivers map it to exitcode::kConfig). */
PolicyKind requirePolicyKind(const std::string &name);

/** The accepted canonical policy names, parse order
 *  ("lru random lfu gd bcl dcl acl opt costopt"), for error messages
 *  and --help text. */
const std::vector<std::string> &listPolicyNames();

/** listPolicyNames() joined with @p sep ("|" for usage strings). */
std::string policyNamesJoined(const std::string &sep = "|");

/** The online policies only: listPolicyNames() without the offline
 *  oracles opt and costopt, which makePolicy refuses. */
std::string onlinePolicyNamesJoined(const std::string &sep = "|");

/** Display name matching the paper's terminology. */
std::string policyKindName(PolicyKind kind);

/** The four cost-sensitive algorithms evaluated by the paper, in the
 *  order its tables use: GD, BCL, DCL, ACL. */
const std::vector<PolicyKind> &paperPolicies();

} // namespace csr

#endif // CSR_CACHE_POLICYFACTORY_H
