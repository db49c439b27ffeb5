/**
 * @file
 * Parallel experiment sweep engine.
 *
 * The paper's evaluation is a grid: {policy} x {benchmark} x {cost
 * mapping} x {cost ratio, HAF} x {geometry, tunables}.  Every cell is
 * an independent trace-study simulation, so the grid is
 * embarrassingly parallel.  SweepRunner expands a declarative
 * SweepGrid into cells, fans them out across a bounded ThreadPool,
 * and aggregates the results in stable grid order.
 *
 * Determinism: every stochastic input of a cell is seeded from the
 * cell's own configuration hash (see SweepCell::hash()), never from a
 * shared generator, so results are bit-identical regardless of thread
 * count or completion order.  Expensive shared state -- the sampled
 * trace of a benchmark and the LRU miss profile of a (trace,
 * geometry) pair -- is built once per unique key (itself in parallel)
 * and then only read concurrently.
 */

#ifndef CSR_SIM_SWEEPRUNNER_H
#define CSR_SIM_SWEEPRUNNER_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cache/PolicyFactory.h"
#include "cost/CostModel.h"
#include "robust/Errors.h"
#include "sim/TraceStudy.h"
#include "trace/SampledTrace.h"
#include "trace/WorkloadFactory.h"
#include "util/Stats.h"
#include "util/Table.h"

namespace csr
{

/** Which Section 3 static cost mapping a cell uses. */
enum class CostMapping
{
    Random,     ///< RandomTwoCost(ratio, HAF)
    FirstTouch, ///< FirstTouchTwoCost from the trace's home map
};

std::string costMappingName(CostMapping mapping);

/** Parse "random" / "first-touch" (case-insensitive); throws
 *  ConfigError on unknown names. */
CostMapping parseCostMapping(const std::string &name);

/**
 * One point of a sweep: a full trace-study simulation configuration.
 */
struct SweepCell
{
    BenchmarkId benchmark = BenchmarkId::Barnes;
    /** Non-empty: this cell simulates a recorded .csrt trace instead
     *  of the synthetic benchmark (the benchmark field is then
     *  ignored; see SweepGrid::traceFiles). */
    std::string traceFile;
    PolicyKind policy = PolicyKind::Dcl;
    CostMapping mapping = CostMapping::Random;
    CostRatio ratio = CostRatio::finite(4);
    /** High-cost access fraction; only meaningful for Random. */
    double haf = 0.3;
    std::uint64_t l2Bytes = 16 * 1024;
    std::uint32_t l2Assoc = 4;
    unsigned etdAliasBits = 0;
    double depreciationFactor = 2.0;
    WorkloadScale scale = WorkloadScale::Small;

    /**
     * Stable 64-bit hash of every configuration field.  Used as the
     * seed of all of the cell's random draws, so a cell's result is a
     * pure function of its configuration.
     */
    std::uint64_t hash() const;

    /**
     * Hash of the cost-mapping fields only (benchmark, mapping,
     * ratio, HAF, scale).  Seeds RandomTwoCost, so every policy
     * evaluated at one experiment point sees the *same* cost mapping
     * -- the paper compares policies under a single mapping.
     */
    std::uint64_t mappingHash() const;

    /** Compact "barnes/dcl/random/r=4/haf=0.30" style label. */
    std::string label() const;
};

/** A cell of the source @p trace_file if non-empty (a `traces=` cell;
 *  @p benchmark is ignored), else @p benchmark.  SweepGrid::expand
 *  and `csrsim trace [--load-trace]` both start here, so one source
 *  hashes to one cost mapping. */
SweepCell sourceCell(BenchmarkId benchmark, const std::string &trace_file,
                     WorkloadScale scale);

/**
 * The cost model of @p cell over @p trace: RandomTwoCost seeded with
 * cell.mappingHash(), or FirstTouchTwoCost from the trace's homes.
 * `csrsim trace` builds its model here too, so it prints the sweep
 * cell's numbers.
 */
std::unique_ptr<const CostModel> makeCellCostModel(const SweepCell &cell,
                                                   const SampledTrace &trace);

/**
 * Declarative cross product of sweep dimensions.  expand() emits the
 * cells in a stable nested-loop order (benchmark outermost,
 * depreciation innermost); FirstTouch mappings ignore the HAF axis,
 * so it is collapsed for them rather than duplicating cells.
 */
struct SweepGrid
{
    WorkloadScale scale = WorkloadScale::Small;
    std::vector<BenchmarkId> benchmarks = paperBenchmarks();
    /** Recorded .csrt traces (grid key "traces=a.csrt,b.csrt").  When
     *  non-empty this REPLACES the benchmarks axis: each file becomes
     *  a workload source cell, read by replay::loadSampledRecords
     *  exactly as csrsim trace --load-trace reads it.  A file has no
     *  page placement, so expand() throws ConfigError if mappings
     *  holds FirstTouch.  Empty (the default) leaves synthetic grids
     *  -- and their checkpoint fingerprints -- untouched. */
    std::vector<std::string> traceFiles;
    std::vector<PolicyKind> policies = paperPolicies();
    std::vector<CostMapping> mappings = {CostMapping::Random};
    std::vector<CostRatio> ratios = {CostRatio::finite(4)};
    std::vector<double> hafs = {0.3};
    std::vector<std::uint64_t> l2Sizes = {16 * 1024};
    std::vector<std::uint32_t> assocs = {4};
    std::vector<unsigned> aliasBits = {0};
    std::vector<double> depreciations = {2.0};

    std::vector<SweepCell> expand() const;
};

/** Result of one cell's simulation. */
struct SweepCellResult
{
    SweepCell cell;
    std::size_t index = 0;    ///< position in the expanded grid
    std::uint64_t seed = 0;   ///< cell.hash(), the seed actually used
    std::uint64_t sampledRefs = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    double aggregateCost = 0.0;
    double lruCost = 0.0;
    double savingsPct = 0.0;
    double taskSec = 0.0;     ///< wall clock of this cell's task
};

/**
 * One cell that did not produce a result: the typed error it died
 * with and how many attempts it was given.  Failures are first-class
 * sweep output -- they appear in the JSON appendix and the failure
 * table, and are journaled to checkpoints like successes.
 */
struct CellFailure
{
    SweepCell cell;
    std::size_t index = 0;   ///< position in the expanded grid
    std::string kind;        ///< Error::kind(), or "std::exception"
    std::string message;     ///< what() of the final attempt
    unsigned attempts = 1;   ///< attempts consumed (>= 1)
};

/** Results of a whole sweep, in stable grid order. */
struct SweepResult
{
    std::vector<SweepCellResult> cells; ///< successes, grid order
    std::vector<CellFailure> failures;  ///< failed cells, grid order
    std::size_t gridCells = 0;          ///< size of the expanded grid
    std::size_t resumedCells = 0;       ///< restored from a checkpoint
    unsigned jobs = 1;
    double wallSec = 0.0;       ///< whole sweep, including setup
    double setupSec = 0.0;      ///< trace + LRU-profile construction
    double taskSecTotal = 0.0;  ///< sum of per-cell task times
    double taskSecMax = 0.0;

    bool complete() const { return failures.empty(); }

    /** Flat per-cell table (one row per *successful* cell). */
    TextTable toTable(const std::string &title = "sweep") const;

    /** Failure appendix: one row per failed cell (empty table when
     *  the sweep was complete). */
    TextTable failureTable() const;

    /** Jobs / wall / task-seconds / speedup / throughput summary. */
    TextTable timingTable() const;

    /**
     * Machine-readable dump: one object per cell in stable grid
     * order, plus the failure appendix (CI archives these as
     * artifacts).  @p include_timing adds the wall/setup/task
     * summary; pass false for byte-stable output across runs (the
     * checkpoint/resume equivalence contract).  Throws ConfigError if
     * @p path cannot be written.
     */
    void writeJson(const std::string &path,
                   bool include_timing = true) const;
};

/**
 * Robustness knobs of a sweep run.  The defaults reproduce the
 * historical behaviour (one attempt, no journal) except that a
 * failing cell no longer takes the whole grid down with it.
 */
struct SweepOptions
{
    /** Attempts per cell (>= 1).  A retry re-runs the cell at once
     *  from the shared setup, with a fresh fault-injection scope. */
    unsigned maxAttempts = 1;

    /** Append-only journal of cell outcomes (sim/SweepCheckpoint.h);
     *  empty = off. */
    std::string checkpointPath;

    /** Restore finished cells from checkpointPath and only run the
     *  remainder.  The journal must match the grid (fingerprint). */
    bool resume = false;

    /** Cadence (in sampled refs) of cache/policy invariant checks
     *  inside each cell's simulation; 0 = off. */
    std::uint64_t validateEveryRefs = 0;

    /**
     * Test hook: runs at the start of every (cell, attempt) inside
     * the per-cell guard.  A throw here is handled exactly like a
     * simulator failure, which lets a test script exactly which
     * (cell, attempt) fails, where the fault injector only draws.
     */
    std::function<void(const SweepCell &, unsigned attempt)> cellProbe;
};

/**
 * The engine.  jobs == 0 means one worker per hardware thread.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(unsigned jobs = 0);

    /** Run every cell of @p grid; results come back in grid order.
     *  Cell failures are isolated (see SweepOptions). */
    SweepResult run(const SweepGrid &grid,
                    const SweepOptions &options = {}) const;

    using TraceMap =
        std::map<BenchmarkId, std::shared_ptr<const SampledTrace>>;

    /** Build the sampled traces of @p benchmarks in parallel (the
     *  engine's setup phase, also useful on its own, e.g. Table 1). */
    TraceMap buildTraces(const std::vector<BenchmarkId> &benchmarks,
                         WorkloadScale scale) const;

    unsigned jobs() const { return jobs_; }

  private:
    unsigned jobs_;
};

/**
 * How a preset prints its cells as the paper's tables: one table per
 * distinct title(), one row per distinct tuple of row keys, one column
 * per distinct column(), each entry the cell's savings over LRU to 2
 * decimals.  Titles, rows and columns appear in first-encounter order,
 * which is the grid's expansion order, and a row x column pair with no
 * cell prints "-".  With several row keys (Table 2's benchmark and
 * algorithm), a leading label prints only where it changes, and a rule
 * separates rows whose first label differs.
 */
struct SweepView
{
    using Key = std::string (*)(const SweepCellResult &);

    struct RowKey
    {
        std::string header;
        Key key;
    };

    Key title; ///< the pane key: one table per title
    std::vector<RowKey> rows;
    Key column;

    /** Print the tables of @p cells; a multi-table view ends each
     *  table with a blank line. */
    void print(std::ostream &os,
               const std::vector<SweepCellResult> &cells) const;
};

/** A named grid: a parseGridSpec key list and, for the paper's
 *  tables and figures, the view that prints them. */
struct SweepPreset
{
    std::string name;
    std::string spec;
    std::optional<SweepView> view;
};

/** Every named grid, in the order usage text lists them. */
const std::vector<SweepPreset> &sweepPresets();

/** The preset called @p name, or nullptr. */
const SweepPreset *findPreset(const std::string &name);

/**
 * Parse a grid specification: either a preset name, or a semicolon
 * separated "key=v1,v2,..." list with keys benchmarks, policies,
 * mappings, ratios (numbers or "inf"), hafs, l2, assocs, alias-bits,
 * depreciations, traces, scale.  Unset keys keep SweepGrid defaults.
 * Throws ConfigError on malformed input or an unknown preset name.
 */
SweepGrid parseGridSpec(const std::string &spec);

} // namespace csr

#endif // CSR_SIM_SWEEPRUNNER_H
