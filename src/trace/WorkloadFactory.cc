#include "trace/WorkloadFactory.h"

#include <algorithm>
#include <cctype>

#include "robust/Errors.h"
#include "trace/BarnesWorkload.h"
#include "trace/LuWorkload.h"
#include "trace/OceanWorkload.h"
#include "trace/RaytraceWorkload.h"
#include "util/Logging.h"

namespace csr
{

const std::vector<BenchmarkId> &
paperBenchmarks()
{
    static const std::vector<BenchmarkId> ids = {
        BenchmarkId::Barnes,
        BenchmarkId::Lu,
        BenchmarkId::Ocean,
        BenchmarkId::Raytrace,
    };
    return ids;
}

std::string
benchmarkName(BenchmarkId id)
{
    switch (id) {
      case BenchmarkId::Barnes:
        return "Barnes";
      case BenchmarkId::Lu:
        return "LU";
      case BenchmarkId::Ocean:
        return "Ocean";
      case BenchmarkId::Raytrace:
        return "Raytrace";
    }
    return "?";
}

namespace
{

std::string
lowered(const std::string &name)
{
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return lower;
}

} // namespace

BenchmarkId
parseBenchmark(const std::string &name)
{
    const std::string lower = lowered(name);
    if (lower == "barnes")
        return BenchmarkId::Barnes;
    if (lower == "lu")
        return BenchmarkId::Lu;
    if (lower == "ocean")
        return BenchmarkId::Ocean;
    if (lower == "raytrace")
        return BenchmarkId::Raytrace;
    throw ConfigError("unknown benchmark '" + name +
                      "' (valid: barnes|lu|ocean|raytrace)");
}

const char *
workloadScaleName(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Test:
        return "test";
      case WorkloadScale::Small:
        return "small";
      case WorkloadScale::Full:
        return "full";
    }
    return "?";
}

WorkloadScale
parseWorkloadScale(const std::string &name)
{
    const std::string lower = lowered(name);
    for (const WorkloadScale scale :
         {WorkloadScale::Test, WorkloadScale::Small, WorkloadScale::Full})
        if (lower == workloadScaleName(scale))
            return scale;
    throw ConfigError("unknown scale '" + name +
                      "' (valid: test small full)");
}

namespace
{

/** Sampled-processor reference budget per scale. */
std::uint64_t
refBudget(WorkloadScale scale, bool numa_sized)
{
    switch (scale) {
      case WorkloadScale::Test:
        return numa_sized ? 4000 : 20000;
      case WorkloadScale::Small:
        return numa_sized ? 60000 : 800000;
      case WorkloadScale::Full:
        return numa_sized ? 400000 : 12000000;
    }
    return 0;
}

} // namespace

std::unique_ptr<SyntheticWorkload>
makeWorkload(const WorkloadConfig &config)
{
    const BenchmarkId id = parseBenchmark(config.name);
    const WorkloadScale scale = config.scale;
    const bool numa_sized = config.numaSized;
    const std::uint64_t refs = refBudget(scale, numa_sized);
    switch (id) {
      case BenchmarkId::Barnes: {
        BarnesParams p;
        p.targetRefsPerProc = refs;
        if (scale == WorkloadScale::Test) {
            p.numBodies = 512;
            p.numCells = 256;
            p.chunkBodies = 16;
            p.groupBodies = 16;
        }
        if (numa_sized) {
            // Section 4.2: Barnes shrinks to 4K particles (already our
            // trace-study size); shrink further so NUMA runs finish.
            p.numBodies = scale == WorkloadScale::Test ? 256 : 2048;
            p.numCells = p.numBodies / 2;
            p.groupBodies = scale == WorkloadScale::Test ? 8 : 32;
            p.chunkBodies = p.groupBodies;
        }
        return std::make_unique<BarnesWorkload>(p, config);
      }
      case BenchmarkId::Lu: {
        LuParams p;
        p.targetRefsPerProc = refs;
        if (scale == WorkloadScale::Test)
            p.matrixDim = 128;
        if (numa_sized)
            p.matrixDim = scale == WorkloadScale::Test ? 96 : 256;
        return std::make_unique<LuWorkload>(p, config);
      }
      case BenchmarkId::Ocean: {
        OceanParams p;
        p.targetRefsPerProc = refs;
        if (scale == WorkloadScale::Test) {
            p.gridDim = 66;
            p.numGrids = 4;
            // Scale the shared multigrid phase with the sweep volume.
            p.coarseBlocksPerIter = 30;
        }
        if (numa_sized)
            p.gridDim = scale == WorkloadScale::Test ? 66 : 258;
        return std::make_unique<OceanWorkload>(p, config);
      }
      case BenchmarkId::Raytrace: {
        RaytraceParams p;
        p.targetRefsPerProc = refs;
        if (scale == WorkloadScale::Test)
            p.sceneBlocks = 4096;
        if (numa_sized)
            p.sceneBlocks = scale == WorkloadScale::Test ? 4096 : 16384;
        return std::make_unique<RaytraceWorkload>(p, config);
      }
    }
    csr_panic("unhandled BenchmarkId %d", static_cast<int>(id));
}

std::unique_ptr<SyntheticWorkload>
makeWorkload(BenchmarkId id, WorkloadScale scale, bool numa_sized)
{
    WorkloadConfig config;
    config.name = benchmarkName(id);
    config.scale = scale;
    config.numaSized = numa_sized;
    return makeWorkload(config);
}

} // namespace csr
