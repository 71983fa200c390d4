#include "wl/suite.hh"

#include "sim/log.hh"

namespace dvfs::wl {

namespace {

/**
 * Common defaults shared by the suite; per-benchmark factories below
 * override what makes each benchmark itself.
 */
WorkloadParams
base(const std::string &name, bool memory_intensive, std::uint32_t heap_mb)
{
    WorkloadParams p;
    p.name = name;
    p.memoryIntensive = memory_intensive;
    p.heapMB = heap_mb;
    p.runtime.nurseryBytes = 4ULL << 20;
    return p;
}

/**
 * xalan: XSLT transformation. Memory-intensive, allocation-heavy,
 * with contention on the shared document/table locks.
 */
WorkloadParams
xalan()
{
    WorkloadParams p = base("xalan", true, 108);
    p.workItems = 1400;
    p.computeInstr = 9000;
    p.l2LoadsPerItem = 10;
    p.clustersPerItem = 2;
    p.chainDepth = 3;
    p.chains = 2;
    p.clusterOverlapInstr = 1200;
    p.pHot = 0.25;
    p.pWarm = 0.35;
    p.allocBytesPerItem = 5632;
    p.allocChunkBytes = 5632;
    p.lockProb = 0.35;
    p.lockHoldInstr = 800;
    p.numLocks = 1;
    p.runtime.survivalRate = 0.40;
    return p;
}

/**
 * pmd: source-code analysis. Memory-intensive with deep pointer
 * chasing (AST traversal), phase barriers, and a straggler worker
 * caused by one oversized input file [14].
 */
WorkloadParams
pmd()
{
    WorkloadParams p = base("pmd", true, 98);
    p.workItems = 1320;
    p.computeInstr = 8500;
    p.l2LoadsPerItem = 8;
    p.clustersPerItem = 2;
    p.chainDepth = 5;
    p.chains = 1;
    p.clusterOverlapInstr = 700;
    p.pHot = 0.25;
    p.pWarm = 0.25;
    p.allocBytesPerItem = 2816;
    p.allocChunkBytes = 2816;
    p.lockProb = 0.20;
    p.lockHoldInstr = 600;
    p.numLocks = 1;
    p.barrierEvery = 200;
    p.stragglerFactor = 1.7;
    p.runtime.survivalRate = 0.80;
    p.runtime.nurseryBytes = 2ULL << 20;
    return p;
}

/** pmd.scale: pmd with the scaling bottleneck removed [14]. */
WorkloadParams
pmdScale()
{
    WorkloadParams p = pmd();
    p.name = "pmd.scale";
    p.stragglerFactor = 1.0;
    p.workItems = 700;
    return p;
}

/**
 * lusearch: text search with per-query needless allocation — the
 * heaviest allocator in the suite [43].
 */
WorkloadParams
lusearch()
{
    WorkloadParams p = base("lusearch", true, 68);
    p.workItems = 4600;
    p.computeInstr = 7000;
    p.l2LoadsPerItem = 6;
    p.clustersPerItem = 1;
    p.chainDepth = 2;
    p.chains = 2;
    p.clusterOverlapInstr = 800;
    p.pHot = 0.30;
    p.pWarm = 0.30;
    p.allocBytesPerItem = 4608;
    p.allocChunkBytes = 4608;
    p.lockProb = 0.05;
    p.lockHoldInstr = 200;
    p.numLocks = 1;
    p.runtime.survivalRate = 0.20;  // query-local garbage dies young
    return p;
}

/** lusearch.fix: the allocation fix of [43] — same search, ~8x less
 * allocation, turning the benchmark compute-intensive. */
WorkloadParams
lusearchFix()
{
    WorkloadParams p = lusearch();
    p.name = "lusearch.fix";
    p.memoryIntensive = false;
    p.workItems = 2900;
    p.allocBytesPerItem = 1280;
    p.allocChunkBytes = 1280;
    return p;
}

/**
 * avrora: AVR microcontroller simulation. Six threads with
 * fine-grained synchronization and limited parallelism [14]; barely
 * any allocation or DRAM traffic.
 */
WorkloadParams
avrora()
{
    WorkloadParams p = base("avrora", false, 98);
    p.appThreads = 6;
    p.workItems = 15700;
    p.computeInstr = 900;
    p.l2LoadsPerItem = 2;
    p.l3LoadsPerItem = 0;
    p.clustersPerItem = 1;
    p.chainDepth = 1;
    p.chains = 1;
    p.clusterOverlapInstr = 200;
    p.pHot = 0.75;
    p.pWarm = 0.22;
    p.allocBytesPerItem = 64;
    p.allocChunkBytes = 64;
    p.runtime.nurseryBytes = 1ULL << 20;
    p.lockProb = 0.85;
    p.lockHoldInstr = 150;
    p.numLocks = 3;
    p.runtime.survivalRate = 0.05;
    return p;
}

/**
 * sunflow: ray tracing. Long, cache-friendly parallel compute with
 * good MLP and little synchronization.
 */
WorkloadParams
sunflow()
{
    WorkloadParams p = base("sunflow", false, 108);
    p.workItems = 2750;
    p.computeInstr = 30'000;
    p.l2LoadsPerItem = 12;
    p.l3LoadsPerItem = 2;
    p.clustersPerItem = 2;
    p.chainDepth = 2;
    p.chains = 3;
    p.clusterOverlapInstr = 2500;
    p.pHot = 0.50;
    p.pWarm = 0.30;
    p.allocBytesPerItem = 1024;
    p.allocChunkBytes = 1024;
    p.lockProb = 0.02;
    p.lockHoldInstr = 200;
    p.numLocks = 1;
    p.runtime.survivalRate = 0.30;
    return p;
}

} // namespace

std::vector<WorkloadParams>
dacapoSuite()
{
    return {xalan(),       pmd(),    pmdScale(), lusearch(),
            lusearchFix(), avrora(), sunflow()};
}

WorkloadParams
benchmarkByName(const std::string &name)
{
    for (auto &p : dacapoSuite()) {
        if (p.name == name)
            return p;
    }
    if (name == "synthetic")
        return syntheticSmall();
    fatal("unknown benchmark '%s'", name.c_str());
}

WorkloadParams
syntheticSmall(std::uint32_t app_threads, std::uint64_t work_items)
{
    WorkloadParams p = base("synthetic", true, 64);
    p.appThreads = app_threads;
    p.workItems = work_items;
    p.computeInstr = 3000;
    p.clustersPerItem = 1;
    p.allocBytesPerItem = 1024;
    p.allocChunkBytes = 1024;
    p.lockProb = 0.2;
    p.serialSetupInstr = 10'000;
    p.serialTeardownInstr = 5'000;
    return p;
}

} // namespace dvfs::wl
