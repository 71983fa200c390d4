#include "wl/builder.hh"

#include "sim/log.hh"

namespace dvfs::wl {

os::SystemConfig
defaultSystemConfig(Frequency core_freq)
{
    os::SystemConfig cfg;
    cfg.coreFreq = core_freq;
    return cfg;
}

BenchInstance
buildBenchmark(const WorkloadParams &params, const os::SystemConfig &sys_cfg)
{
    if (params.appThreads == 0)
        fatal("benchmark '%s' needs at least one worker",
              params.name.c_str());
    if (params.workItems == 0)
        fatal("benchmark '%s' needs at least one work item",
              params.name.c_str());
    if (params.allocBytesPerItem > 0 && params.allocChunkBytes == 0)
        fatal("benchmark '%s': allocChunkBytes must be positive when "
              "items allocate", params.name.c_str());
    if (params.lockProb < 0.0 || params.lockProb > 1.0 ||
        params.pHot < 0.0 || params.pWarm < 0.0 ||
        params.pHot + params.pWarm > 1.0)
        fatal("benchmark '%s': probabilities must lie in [0,1]",
              params.name.c_str());
    if (params.lockProb > 0.0 && params.numLocks == 0)
        fatal("benchmark '%s' takes locks but defines none",
              params.name.c_str());

    BenchInstance inst;
    inst.sys = std::make_unique<os::System>(sys_cfg);
    os::System &sys = *inst.sys;

    inst.shared = std::make_unique<SharedWorkload>();
    SharedWorkload &sh = *inst.shared;
    sh.params = params;

    for (std::uint32_t i = 0; i < params.numLocks; ++i)
        sh.locks.push_back(sys.createMutex());
    if (params.barrierEvery > 0)
        sh.barrier = sys.createBarrier(params.appThreads);

    for (std::uint32_t w = 0; w < params.appThreads; ++w) {
        auto prog = std::make_unique<WorkerProgram>(sh, w);
        sh.workers.push_back(sys.addThread(
            strprintf("%s-worker-%u", params.name.c_str(), w),
            std::move(prog)));
    }
    inst.mainTid = sys.addThread(params.name + "-main",
                                 std::make_unique<MainProgram>(sh));
    sys.setMainThread(inst.mainTid);

    inst.runtime = std::make_unique<rt::Runtime>(sys, params.runtime);
    inst.runtime->attach();

    return inst;
}

} // namespace dvfs::wl
