#include "sim/simulator.hh"

#include <algorithm>
#include <cassert>
#include <memory>
#include <type_traits>

#include "core/core.hh"
#include "dram/dram.hh"
#include "sim/memory_system.hh"
#include "sim/multicore.hh"
#include "sim/scheduler.hh"
#include "stats/stats.hh"

namespace ecdp
{

namespace
{

using Phase = obs::PhaseProfiler::Phase;

/**
 * One run's machine: a pair of memory system and core per workload
 * around one shared DRAM, and the event-driven loop that drives them.
 * A single-core run is the n = 1 case without wrap-around.
 */
class System
{
  public:
    System(const SystemConfig &cfg,
           const std::vector<const Workload *> &workloads, bool wrap,
           const Observability &obs)
        : cfg_(cfg), workloads_(workloads), prof_(obs.phases),
          n_(static_cast<unsigned>(workloads.size())),
          dram_(cfg.dram, n_, cfg.l2BlockBytes), sched_(obs.metrics, n_)
    {
        dram_.attachObservability(obs);
        for (unsigned i = 0; i < n_; ++i) {
            memories_.push_back(std::make_unique<MemorySystem>(
                cfg, i, workloads[i]->image.clone(), &dram_, &obs));
            cores_.push_back(std::make_unique<Core>(
                workloads[i], memories_.back().get(), cfg.core));
            cores_.back()->setWrapAround(wrap);
            // Progress source for the throttle policy's interval IPC
            // deltas (pure observation; rule policies ignore it).
            memories_.back()->attachCore(cores_.back().get());
        }
    }

    /**
     * Run until every core finished its first pass or the watchdog
     * fires; returns the cycle the loop stopped at. Each iteration
     * ticks the pairs that are due, memories first, then cores, in
     * index order; a pair that is not due would have made a no-op
     * tick (DESIGN.md §9). The clock then jumps to the earliest cycle
     * any pair or the DRAM can act on.
     */
    Cycle run()
    {
        // A constant pair count lets the compiler drop the per-pair
        // loops of a single-core run.
        return n_ == 1 ? loop(std::integral_constant<unsigned, 1>{})
                       : loop(n_);
    }

    /**
     * Stats of pair @p i for a loop that stopped at @p end: over its
     * first pass, or up to @p end when the watchdog cut it off
     * (checked unconditionally, not via an assert that NDEBUG would
     * drop). The measured cycles are at least @p floor.
     */
    RunStats stats(unsigned i, Cycle end, Cycle floor)
    {
        const Core &core = *cores_[i];
        RunStats stats;
        stats.workload = workloads_[i]->name;
        stats.timedOut = !core.finishedOnce();
        stats.cycles =
            std::max(stats.timedOut ? end : core.finishCycle(), floor);
        // retiredFirstPass() is only latched at completion; a
        // timed-out run reports whatever actually retired.
        stats.instructions =
            stats.timedOut ? core.retired() : core.retiredFirstPass();
        stats.ipc = stats.cycles.raw() == 0
            ? 0.0
            : static_cast<double>(stats.instructions) /
                  static_cast<double>(stats.cycles.raw());
        stats.busTransactions = dram_.busTransactions(i);
        stats.bpki = stats.instructions == 0
            ? 0.0
            : 1000.0 * static_cast<double>(stats.busTransactions) /
                  static_cast<double>(stats.instructions);
        memories_[i]->collectStats(stats, stats.cycles);
        return stats;
    }

  private:
    template <typename Count>
    Cycle loop(Count n)
    {
        const bool skipping = cfg_.cycleSkipping;
        const Cycle limit = cfg_.maxCycles;
        obs::PhaseProfiler *const prof = prof_;
        // Phases switch directly, three clock reads an iteration; the
        // loop's bookkeeping is Scheduler time.
        obs::PhaseProfiler::Scoped scope(prof, Phase::Scheduler);
        const auto enter = [prof](Phase phase) {
            if (prof)
                prof->switchTo(phase);
        };
        unsigned running = n;
        Cycle cycle{};
        while (running > 0 && cycle < limit) {
            unsigned ticked = 0;
            enter(Phase::MemTick);
            for (unsigned i = 0; i < n; ++i) {
                if (sched_.due(i, cycle))
                    memories_[i]->tick(cycle);
            }
            enter(Phase::CoreTick);
            for (unsigned i = 0; i < n; ++i) {
                if (!sched_.due(i, cycle))
                    continue;
                Core &core = *cores_[i];
                const bool was_done = core.finishedOnce();
                core.tick(cycle);
                running -= !was_done && core.finishedOnce();
                ++ticked;
            }
            enter(Phase::Scheduler);
            sched_.iteration(ticked);
            Cycle next = cycle + 1;
            if (skipping && running > 0) {
                for (unsigned i = 0; i < n; ++i) {
                    if (!sched_.due(i, cycle))
                        continue;
                    sched_.rewake(
                        i, cycle,
                        [&] { return memories_[i]->nextEvent(cycle); },
                        [&] {
                            return NextEvent{
                                cores_[i]->nextEventCycle(cycle),
                                SchedPin::Core};
                        });
                }
                // All-idle with no scheduled event is a hang; the
                // clamp jumps to the watchdog so the loop exits at the
                // cycle count the polling loop would have spun to.
                next = sched_.next(cycle, limit, [&] {
                    return dram_.nextEventCycle(cycle);
                });
            }
            cycle = next;
        }
        return cycle;
    }

    const SystemConfig &cfg_;
    const std::vector<const Workload *> &workloads_;
    obs::PhaseProfiler *prof_;
    const unsigned n_;
    DramSystem dram_;
    std::vector<std::unique_ptr<MemorySystem>> memories_;
    std::vector<std::unique_ptr<Core>> cores_;
    EventScheduler sched_;
};

} // namespace

RunStats
simulate(const SystemConfig &cfg, const Workload &workload,
         const Observability &obs)
{
    const std::vector<const Workload *> workloads{&workload};
    System machine(cfg, workloads, false, obs);
    const Cycle end = machine.run();
    obs::PhaseProfiler::Scoped scope(obs.phases, Phase::Stats);
    // A run that stops at cycle 0 still reports finite IPC.
    return machine.stats(0, end, Cycle{1});
}

MultiCoreResult
simulateMultiCore(const SystemConfig &cfg,
                  const std::vector<const Workload *> &workloads,
                  const std::vector<double> &alone_ipc,
                  const Observability &obs)
{
    assert(!workloads.empty());
    assert(alone_ipc.size() == workloads.size());
    System machine(cfg, workloads, true, obs);
    const Cycle end = machine.run();
    obs::PhaseProfiler::Scoped scope(obs.phases, Phase::Stats);
    MultiCoreResult result;
    std::vector<double> ratios;
    for (unsigned i = 0; i < workloads.size(); ++i) {
        result.perCore.push_back(machine.stats(i, end, Cycle{}));
        const RunStats &stats = result.perCore.back();
        result.timedOut = result.timedOut || stats.timedOut;
        // Every bus transaction is attributed to exactly one core.
        result.busTransactions += stats.busTransactions;
        ratios.push_back(alone_ipc[i] <= 0.0 ? 1.0
                                             : stats.ipc / alone_ipc[i]);
        result.weightedSpeedup += ratios.back();
    }
    result.hmeanSpeedup = hmean(ratios);
    return result;
}

} // namespace ecdp
