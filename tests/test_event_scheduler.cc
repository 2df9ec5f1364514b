/**
 * @file
 * Exactness tests for the event-driven cycle-skipping scheduler.
 *
 * Cycle skipping is a pure wall-clock optimisation: the simulation
 * loop jumps the clock to the next cycle any component can act on
 * instead of ticking through provably idle cycles. These tests pin
 * the "pure" part: the complete RunStats JSON — every counter, the
 * cycle count, the interval series, the timeout flag — and every
 * metric-registry counter except the scheduler's own sched.* ones
 * must be identical with skipping on and off, across the prefetcher /
 * throttler / oracle configuration matrix, in single- and multi-core
 * runs, and through the maxCycles watchdog. The registry carries what
 * the JSON does not, notably dram.buffer_rejects, which skipping
 * credits in one step for a prefetch the DRAM buffer keeps refusing.
 *
 * Also covers the trailing-partial-interval flush: a run that ends
 * mid-feedback-interval emits one final sample at its end cycle
 * instead of silently dropping its tail from the series.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/scheduler.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace
{

const HintTable &
trainHints(const std::string &bench)
{
    static std::map<std::string, HintTable> cache;
    auto it = cache.find(bench);
    if (it == cache.end()) {
        it = cache
                 .emplace(bench,
                          ProfilingCompiler::profile(
                              buildWorkload(bench, InputSet::Train)))
                 .first;
    }
    return it->second;
}

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "exactness");
    return os.str();
}

/** Skipping off and on, each run with its own registry. */
template <typename Result>
struct ExactPair
{
    Result polled;
    Result skipped;
    obs::MetricRegistry polledMetrics;
    obs::MetricRegistry skippedMetrics;
};

/** Run @p run(cfg, obs) with skipping forced off and on, and require
 *  identical registries. */
template <typename Result, typename Run>
void
runBothModes(SystemConfig cfg, ExactPair<Result> &out, Run run)
{
    cfg.cycleSkipping = false;
    out.polled = run(cfg, Observability{&out.polledMetrics, nullptr});
    cfg.cycleSkipping = true;
    out.skipped = run(cfg, Observability{&out.skippedMetrics, nullptr});
    EXPECT_EQ(machineCounters(out.polledMetrics),
              machineCounters(out.skippedMetrics));
}

/** Run @p bench under @p cfg with skipping forced on and off and
 *  require byte-identical stats JSON and identical registries.
 *  Returns the (shared) stats; @p metrics, when given, receives the
 *  skipping run's registry. */
RunStats
expectExact(const std::string &bench, SystemConfig cfg,
            obs::MetricRegistry *metrics = nullptr)
{
    const Workload workload = buildWorkload(bench, InputSet::Train);
    ExactPair<RunStats> pair;
    runBothModes(cfg, pair,
                 [&](const SystemConfig &c, const Observability &obs) {
                     return simulate(c, workload, obs);
                 });
    EXPECT_EQ(statsJson(pair.polled), statsJson(pair.skipped)) << bench;
    if (metrics)
        *metrics = pair.skippedMetrics;
    return pair.skipped;
}

/** expectExact() for a multi-core mix of @p benches. */
MultiCoreResult
expectExactMix(const std::vector<std::string> &benches,
               const SystemConfig &cfg)
{
    std::vector<Workload> workloads;
    for (const std::string &bench : benches)
        workloads.push_back(buildWorkload(bench, InputSet::Train));
    std::vector<const Workload *> mix;
    for (const Workload &workload : workloads)
        mix.push_back(&workload);
    const std::vector<double> alone(mix.size(), 1.0);

    ExactPair<MultiCoreResult> pair;
    runBothModes(cfg, pair,
                 [&](const SystemConfig &c, const Observability &obs) {
                     return simulateMultiCore(c, mix, alone, obs);
                 });
    const MultiCoreResult &polled = pair.polled;
    const MultiCoreResult &skipped = pair.skipped;
    EXPECT_EQ(polled.timedOut, skipped.timedOut);
    EXPECT_EQ(polled.busTransactions, skipped.busTransactions);
    EXPECT_DOUBLE_EQ(polled.weightedSpeedup, skipped.weightedSpeedup);
    EXPECT_DOUBLE_EQ(polled.hmeanSpeedup, skipped.hmeanSpeedup);
    EXPECT_EQ(polled.perCore.size(), skipped.perCore.size());
    for (std::size_t i = 0;
         i < std::min(polled.perCore.size(), skipped.perCore.size());
         ++i) {
        EXPECT_EQ(statsJson(polled.perCore[i]),
                  statsJson(skipped.perCore[i]))
            << "core " << i;
    }
    return pair.skipped;
}

struct ExactCase
{
    const char *bench;
    const char *config;
};

/** Names the case by value, so test ids do not embed addresses. */
void
PrintTo(const ExactCase &c, std::ostream *os)
{
    *os << c.bench << ":" << c.config;
}

class SkippingIsExact : public ::testing::TestWithParam<ExactCase>
{
};

SystemConfig
caseConfig(const ExactCase &c)
{
    const std::string config = c.config;
    if (config == "noprefetch")
        return configs::noPrefetch();
    if (config == "baseline")
        return configs::baseline();
    if (config == "cdp")
        return configs::streamCdp();
    if (config == "cdp+throttle")
        return configs::streamCdpThrottled();
    if (config == "full")
        return configs::fullProposal(&trainHints(c.bench));
    if (config == "ecdp+fdp")
        return configs::streamEcdpFdp(&trainHints(c.bench));
    if (config == "cdp+pab")
        return configs::streamCdpPab();
    if (config == "dbp")
        return configs::streamDbp();
    if (config == "markov")
        return configs::streamMarkov();
    if (config == "side-buffer") {
        SystemConfig cfg = configs::streamCdp();
        cfg.idealNoPollution = true;
        return cfg;
    }
    throw std::runtime_error("unknown exactness config " + config);
}

TEST_P(SkippingIsExact, StatsJsonIsByteIdentical)
{
    const ExactCase &c = GetParam();
    RunStats stats = expectExact(c.bench, caseConfig(c));
    // Sanity: these runs actually finish and do real work.
    EXPECT_FALSE(stats.timedOut);
    EXPECT_GT(stats.cycles, Cycle{});
    EXPECT_GT(stats.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, SkippingIsExact,
    ::testing::Values(ExactCase{"health", "baseline"},
                      ExactCase{"mst", "cdp+throttle"},
                      ExactCase{"bisort", "full"},
                      ExactCase{"perimeter", "ecdp+fdp"},
                      ExactCase{"health", "cdp+pab"},
                      ExactCase{"mst", "dbp"},
                      ExactCase{"bisort", "markov"},
                      ExactCase{"health", "side-buffer"},
                      ExactCase{"mst", "noprefetch"},
                      // Unthrottled CDP: the ready-queue head spends
                      // most cycles blocked on the MSHR demand reserve
                      // (mst, perlbench) or refused by the DRAM buffer
                      // (omnetpp, ammp), the cycles skipping jumps.
                      ExactCase{"mst", "cdp"},
                      ExactCase{"perlbench", "cdp"},
                      ExactCase{"omnetpp", "cdp"},
                      ExactCase{"ammp", "cdp"}),
    [](const ::testing::TestParamInfo<ExactCase> &info) {
        std::string name = std::string(info.param.bench) + "_" +
                           info.param.config;
        for (char &ch : name) {
            if (ch == '+' || ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(SkippingIsExactEdge, SmallBlockSizeConfig)
{
    // 64 B blocks exercise the block-size-derived DRAM bank hash
    // together with the scheduler.
    SystemConfig cfg = configs::baseline();
    cfg.l1BlockBytes = 64;
    cfg.l2BlockBytes = 64;
    expectExact("health", cfg);
}

TEST(SkippingIsExactEdge, MaxCyclesWatchdog)
{
    // A run cut off by the watchdog must time out at the identical
    // cycle with the identical partial stats: the skipping loop
    // clamps its jumps to maxCycles.
    SystemConfig cfg = configs::baseline();
    cfg.maxCycles = Cycle{20'000};
    RunStats stats = expectExact("health", cfg);
    EXPECT_TRUE(stats.timedOut);
    EXPECT_EQ(stats.cycles, Cycle{20'000});
}

TEST(SkippingIsExactEdge, MaxCyclesWatchdogWithDramBlockedHead)
{
    // ammp under unthrottled CDP, cut off inside a stretch where
    // the DRAM buffer refuses the ready-queue head on every cycle.
    // The skipping loop must still count the refusals of the cycles
    // it skips before the watchdog fires.
    constexpr std::uint64_t kCutoff = 146'704;
    constexpr std::uint64_t kStretch = 40;
    const SystemConfig cdp = configs::streamCdp();
    const Workload workload = buildWorkload("ammp", InputSet::Train);

    // Precondition, checked by polling: each of the last kStretch
    // cycles before the cutoff made one refused read. If a model
    // change breaks it, pick a new kCutoff where it holds.
    auto polledRejects = [&](std::uint64_t max_cycles) {
        SystemConfig cfg = cdp;
        cfg.cycleSkipping = false;
        cfg.maxCycles = Cycle{max_cycles};
        obs::MetricRegistry metrics;
        simulate(cfg, workload, Observability{&metrics, nullptr});
        return metrics.value("dram.buffer_rejects");
    };
    ASSERT_EQ(polledRejects(kCutoff) - polledRejects(kCutoff - kStretch),
              kStretch);

    SystemConfig cfg = cdp;
    cfg.maxCycles = Cycle{kCutoff};
    obs::MetricRegistry metrics;
    RunStats stats = expectExact("ammp", cfg, &metrics);
    EXPECT_TRUE(stats.timedOut);
    EXPECT_EQ(stats.cycles, Cycle{kCutoff});
    EXPECT_LT(metrics.value("sched.iterations"), kCutoff / 2);
}

TEST(SkippingIsExactEdge, MultiCoreSharedDram)
{
    expectExactMix({"health", "mst"}, configs::streamCdpThrottled());
}

TEST(SkippingIsExactEdge, QuadCoreUnthrottledCdp)
{
    // Four cores under unthrottled CDP share one DRAM buffer: a head
    // it refuses wakes on drains of other cores' requests.
    const MultiCoreResult result = expectExactMix(
        {"mcf", "omnetpp", "health", "mst"}, configs::streamCdp());
    EXPECT_EQ(result.perCore.size(), 4u);
}

TEST(SchedulerCounters, CountIterationsAndPins)
{
    SystemConfig cfg = configs::streamCdp();
    obs::MetricRegistry metrics;
    const RunStats stats = expectExact("mst", cfg, &metrics);
    const std::uint64_t iterations = metrics.value("sched.iterations");
    // mst's blocked heads no longer hold the clock: the loop runs far
    // fewer iterations than there are cycles.
    EXPECT_GT(iterations, 0u);
    EXPECT_LT(iterations * 10, stats.cycles.raw());
    std::uint64_t pinned = 0;
    for (const auto &[path, value] :
         metrics.sortedWithPrefix("sched.pin."))
        pinned += value;
    EXPECT_GT(pinned, 0u);
    EXPECT_LT(pinned, iterations);

    // Polling: one iteration per cycle up to and including the
    // finishing one, and no bound is ever consulted.
    cfg.cycleSkipping = false;
    obs::MetricRegistry polled;
    simulate(cfg, buildWorkload("mst", InputSet::Train),
             Observability{&polled, nullptr});
    EXPECT_EQ(polled.value("sched.iterations"), stats.cycles.raw() + 1);
    EXPECT_EQ(polled.sortedWithPrefix("sched.pin.").size(),
              kSchedPinCount);
    for (const auto &[path, value] :
         polled.sortedWithPrefix("sched.pin."))
        EXPECT_EQ(value, 0u) << path;
}

TEST(EventScheduler, AsksThePreviousPinnerFirst)
{
    EventScheduler sched(nullptr);
    const Cycle now{100};
    // Bound 2 pins now + 1; the others are later.
    const Cycle bounds[4] = {Cycle{150}, Cycle{120}, now + 1,
                             Cycle{130}};
    std::vector<unsigned> asked;
    auto bound = [&](unsigned k) -> NextEvent {
        asked.push_back(k);
        return {bounds[k], k == 2 ? SchedPin::Core : SchedPin::Fill};
    };
    NextEvent wake = sched.earliest(now, 4, bound);
    EXPECT_EQ(wake.at, now + 1);
    EXPECT_EQ(wake.pin, SchedPin::Core);
    EXPECT_EQ(asked, (std::vector<unsigned>{0, 1, 2}));

    asked.clear();
    EXPECT_EQ(sched.earliest(now, 4, bound).at, now + 1);
    EXPECT_EQ(asked, (std::vector<unsigned>{2}));

    // With no bound at now + 1 every bound is asked, from the last
    // pinner round, and the minimum does not depend on that order.
    const Cycle later[4] = {Cycle{150}, Cycle{120}, Cycle{140},
                            Cycle{130}};
    asked.clear();
    wake = sched.earliest(now, 4, [&](unsigned k) -> NextEvent {
        asked.push_back(k);
        return {later[k], SchedPin::Fill};
    });
    EXPECT_EQ(wake.at, Cycle{120});
    EXPECT_EQ(asked, (std::vector<unsigned>{2, 3, 0, 1}));
}

// ---------------------------------------------------------------
// Trailing-partial-interval flush.
// ---------------------------------------------------------------

TEST(TrailingInterval, ShortRunEmitsOnePartialSample)
{
    // With an interval longer than the whole run, no boundary is ever
    // crossed in tick(); the run's entire feedback activity lives in
    // the trailing partial interval and must still produce a sample.
    SystemConfig cfg = configs::streamCdpThrottled();
    cfg.intervalEvictions = 1u << 30;
    RunStats stats =
        simulate(cfg, buildWorkload("health", InputSet::Train));
    EXPECT_EQ(stats.intervals, 0u);
    ASSERT_EQ(stats.intervalSeries.size(), 1u);
    EXPECT_EQ(stats.intervalSeries.back().cycle, stats.cycles);
}

TEST(TrailingInterval, SeriesCarriesTheTail)
{
    // A normal run: completed intervals plus exactly one trailing
    // partial sample stamped with the run's end cycle. intervals
    // keeps counting completed boundaries only.
    SystemConfig cfg = configs::streamCdpThrottled();
    RunStats stats =
        simulate(cfg, buildWorkload("mst", InputSet::Train));
    ASSERT_GT(stats.intervals, 0u);
    ASSERT_EQ(stats.intervalSeries.size(), stats.intervals + 1);
    EXPECT_EQ(stats.intervalSeries.back().cycle, stats.cycles);
    // The completed samples end strictly before the run does.
    EXPECT_LT(stats.intervalSeries[stats.intervals - 1].cycle,
              stats.cycles);
}

} // namespace
} // namespace ecdp
