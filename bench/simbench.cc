/**
 * @file
 * simbench: wall-clock benchmark of the event-driven cycle-skipping
 * scheduler against per-cycle polling, with a per-phase attribution
 * pass that names the subsystem a perf change came from.
 *
 * For each Olden pointer-chasing workload this runs the identical
 * simulation twice — `cycleSkipping = false` (per-cycle polling) and
 * `true` (next-event jumps) — timing each with steady_clock and
 * verifying the two runs' full stats JSON byte-identical before
 * reporting any speedup. Each (workload, mode) pair pays one untimed
 * warm-up rep (allocator pools, page faults, branch predictors), then
 * records min/median/max over the timed reps; derived rates use the
 * min. A separate, profiled event-driven rep attributes wall time to
 * phases (core advance, cache probe, CDP scan, DRAM, scheduler,
 * stats) via obs::PhaseProfiler; its clock-read overhead is why it is
 * never one of the timed reps. The untimed warm-up reps carry a
 * metric registry: the identity oracle compares its counters too, and
 * the event-driven one reports how many loop iterations the scheduler
 * ran per simulated cycle and which bound held each iteration that
 * could not skip (the sched.* counters). The output is
 * machine-readable JSON (schema BENCH_simbench/v5, see
 * EXPERIMENTS.md).
 *
 * A multi-core scaling table (v5) runs 1, 2, 4 and 8 cores over the
 * Fig-15 mostly-stream train mix, polled against event-driven, and
 * reports for each the identity flag, wall times, loop iterations
 * per cycle and pairs (memory system plus core) ticked per
 * iteration: a pair ticks only when its own wake time comes.
 *
 * Besides the legacy two-slot stack, one run benchmarks a
 * three-engine hybrid (stream+cdp+isb under coordinated throttling)
 * on `health`: the N-engine stack walks more per-event state (one
 * feedback lane and counter scope per slot), so its event-driven
 * cycles/sec is the canary for regressions in the engine-stack
 * generalization that the two-slot numbers cannot see.
 *
 * Wall-clock seconds are machine-dependent; the on/off *speedup
 * ratio* is not (both modes run on the same machine in the same
 * process). The CI perf-smoke job compares, against a committed
 * baseline with `--check`:
 *   - the geometric-mean speedup (machine-independent), and
 *   - `mst` event-driven cycles/sec (machine-class-sensitive, hence
 *     the generous tolerance): mst floods its prefetch queue, and
 *     skipping pays off on it only while the queue's blocked head
 *     lets the clock jump, so its cycles/sec guards both that and
 *     the raw per-event cost the speedup ratio is blind to — a
 *     slowdown hitting both modes equally leaves the ratio unchanged.
 *   - the 4-core scaling row's event-driven cycles/sec, on the same
 *     terms: it guards the per-pair wake times of the N-core loop.
 *
 * Usage:
 *   simbench [--quick] [--reps N] [--out FILE]
 *            [--check BASELINE.json] [--tolerance FRAC]
 *
 *   --quick      two workloads and the 1- and 2-core rows, one
 *                rep: a ctest smoke that the harness and the
 *                identity oracle work at all.
 *   --check F    exit non-zero if any workload's stats diverge
 *                between modes, if the geometric-mean speedup drops
 *                below baseline * (1 - tolerance), or if mst
 *                event-driven cycles/sec drops below baseline mst
 *                cycles/sec * (1 - tolerance), and likewise for the
 *                hybrid stack and the 4-core scaling row.
 *   --tolerance  slack fraction for --check (default 0.25).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/phase_profiler.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/scheduler.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "stats/stats.hh"
#include "workloads/workload.hh"

using namespace ecdp;

namespace
{

/**
 * Floor for measured wall times in divisions. A simulation that
 * completes inside one steady_clock quantum would otherwise report a
 * zero wall time, and `speedup = 0` / `cyclesPerSec = 0` poisons the
 * geometric mean to 0 — failing the CI gate on a machine for being
 * too fast.
 */
constexpr double kMinWallSeconds = 1e-7;

double
flooredWall(double secs)
{
    return std::max(secs, kMinWallSeconds);
}

struct ModeTiming
{
    /** Minimum over the timed reps (after one untimed warm-up). */
    double wallSeconds = 0.0;
    double wallMedian = 0.0;
    double wallMax = 0.0;
    double cyclesPerSec = 0.0;
};

struct PhaseBreakdown
{
    double seconds[obs::PhaseProfiler::kPhaseCount] = {};
    double total = 0.0;
};

/** The event-driven loop's sched.* counters for one run. */
struct SchedulerProfile
{
    std::uint64_t iterations = 0;
    std::uint64_t pins[kSchedPinCount] = {};
};

struct WorkloadResult
{
    std::string name;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    ModeTiming percycle;
    ModeTiming eventDriven;
    double speedup = 0.0;
    bool identical = false;
    PhaseBreakdown phases;
    SchedulerProfile sched;
};

/** v5 addition: one row of the multi-core scaling table. */
struct ScalingRow
{
    unsigned cores = 0;
    std::uint64_t cycles = 0;
    ModeTiming percycle;
    ModeTiming eventDriven;
    bool identical = false;
    std::uint64_t iterations = 0;
    std::uint64_t pairTicks = 0;
};

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "simbench");
    return os.str();
}

/** min/median/max wall time of @p reps calls of @p run, and the
 *  cycles/sec that @p cycles simulated cycles give at the min. */
template <typename Run>
ModeTiming
timeReps(int reps, std::uint64_t cycles, Run &&run)
{
    std::vector<double> secs(static_cast<std::size_t>(reps));
    for (double &s : secs) {
        auto t0 = std::chrono::steady_clock::now();
        run();
        auto t1 = std::chrono::steady_clock::now();
        s = std::chrono::duration<double>(t1 - t0).count();
    }
    std::sort(secs.begin(), secs.end());
    ModeTiming t;
    t.wallSeconds = secs.front();
    t.wallMedian = secs[secs.size() / 2];
    t.wallMax = secs.back();
    t.cyclesPerSec =
        static_cast<double>(cycles) / flooredWall(t.wallSeconds);
    return t;
}

/**
 * Time one (workload, mode) pair: one untimed warm-up rep, observed
 * through @p metrics_out, then @p reps timed reps summarized as
 * min/median/max.
 */
ModeTiming
timeMode(const SystemConfig &base, const Workload &workload,
         bool skipping, int reps, RunStats &stats_out,
         obs::MetricRegistry &metrics_out)
{
    SystemConfig cfg = base;
    cfg.cycleSkipping = skipping;
    // Warm-up, never timed.
    stats_out =
        simulate(cfg, workload, Observability{&metrics_out, nullptr});
    return timeReps(reps, stats_out.cycles.raw(),
                    [&] { simulate(cfg, workload); });
}

/** One additional event-driven rep with phase attribution attached.
 *  Clock reads at every phase switch make this rep slower than the
 *  timed ones; only the *distribution* across phases is reported. */
PhaseBreakdown
profilePhases(const SystemConfig &base, const Workload &workload)
{
    SystemConfig cfg = base;
    cfg.cycleSkipping = true;
    obs::PhaseProfiler profiler;
    Observability obs;
    obs.phases = &profiler;
    profiler.start();
    simulate(cfg, workload, obs);
    profiler.stop();
    PhaseBreakdown b;
    for (unsigned p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p) {
        b.seconds[p] = profiler.seconds(
            static_cast<obs::PhaseProfiler::Phase>(p));
    }
    b.total = profiler.totalSeconds();
    return b;
}

WorkloadResult
benchWorkload(const SystemConfig &cfg, const std::string &name,
              int reps)
{
    const Workload workload = buildWorkload(name, InputSet::Train);
    WorkloadResult r;
    r.name = name;
    RunStats polled, skipped;
    obs::MetricRegistry polledMetrics, skippedMetrics;
    r.percycle =
        timeMode(cfg, workload, false, reps, polled, polledMetrics);
    r.eventDriven =
        timeMode(cfg, workload, true, reps, skipped, skippedMetrics);
    r.cycles = skipped.cycles.raw();
    r.instructions = skipped.instructions;
    // The oracle: a speedup only counts if the results are the same.
    r.identical = statsJson(polled) == statsJson(skipped) &&
                  machineCounters(polledMetrics) ==
                      machineCounters(skippedMetrics);
    r.sched.iterations =
        skippedMetrics.value(std::string(kSchedCounterPrefix) +
                             "iterations");
    for (unsigned p = 0; p < kSchedPinCount; ++p) {
        r.sched.pins[p] = skippedMetrics.value(
            std::string(kSchedCounterPrefix) + "pin." +
            schedPinName(static_cast<SchedPin>(p)));
    }
    r.speedup = r.percycle.wallSeconds /
                flooredWall(r.eventDriven.wallSeconds);
    r.phases = profilePhases(cfg, workload);
    return r;
}

/**
 * One scaling row: @p cores cores running the first @p cores entries
 * of @p mix repeated, polled against event-driven. The warm-up reps
 * are observed: they give the identity oracle and the scheduler's
 * iterations and pair ticks.
 */
ScalingRow
benchScaling(const SystemConfig &base,
             const std::vector<std::string> &mix, unsigned cores,
             int reps)
{
    std::vector<Workload> workloads;
    for (unsigned i = 0; i < cores; ++i)
        workloads.push_back(
            buildWorkload(mix[i % mix.size()], InputSet::Train));
    std::vector<const Workload *> ptrs;
    for (const Workload &workload : workloads)
        ptrs.push_back(&workload);
    const std::vector<double> alone(cores, 1.0);

    ScalingRow row;
    row.cores = cores;
    std::string json[2];
    obs::MetricRegistry metrics[2];
    ModeTiming *timing[2] = {&row.percycle, &row.eventDriven};
    for (int skipping = 0; skipping < 2; ++skipping) {
        SystemConfig cfg = base;
        cfg.cycleSkipping = skipping != 0;
        // Warm-up, never timed.
        const MultiCoreResult result = simulateMultiCore(
            cfg, ptrs, alone, Observability{&metrics[skipping], nullptr});
        row.cycles = 0;
        for (const RunStats &stats : result.perCore) {
            json[skipping] += statsJson(stats);
            row.cycles = std::max(row.cycles, stats.cycles.raw());
        }
        *timing[skipping] = timeReps(reps, row.cycles, [&] {
            simulateMultiCore(cfg, ptrs, alone);
        });
    }
    row.identical = json[0] == json[1] &&
                    machineCounters(metrics[0]) ==
                        machineCounters(metrics[1]);
    const std::string prefix = kSchedCounterPrefix;
    row.iterations = metrics[1].value(prefix + "iterations");
    row.pairTicks = metrics[1].value(prefix + "pair_ticks");
    return row;
}

void
writeModeJson(std::ostream &os, const char *key, const ModeTiming &t)
{
    os << "\"" << key << "\": {\"wallSeconds\": " << t.wallSeconds
       << ", \"wallMedian\": " << t.wallMedian
       << ", \"wallMax\": " << t.wallMax
       << ", \"cyclesPerSec\": " << t.cyclesPerSec << "}";
}

void
writePhasesJson(std::ostream &os, const PhaseBreakdown &b)
{
    os << "\"phases\": {";
    for (unsigned p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p) {
        const auto phase = static_cast<obs::PhaseProfiler::Phase>(p);
        const double frac =
            b.total > 0.0 ? b.seconds[p] / b.total : 0.0;
        os << (p ? ", " : "") << "\""
           << obs::PhaseProfiler::name(phase)
           << "\": {\"seconds\": " << b.seconds[p]
           << ", \"fraction\": " << frac << "}";
    }
    os << ", \"totalSeconds\": " << b.total << "}";
}

/** v4 addition: loop iterations per simulated cycle and the bound
 *  that pinned each iteration to the next cycle. */
void
writeSchedJson(std::ostream &os, const SchedulerProfile &s,
               std::uint64_t cycles)
{
    const double per_cycle =
        cycles ? static_cast<double>(s.iterations) /
                     static_cast<double>(cycles)
               : 0.0;
    os << "\"sched\": {\"iterations\": " << s.iterations
       << ", \"iterationsPerCycle\": " << per_cycle << ", \"pins\": {";
    for (unsigned p = 0; p < kSchedPinCount; ++p) {
        os << (p ? ", " : "") << "\""
           << schedPinName(static_cast<SchedPin>(p))
           << "\": " << s.pins[p];
    }
    os << "}}";
}

void
writeReport(std::ostream &os, const std::vector<WorkloadResult> &rs,
            const std::string &config_label, int reps,
            double gmean_speedup)
{
    os.precision(6);
    os << "{\n  \"schema\": \"BENCH_simbench/v5\",\n"
       << "  \"config\": \"" << jsonEscape(config_label) << "\",\n"
       << "  \"reps\": " << reps << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const WorkloadResult &r = rs[i];
        os << "    {\"name\": \"" << jsonEscape(r.name)
           << "\", \"cycles\": " << r.cycles
           << ", \"instructions\": " << r.instructions << ",\n     ";
        writeModeJson(os, "percycle", r.percycle);
        os << ",\n     ";
        writeModeJson(os, "eventDriven", r.eventDriven);
        os << ",\n     \"speedup\": " << r.speedup
           << ", \"identical\": " << (r.identical ? "true" : "false")
           << ",\n     ";
        writePhasesJson(os, r.phases);
        os << ",\n     ";
        writeSchedJson(os, r.sched, r.cycles);
        os << "}" << (i + 1 < rs.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"gmeanSpeedup\": " << gmean_speedup << ",\n";
}

/** v3 addition: the three-engine hybrid entry (same shape as a
 *  workloads[] element, plus its own config label). */
void
writeHybridJson(std::ostream &os, const WorkloadResult &r,
                const std::string &config_label)
{
    os << "  \"hybrid\": {\"config\": \"" << jsonEscape(config_label)
       << "\", \"name\": \"" << jsonEscape(r.name)
       << "\", \"cycles\": " << r.cycles
       << ", \"instructions\": " << r.instructions << ",\n   ";
    writeModeJson(os, "percycle", r.percycle);
    os << ",\n   ";
    writeModeJson(os, "eventDriven", r.eventDriven);
    os << ",\n   \"speedup\": " << r.speedup
       << ", \"identical\": " << (r.identical ? "true" : "false")
       << ",\n   ";
    writeSchedJson(os, r.sched, r.cycles);
    os << "},\n";
}

/** v5 addition: the multi-core scaling table, closing the report. */
void
writeScalingJson(std::ostream &os, const std::vector<ScalingRow> &rows,
                 const std::string &mix_label)
{
    os << "  \"scaling\": {\"mix\": \"" << jsonEscape(mix_label)
       << "\", \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScalingRow &r = rows[i];
        const double iterations = static_cast<double>(r.iterations);
        os << "    {\"cores\": " << r.cores
           << ", \"cycles\": " << r.cycles << ",\n     ";
        writeModeJson(os, "percycle", r.percycle);
        os << ",\n     ";
        writeModeJson(os, "eventDriven", r.eventDriven);
        os << ",\n     \"identical\": "
           << (r.identical ? "true" : "false")
           << ", \"iterationsPerCycle\": "
           << (r.cycles ? iterations / static_cast<double>(r.cycles)
                        : 0.0)
           << ", \"pairTicksPerIteration\": "
           << (r.iterations
                   ? static_cast<double>(r.pairTicks) / iterations
                   : 0.0)
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]}\n}\n";
}

struct Baseline
{
    double gmeanSpeedup = 0.0;
    /** mst event-driven cycles/sec; 0 when the baseline has no mst. */
    double mstEventCyclesPerSec = 0.0;
    /** Hybrid-stack event-driven cycles/sec (v3); 0 when absent. */
    double hybridEventCyclesPerSec = 0.0;
    /** 4-core scaling row's event-driven cycles/sec (v5). */
    double quadEventCyclesPerSec = 0.0;
};

/** Baseline figures from a committed BENCH_simbench.json (v5). */
Baseline
readBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("simbench: cannot open baseline " +
                                 path);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue doc = parseJson(buf.str());
    if (doc.at("schema").asString() != "BENCH_simbench/v5") {
        throw std::runtime_error(
            "simbench: unexpected baseline schema (want "
            "BENCH_simbench/v5)");
    }
    Baseline base;
    base.gmeanSpeedup = doc.at("gmeanSpeedup").asDouble();
    for (const JsonValue &w : doc.at("workloads").asArray()) {
        if (w.at("name").asString() == "mst") {
            base.mstEventCyclesPerSec =
                w.at("eventDriven").at("cyclesPerSec").asDouble();
        }
    }
    base.hybridEventCyclesPerSec = doc.at("hybrid")
                                       .at("eventDriven")
                                       .at("cyclesPerSec")
                                       .asDouble();
    for (const JsonValue &row :
         doc.at("scaling").at("rows").asArray()) {
        if (row.at("cores").asU64() == 4) {
            base.quadEventCyclesPerSec =
                row.at("eventDriven").at("cyclesPerSec").asDouble();
        }
    }
    return base;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int reps = 3;
    double tolerance = 0.25;
    std::string out_path;
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "simbench: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--reps") {
            reps = std::stoi(next());
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--check") {
            check_path = next();
        } else if (arg == "--tolerance") {
            tolerance = std::stod(next());
        } else {
            std::cerr << "simbench: unknown argument " << arg << "\n";
            return 2;
        }
    }
    if (reps < 1) {
        std::cerr << "simbench: --reps must be >= 1 (got " << reps
                  << ")\n";
        return 2;
    }

    // Olden pointer-chasing suite: the linked-data-structure
    // workloads the paper targets, and the ones whose long
    // dependence-stall gaps cycle skipping exploits.
    std::vector<std::string> names = {"bisort",    "health",
                                      "mst",       "perimeter",
                                      "voronoi",   "pfast"};
    if (quick) {
        names = {"bisort", "health"};
        reps = 1;
    }

    // A representative hybrid config: stream + CDP under coordinated
    // throttling exercises the feedback-interval machinery too.
    const SystemConfig cfg = configs::streamCdpThrottled();
    const std::string config_label = "stream+cdp+throttle";

    std::vector<WorkloadResult> results;
    std::vector<double> ratios;
    bool all_identical = true;
    for (const std::string &name : names) {
        WorkloadResult r = benchWorkload(cfg, name, reps);
        std::cerr << "simbench: " << r.name << " speedup " << r.speedup
                  << "x (" << r.percycle.wallSeconds << "s -> "
                  << r.eventDriven.wallSeconds << "s), "
                  << r.eventDriven.cyclesPerSec
                  << " cyc/s event-driven, "
                  << static_cast<double>(r.sched.iterations) /
                         static_cast<double>(std::max<std::uint64_t>(
                             r.cycles, 1))
                  << " iterations/cycle, identical="
                  << (r.identical ? "yes" : "NO") << "\n";
        all_identical = all_identical && r.identical;
        ratios.push_back(r.speedup);
        results.push_back(std::move(r));
    }
    const double gmean_speedup = gmean(ratios);

    // v3 hybrid canary: a three-engine stack (third slot via the
    // registry) on health, so --check also guards the N-engine
    // dispatch path the two-slot matrix above never touches.
    SystemConfig hybridCfg = configs::streamCdpThrottled();
    hybridCfg.engines = {"stream", "cdp", "isb"};
    const std::string hybrid_label = "stream+cdp+isb+coordinated";
    WorkloadResult hybrid = benchWorkload(hybridCfg, "health", reps);
    std::cerr << "simbench: hybrid(" << hybrid_label << ") "
              << hybrid.name << " speedup " << hybrid.speedup << "x, "
              << hybrid.eventDriven.cyclesPerSec
              << " cyc/s event-driven, identical="
              << (hybrid.identical ? "yes" : "NO") << "\n";
    all_identical = all_identical && hybrid.identical;

    // v5 multi-core scaling: 1, 2, 4 and 8 cores over the Fig-15
    // mostly-stream mix, where one busy core holds the clock and the
    // others mostly wait on memory.
    const std::vector<std::string> mix = {"perlbench", "h264ref", "lbm",
                                          "libquantum"};
    const std::string mix_label = "perlbench+h264ref+lbm+libquantum";
    std::vector<ScalingRow> scaling;
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        if (quick && cores > 2)
            break;
        ScalingRow row = benchScaling(cfg, mix, cores, reps);
        std::cerr << "simbench: " << cores << "-core mix "
                  << row.eventDriven.cyclesPerSec
                  << " cyc/s event-driven ("
                  << row.percycle.wallSeconds << "s polled -> "
                  << row.eventDriven.wallSeconds << "s), "
                  << static_cast<double>(row.pairTicks) /
                         static_cast<double>(
                             std::max<std::uint64_t>(row.iterations, 1))
                  << " pair ticks/iteration, identical="
                  << (row.identical ? "yes" : "NO") << "\n";
        all_identical = all_identical && row.identical;
        scaling.push_back(row);
    }

    std::ostringstream report;
    writeReport(report, results, config_label, reps, gmean_speedup);
    writeHybridJson(report, hybrid, hybrid_label);
    writeScalingJson(report, scaling, mix_label);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << report.str();
    } else {
        std::cout << report.str();
    }

    if (!all_identical) {
        std::cerr << "simbench: FAIL — event-driven stats diverge "
                     "from per-cycle polling\n";
        return 1;
    }
    if (!check_path.empty()) {
        const Baseline base = readBaseline(check_path);
        bool failed = false;

        const double floor = base.gmeanSpeedup * (1.0 - tolerance);
        std::cerr << "simbench: gmean speedup " << gmean_speedup
                  << "x vs baseline " << base.gmeanSpeedup
                  << "x (floor " << floor << "x)\n";
        if (gmean_speedup < floor) {
            std::cerr << "simbench: FAIL — speedup regressed beyond "
                      << tolerance * 100.0 << "% tolerance\n";
            failed = true;
        }

        // Per-event-cost canary: compare mst event-driven cycles/sec
        // when both this run and the baseline have it.
        const WorkloadResult *mst = nullptr;
        for (const WorkloadResult &r : results) {
            if (r.name == "mst")
                mst = &r;
        }
        if (mst && base.mstEventCyclesPerSec > 0.0) {
            const double mst_floor =
                base.mstEventCyclesPerSec * (1.0 - tolerance);
            std::cerr << "simbench: mst "
                      << mst->eventDriven.cyclesPerSec
                      << " cyc/s vs baseline "
                      << base.mstEventCyclesPerSec << " (floor "
                      << mst_floor << ")\n";
            if (mst->eventDriven.cyclesPerSec < mst_floor) {
                std::cerr << "simbench: FAIL — mst per-event cost "
                             "regressed beyond "
                          << tolerance * 100.0 << "% tolerance\n";
                failed = true;
            }
        }
        // Same canary for the three-engine hybrid stack: a slowdown
        // confined to the N-engine dispatch path would be invisible
        // to both the gmean ratio and the mst floor.
        if (base.hybridEventCyclesPerSec > 0.0) {
            const double hybrid_floor =
                base.hybridEventCyclesPerSec * (1.0 - tolerance);
            std::cerr << "simbench: hybrid "
                      << hybrid.eventDriven.cyclesPerSec
                      << " cyc/s vs baseline "
                      << base.hybridEventCyclesPerSec << " (floor "
                      << hybrid_floor << ")\n";
            if (hybrid.eventDriven.cyclesPerSec < hybrid_floor) {
                std::cerr << "simbench: FAIL — hybrid per-event "
                             "cost regressed beyond "
                          << tolerance * 100.0 << "% tolerance\n";
                failed = true;
            }
        }
        // And for the 4-core mix: per-pair wake times are what keep
        // a multi-core iteration from ticking every core.
        const ScalingRow *quad = nullptr;
        for (const ScalingRow &row : scaling) {
            if (row.cores == 4)
                quad = &row;
        }
        if (quad && base.quadEventCyclesPerSec > 0.0) {
            const double quad_floor =
                base.quadEventCyclesPerSec * (1.0 - tolerance);
            std::cerr << "simbench: 4-core "
                      << quad->eventDriven.cyclesPerSec
                      << " cyc/s vs baseline "
                      << base.quadEventCyclesPerSec << " (floor "
                      << quad_floor << ")\n";
            if (quad->eventDriven.cyclesPerSec < quad_floor) {
                std::cerr << "simbench: FAIL — 4-core per-event cost "
                             "regressed beyond "
                          << tolerance * 100.0 << "% tolerance\n";
                failed = true;
            }
        }
        if (failed)
            return 1;
    }
    return 0;
}
