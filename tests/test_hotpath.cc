/**
 * @file
 * Hot-path flattening tests: the SoA cache/MSHR layout, the SIMD CDP
 * candidate kernel, and the phase-attribution profiler must all be
 * pure optimisations/observations — same results, different speed.
 *
 * Three layers of proof:
 *  - kernel fuzz: candidateMaskScalar is the oracle; the AVX2 kernel
 *    (when built) must agree bit-for-bit on randomized block images,
 *    compare widths, block sizes and tail slot counts, and both must
 *    agree with the one-word isPointerCandidate predicate;
 *  - conservation: the PhaseProfiler's per-phase breakdown must sum
 *    exactly to its own start/stop window and account for (nearly)
 *    all of an outer wall-clock measurement around it;
 *  - identity matrix: attaching the profiler to a run must not change
 *    one byte of its stats JSON, across the same workload×config
 *    matrix (plus the 64B-block edge) the scheduler-exactness suite
 *    pins — every case crossing the SoA cache, the SoA MSHR file and
 *    whichever CDP kernel the build selected.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "obs/phase_profiler.hh"
#include "prefetch/cdp.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

#include "case_config.hh"

namespace ecdp
{
namespace
{

// ---------------------------------------------------------------
// Kernel fuzz: scalar ≡ SIMD candidate sets.
// ---------------------------------------------------------------

/** Reference implementation built on the public one-word predicate. */
std::uint64_t
oracleMask(const ContentDirectedPrefetcher &cdp, Addr block_vaddr,
           const std::uint8_t *bytes, unsigned slots)
{
    std::uint64_t mask = 0;
    for (unsigned slot = 0; slot < slots; ++slot) {
        std::uint32_t word = 0;
        for (unsigned b = 0; b < kPointerBytes; ++b) {
            word |= std::uint32_t{bytes[slot * kPointerBytes + b]}
                    << (8 * b);
        }
        if (cdp.isPointerCandidate(block_vaddr, word))
            mask |= std::uint64_t{1} << slot;
    }
    return mask;
}

TEST(CdpCandidateKernel, ScalarMatchesSimdOnFuzzedBlocks)
{
    // Deterministic seed: a failure reproduces.
    std::mt19937 rng(0xecd9u);
    std::uniform_int_distribution<std::uint32_t> u32;
    std::uniform_int_distribution<unsigned> byteDist(0, 255);

    const unsigned block_sizes[] = {64, 128, 256};
    const unsigned compare_bits[] = {1, 4, 8, 12, 17, 31};

    for (unsigned block_bytes : block_sizes) {
        const unsigned max_slots = block_bytes / kPointerBytes;
        std::vector<std::uint8_t> bytes(block_bytes);
        for (unsigned cb : compare_bits) {
            ContentDirectedPrefetcher cdp(cb, block_bytes);
            for (int iter = 0; iter < 400; ++iter) {
                const Addr block_vaddr{kHeapBase.raw() +
                                       (u32(rng) & 0x00FFFF80u)};
                // Mix of byte noise, heap-looking pointers and zero
                // words so every kernel branch sees hits and misses.
                for (auto &b : bytes)
                    b = static_cast<std::uint8_t>(byteDist(rng));
                for (unsigned slot = 0; slot < max_slots; ++slot) {
                    const unsigned roll = byteDist(rng);
                    std::uint32_t word;
                    if (roll < 96)
                        word = kHeapBase.raw() +
                               (u32(rng) & 0x00FFFFFFu);
                    else if (roll < 128)
                        word = 0;
                    else
                        continue; // keep the random bytes
                    for (unsigned b = 0; b < kPointerBytes; ++b) {
                        bytes[slot * kPointerBytes + b] =
                            static_cast<std::uint8_t>(
                                word >> (8 * b) & 0xFF);
                    }
                }
                // Full block, plus ragged slot counts to force the
                // SIMD kernel through its scalar tail.
                for (unsigned slots :
                     {max_slots, max_slots - 3u, 5u, 1u}) {
                    const std::uint64_t expect = oracleMask(
                        cdp, block_vaddr, bytes.data(), slots);
                    EXPECT_EQ(cdp.candidateMaskScalar(
                                  block_vaddr, bytes.data(), slots),
                              expect)
                        << "scalar cb=" << cb << " slots=" << slots;
#if defined(ECDP_HAVE_AVX2)
                    EXPECT_EQ(cdp.candidateMaskAvx2(
                                  block_vaddr, bytes.data(), slots),
                              expect)
                        << "avx2 cb=" << cb << " slots=" << slots;
#endif
                    EXPECT_EQ(cdp.candidateMask(block_vaddr,
                                                bytes.data(), slots),
                              expect)
                        << "dispatch cb=" << cb << " slots=" << slots;
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// MshrFile SoA probe lane.
// ---------------------------------------------------------------

TEST(MshrFileSoa, ValidMaskMirrorsAllocationOrder)
{
    MshrFile mshrs(8);
    EXPECT_EQ(mshrs.validMask(), 0u);
    Mshr &a = mshrs.allocate(0x40000000);
    Mshr &b = mshrs.allocate(0x40000080);
    Mshr &c = mshrs.allocate(0x40000100);
    EXPECT_EQ(mshrs.validMask(), 0b111u);
    // Releasing the middle entry frees its slot; the next allocation
    // must reuse the lowest free index, as the original linear
    // first-invalid scan did.
    mshrs.release(b);
    EXPECT_EQ(mshrs.validMask(), 0b101u);
    Mshr &d = mshrs.allocate(0x40000180);
    EXPECT_EQ(&d, &b);
    EXPECT_EQ(mshrs.validMask(), 0b111u);
    // find() goes through the packed address lane.
    EXPECT_EQ(mshrs.find(0x40000180), &d);
    EXPECT_EQ(mshrs.find(0x40000080), nullptr);
    mshrs.release(a);
    mshrs.release(c);
    mshrs.release(d);
    EXPECT_EQ(mshrs.validMask(), 0u);
}

TEST(CacheSoa, ContentVersionTracksInsertsAndInvalidates)
{
    Cache cache("L", 1024, 2, 64);
    const std::uint64_t v0 = cache.contentVersion();
    cache.insert(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 1);
    // Refreshing a resident block changes recency, not content.
    cache.insert(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 1);
    cache.lookup(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 1);
    cache.invalidate(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 2);
    // Invalidating an absent block is a no-op.
    cache.invalidate(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 2);
}

// ---------------------------------------------------------------
// Phase-attribution conservation.
// ---------------------------------------------------------------

TEST(PhaseProfiler, PhasesArePairwiseExclusiveAndSumToWindow)
{
    using Phase = obs::PhaseProfiler::Phase;
    obs::PhaseProfiler prof;
    prof.start();
    Phase prev = prof.switchTo(Phase::CoreTick);
    EXPECT_EQ(prev, Phase::Other);
    // Busy-wait a little so the bucket is visibly nonzero.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
    prev = prof.switchTo(Phase::Dram);
    EXPECT_EQ(prev, Phase::CoreTick);
    prof.stop();

    EXPECT_GT(prof.seconds(Phase::CoreTick), 0.0);
    double sum = 0.0;
    for (unsigned p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p)
        sum += prof.seconds(static_cast<Phase>(p));
    // Flat-switch accounting: the total IS the sum, to the nanosecond.
    EXPECT_DOUBLE_EQ(sum, prof.totalSeconds());
}

TEST(PhaseConservation, BreakdownAccountsForSimulationWall)
{
    obs::PhaseProfiler prof;
    Observability obs;
    obs.phases = &prof;
    const SystemConfig cfg = configs::streamCdpThrottled();
    const Workload workload = buildWorkload("health", InputSet::Train);

    const auto t0 = std::chrono::steady_clock::now();
    prof.start();
    simulate(cfg, workload, obs);
    prof.stop();
    const auto t1 = std::chrono::steady_clock::now();
    const double outer =
        std::chrono::duration<double>(t1 - t0).count();

    double sum = 0.0;
    for (unsigned p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p) {
        sum += prof.seconds(
            static_cast<obs::PhaseProfiler::Phase>(p));
    }
    EXPECT_DOUBLE_EQ(sum, prof.totalSeconds());
    // The profiler window sits strictly inside the outer measurement;
    // the slack covers only the clock reads around start()/stop().
    EXPECT_LE(sum, outer);
    EXPECT_GE(sum, 0.90 * outer - 0.002) << "unattributed wall time";

    using Phase = obs::PhaseProfiler::Phase;
    EXPECT_GT(prof.seconds(Phase::CoreTick), 0.0);
    EXPECT_GT(prof.seconds(Phase::MemTick), 0.0);
    EXPECT_GT(prof.seconds(Phase::CacheProbe), 0.0);
    // streamCdpThrottled scans fills, reads DRAM, skips cycles and
    // collects stats — every instrumented phase must show up.
    EXPECT_GT(prof.seconds(Phase::CdpScan), 0.0);
    EXPECT_GT(prof.seconds(Phase::Dram), 0.0);
    EXPECT_GT(prof.seconds(Phase::Scheduler), 0.0);
    EXPECT_GT(prof.seconds(Phase::Stats), 0.0);
}

// ---------------------------------------------------------------
// Stats identity with the profiler attached.
// ---------------------------------------------------------------

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "hotpath");
    return os.str();
}

/** Attaching the phase profiler must be pure observation: the stats
 *  JSON of an unprofiled and a profiled run must be byte-identical
 *  (in the event-driven mode the benchmark attributes). */
void
expectProfiledIdentical(const std::string &bench, SystemConfig cfg)
{
    const Workload workload = buildWorkload(bench, InputSet::Train);
    cfg.cycleSkipping = true;
    RunStats plain = simulate(cfg, workload);

    obs::PhaseProfiler prof;
    Observability obs;
    obs.phases = &prof;
    prof.start();
    RunStats profiled = simulate(cfg, workload, obs);
    prof.stop();

    EXPECT_EQ(statsJson(plain), statsJson(profiled)) << bench;
    EXPECT_GT(prof.totalSeconds(), 0.0);
}

struct ProfiledCase
{
    const char *bench;
    const char *config;
};

/** Names the case by value, so test ids do not embed addresses. */
void
PrintTo(const ProfiledCase &c, std::ostream *os)
{
    *os << c.bench << ":" << c.config;
}

class ProfilerIsPureObservation
    : public ::testing::TestWithParam<ProfiledCase>
{
};

TEST_P(ProfilerIsPureObservation, StatsJsonIsByteIdentical)
{
    const ProfiledCase &c = GetParam();
    expectProfiledIdentical(c.bench, caseConfig(c.bench, c.config));
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, ProfilerIsPureObservation,
    ::testing::Values(ProfiledCase{"health", "baseline"},
                      ProfiledCase{"mst", "cdp+throttle"},
                      ProfiledCase{"bisort", "full"},
                      ProfiledCase{"perimeter", "ecdp+fdp"},
                      ProfiledCase{"health", "cdp+pab"},
                      ProfiledCase{"mst", "dbp"},
                      ProfiledCase{"bisort", "markov"},
                      ProfiledCase{"health", "side-buffer"},
                      ProfiledCase{"mst", "noprefetch"}),
    [](const ::testing::TestParamInfo<ProfiledCase> &info) {
        std::string name = std::string(info.param.bench) + "_" +
                           info.param.config;
        for (char &ch : name) {
            if (ch == '+' || ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(ProfilerIsPureObservationEdge, SmallBlockSizeConfig)
{
    // 64 B blocks: 16-slot scans exercise the short-block path of the
    // candidate kernel inside a whole run.
    SystemConfig cfg = configs::baseline();
    cfg.l1BlockBytes = 64;
    cfg.l2BlockBytes = 64;
    expectProfiledIdentical("health", cfg);
}

} // namespace
} // namespace ecdp
