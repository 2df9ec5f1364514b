/**
 * @file
 * Wall-clock attribution of a simulation run to coarse phases (core
 * advance, cache probe, CDP scan, DRAM, scheduler, stats), so a perf
 * regression names the subsystem that caused it instead of just
 * moving a total.
 *
 * The profiler is a flat phase switch, not a hierarchy: at any instant
 * exactly one phase is current, switchTo() reads the clock once and
 * charges the elapsed interval to the phase being left. Phases are
 * therefore exclusive and exhaustive *by construction* — the sum over
 * all phases equals the wall time between start() and stop() exactly,
 * which is what makes the conservation test in test_hotpath.cc a real
 * invariant rather than a tolerance fudge.
 *
 * Attribution is opt-in per run (Observability::phases). A null
 * profiler costs one pointer test per instrumentation point; the
 * timed benchmark reps run unattached and a separate attribution rep
 * pays the clock reads.
 */

#ifndef ECDP_OBS_PHASE_PROFILER_HH
#define ECDP_OBS_PHASE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>

namespace ecdp::obs
{

class PhaseProfiler
{
  public:
    enum class Phase : std::uint8_t
    {
        /** Core::tick — retire, issue, dispatch. */
        CoreTick,
        /** MemorySystem::tick bookkeeping: fills, prefetch issue. */
        MemTick,
        /** Demand-path cache access: MemorySystem::load / store. */
        CacheProbe,
        /** CDP pointer-slot scan of filled blocks (+ block read). */
        CdpScan,
        /** DRAM model: read / writeback acceptance. */
        Dram,
        /** The event-driven loop itself: wake bounds, bookkeeping. */
        Scheduler,
        /** End-of-run stats collection and serialization. */
        Stats,
        /** Between start() and the first switch, and anything not
         *  otherwise attributed (construction, image clone, ...). */
        Other,
    };
    static constexpr unsigned kPhaseCount = 8;

    /** Begin attribution: zero all buckets, current phase = Other. */
    void start()
    {
        ns_.fill(0);
        current_ = Phase::Other;
        running_ = true;
        mark_ = Clock::now();
    }

    /** Close out the current phase and stop accumulating. */
    void stop()
    {
        if (!running_)
            return;
        account(Clock::now());
        running_ = false;
    }

    /**
     * Enter @p next, charging time since the last switch to the phase
     * being left. Returns the previous phase so nested scopes can
     * restore it (see Scoped).
     */
    Phase switchTo(Phase next)
    {
        const Phase prev = current_;
        if (running_)
            account(Clock::now());
        current_ = next;
        return prev;
    }

    /** RAII phase scope, null-tolerant so call sites need no branch:
     *  a null profiler makes construction and destruction no-ops. */
    class Scoped
    {
      public:
        Scoped(PhaseProfiler *profiler, Phase phase)
            : profiler_(profiler)
        {
            if (profiler_)
                prev_ = profiler_->switchTo(phase);
        }
        ~Scoped()
        {
            if (profiler_)
                profiler_->switchTo(prev_);
        }
        Scoped(const Scoped &) = delete;
        Scoped &operator=(const Scoped &) = delete;

      private:
        PhaseProfiler *profiler_;
        Phase prev_ = Phase::Other;
    };

    double seconds(Phase phase) const
    {
        return static_cast<double>(ns_[index(phase)]) * 1e-9;
    }

    /** Sum over all phases == wall time from start() to stop(). */
    double totalSeconds() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t ns : ns_)
            total += ns;
        return static_cast<double>(total) * 1e-9;
    }

    static const char *name(Phase phase)
    {
        switch (phase) {
        case Phase::CoreTick:
            return "coreTick";
        case Phase::MemTick:
            return "memTick";
        case Phase::CacheProbe:
            return "cacheProbe";
        case Phase::CdpScan:
            return "cdpScan";
        case Phase::Dram:
            return "dram";
        case Phase::Scheduler:
            return "scheduler";
        case Phase::Stats:
            return "stats";
        case Phase::Other:
            return "other";
        }
        return "?";
    }

  private:
    using Clock = std::chrono::steady_clock;

    static constexpr unsigned index(Phase phase)
    {
        return static_cast<unsigned>(phase);
    }

    void account(Clock::time_point now)
    {
        ns_[index(current_)] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - mark_)
                .count());
        mark_ = now;
    }

    std::array<std::uint64_t, kPhaseCount> ns_{};
    Clock::time_point mark_{};
    Phase current_ = Phase::Other;
    bool running_ = false;
};

} // namespace ecdp::obs

#endif // ECDP_OBS_PHASE_PROFILER_HH
