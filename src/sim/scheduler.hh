/**
 * @file
 * The event-driven simulation loop's next-event search, and its
 * observability: how many iterations it ran and which bound held the
 * clock to the next cycle on each iteration that could not skip.
 */

#ifndef ECDP_SIM_SCHEDULER_HH
#define ECDP_SIM_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "memsim/types.hh"
#include "obs/metrics.hh"

namespace ecdp
{

/**
 * The bound that pinned an iteration of the event-driven loop to
 * now + 1.
 */
enum class SchedPin : std::uint8_t
{
    /** Memory: the ready-queue head is blocked on the MSHR reserve or
     *  the DRAM buffer, and its wakeup (a fill, a delayed-prefetch
     *  release or a DRAM drain) is the next cycle. */
    BlockedHead,
    /** Memory: the issue budget ran out with ready prefetches left. */
    IssueBudget,
    /** Memory: a ready prefetch not yet tried since it was queued, or
     *  since a demand access or interval end changed its outcome. */
    FreshEnqueue,
    /** Memory: a crossed feedback-interval boundary fires next. */
    Interval,
    /** Memory: a fill or delayed-prefetch release is due next cycle
     *  with no ready prefetch waiting. */
    Fill,
    Core,
    Dram,
};

inline constexpr unsigned kSchedPinCount = 7;

/** A wakeup bound and, when it is now + 1, why. */
struct NextEvent
{
    Cycle at;
    SchedPin pin;
};

/** Path prefix of every scheduler counter in the metric registry. */
inline constexpr const char *kSchedCounterPrefix = "sched.";

/** Counter-path name of @p pin ("blocked_head", ...). */
const char *schedPinName(SchedPin pin);

/**
 * Every counter of @p metrics except the scheduler's own, in path
 * order: the ones that must not differ between skipping on and off.
 */
std::vector<std::pair<std::string, std::uint64_t>>
machineCounters(const obs::MetricRegistry &metrics);

/**
 * The event-driven loop's wake-time cache and its "sched.*" counters.
 *
 * The loop drives n pairs, memory system i plus core i, around one
 * shared DRAM. Each pair caches its own wake, recomputed only after
 * the pair ticks; an iteration ticks the pairs that are due. rewake()
 * asks first the bound that answered now + 1 on the pair's previous
 * call and stops at a now + 1, which the other cannot undercut: a
 * busy core or a flooded prefetch queue usually stays busy. Only
 * which of two now + 1 bounds gets counted depends on the order.
 *
 * `sched.iterations` counts loop iterations, `sched.pair_ticks` the
 * pairs they ticked, `sched.pin.<reason>` the iterations a SchedPin
 * held to the next cycle (skipping runs only). They are bound only
 * when the run has a registry, so an unobserved run pays one null
 * check per iteration. These counters describe the scheduler, not the
 * simulated machine: they are the only registry entries that differ
 * between skipping on and off.
 */
class EventScheduler
{
  public:
    /** @p pairs is the number of memory-system/core pairs; every one
     *  is due until its first rewake(). */
    EventScheduler(obs::MetricRegistry *metrics, unsigned pairs);

    /** Count one loop iteration that ticked @p ticked pairs. */
    void iteration(unsigned ticked)
    {
        if (iterations_) {
            iterations_->inc();
            pairTicks_->add(ticked);
        }
    }

    /** True when pair @p i ticks at @p now. */
    bool due(unsigned i, Cycle now) const
    {
        return wakes_[i].next.at <= now;
    }

    /**
     * Cache the wake of pair @p i, which ticked at @p now, as the
     * earlier of the NextEvents @p memory() and @p core() return.
     */
    template <typename Memory, typename Core>
    void rewake(unsigned i, Cycle now, Memory &&memory, Core &&core)
    {
        Wake &w = wakes_[i];
        w.next = w.coreFirst ? core() : memory();
        if (w.next.at > now + 1) {
            const NextEvent other = w.coreFirst ? memory() : core();
            if (other.at <= now + 1)
                w.coreFirst = !w.coreFirst;
            if (other.at < w.next.at)
                w.next = other;
        }
    }

    /**
     * The cycle after @p now the loop runs next: the earliest cached
     * wake, or the Cycle @p dram() returns when it is earlier (asked
     * only when no pair is due at now + 1), clamped to [now + 1,
     * @p limit]. Counts the bound that held it to now + 1.
     */
    template <typename Dram>
    Cycle next(Cycle now, Cycle limit, Dram &&dram)
    {
        NextEvent wake{kNoEventCycle, SchedPin::Dram};
        for (const Wake &w : wakes_) {
            if (w.next.at < wake.at)
                wake = w.next;
        }
        if (wake.at > now + 1) {
            const Cycle drain = dram();
            if (drain < wake.at)
                wake = {drain, SchedPin::Dram};
        }
        const Cycle at = std::max(now + 1, std::min(wake.at, limit));
        if (at == now + 1 && iterations_)
            pins_[static_cast<unsigned>(wake.pin)]->inc();
        return at;
    }

  private:
    struct Wake
    {
        NextEvent next{Cycle{}, SchedPin::Core};
        /** Ask the core bound first: it answered now + 1 last. */
        bool coreFirst = false;
    };

    obs::Counter *iterations_ = nullptr;
    obs::Counter *pairTicks_ = nullptr;
    obs::Counter *pins_[kSchedPinCount] = {};
    std::vector<Wake> wakes_;
};

} // namespace ecdp

#endif // ECDP_SIM_SCHEDULER_HH
