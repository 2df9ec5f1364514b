#include "sim/scheduler.hh"

#include <string>

namespace ecdp
{

const char *
schedPinName(SchedPin pin)
{
    switch (pin) {
      case SchedPin::BlockedHead:
        return "blocked_head";
      case SchedPin::IssueBudget:
        return "issue_budget";
      case SchedPin::FreshEnqueue:
        return "fresh_enqueue";
      case SchedPin::Interval:
        return "interval";
      case SchedPin::Fill:
        return "fill";
      case SchedPin::Core:
        return "core";
      case SchedPin::Dram:
        return "dram";
    }
    return "unknown";
}

std::vector<std::pair<std::string, std::uint64_t>>
machineCounters(const obs::MetricRegistry &metrics)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (auto &entry : metrics.sorted()) {
        if (entry.first.rfind(kSchedCounterPrefix, 0) != 0)
            out.push_back(std::move(entry));
    }
    return out;
}

EventScheduler::EventScheduler(obs::MetricRegistry *metrics,
                               unsigned pairs)
    : wakes_(pairs)
{
    if (!metrics)
        return;
    const std::string prefix = kSchedCounterPrefix;
    iterations_ = &metrics->counter(prefix + "iterations");
    pairTicks_ = &metrics->counter(prefix + "pair_ticks");
    for (unsigned i = 0; i < kSchedPinCount; ++i) {
        pins_[i] = &metrics->counter(
            prefix + "pin." +
            schedPinName(static_cast<SchedPin>(i)));
    }
}

} // namespace ecdp
