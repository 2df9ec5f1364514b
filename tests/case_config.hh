/**
 * @file
 * The SystemConfig of a (bench, config) test case: configs::byName(),
 * with the bench's train-input hints when the name needs them, plus
 * two variants that are not named configs: "side-buffer" (the
 * Section 2.3 no-pollution oracle over cdp) and "small-blocks"
 * (baseline with 64 B L1 and L2 blocks). Shared by the test matrices
 * so they cannot drift from the name table the CLI and daemon use.
 */

#ifndef ECDP_TESTS_CASE_CONFIG_HH
#define ECDP_TESTS_CASE_CONFIG_HH

#include <map>
#include <string>

#include "compiler/profiling_compiler.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "workloads/workload.hh"

namespace ecdp
{

/** @p bench's train-input hint table, profiled once per process. */
inline const HintTable &
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

inline SystemConfig
caseConfig(const std::string &bench, const std::string &config)
{
    if (config == "side-buffer") {
        SystemConfig cfg = configs::streamCdp();
        cfg.idealNoPollution = true;
        return cfg;
    }
    if (config == "small-blocks") {
        SystemConfig cfg = configs::baseline();
        cfg.l1BlockBytes = 64;
        cfg.l2BlockBytes = 64;
        return cfg;
    }
    return configs::byName(config, configs::nameNeedsHints(config)
                                       ? &trainHints(bench)
                                       : nullptr);
}

} // namespace ecdp

#endif // ECDP_TESTS_CASE_CONFIG_HH
