/**
 * @file
 * Golden-stats regression: the full RunStats JSON of one small
 * deterministic run per named config (configs::knownNames()) is
 * pinned under tests/golden/ and compared field by field. Any behavioural change to the simulator — counter
 * drift, a new accounting site, a changed threshold — shows up as a
 * named-field diff here before it shows up as a mysterious shift in
 * a paper figure.
 *
 * Number comparison uses the parser's source text, so even a change
 * below double precision in a 64-bit counter fails loudly.
 * Regenerate after an intentional change with tools/update_golden.sh.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

#ifndef ECDP_GOLDEN_DIR
#error "ECDP_GOLDEN_DIR must point at tests/golden"
#endif

namespace ecdp
{
namespace
{

struct GoldenCase
{
    const char *bench;
    const char *config;
    const char *file;
};

constexpr GoldenCase kCases[] = {
    {"health", "baseline", "health_baseline.json"},
    {"mst", "cdp+throttle", "mst_cdp_throttle.json"},
    {"bisort", "full", "bisort_full.json"},
    {"mst", "noprefetch", "mst_noprefetch.json"},
    {"bisort", "cdp", "bisort_cdp.json"},
    {"bisort", "ecdp", "bisort_ecdp.json"},
    {"bisort", "dbp", "bisort_dbp.json"},
    {"bisort", "markov", "bisort_markov.json"},
    {"health", "ghb", "health_ghb.json"},
    {"health", "ghb+ecdp", "health_ghb_ecdp.json"},
    {"mst", "cdp+filter", "mst_cdp_filter.json"},
    {"bisort", "ecdp+fdp", "bisort_ecdp_fdp.json"},
    {"bisort", "cdp+pab", "bisort_cdp_pab.json"},
    {"perimeter", "grp", "perimeter_grp.json"},
    {"health", "ideal-lds", "health_ideal_lds.json"},
};

/** Names the case by value, so test ids do not embed addresses. */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.bench << ":" << c.config;
}

std::string
generate(const GoldenCase &c)
{
    // Same name table and hint source as ecdpsim --config, so
    // tools/update_golden.sh regenerates byte-identical files through
    // the command-line driver.
    HintTable hints;
    if (configs::nameNeedsHints(c.config)) {
        hints = ProfilingCompiler::profile(
            buildWorkload(c.bench, InputSet::Train));
    }
    SystemConfig cfg = configs::byName(c.config, &hints);
    RunStats stats =
        simulate(cfg, buildWorkload(c.bench, InputSet::Train));
    std::ostringstream os;
    writeRunStatsJson(os, stats, c.config);
    return os.str();
}

void
compareValues(const JsonValue &golden, const JsonValue &fresh,
              const std::string &path)
{
    ASSERT_EQ(golden.kind(), fresh.kind()) << "at " << path;
    switch (golden.kind()) {
    case JsonValue::Kind::Null:
        break;
    case JsonValue::Kind::Bool:
        EXPECT_EQ(golden.asBool(), fresh.asBool()) << "at " << path;
        break;
    case JsonValue::Kind::Number:
        EXPECT_EQ(golden.numberText(), fresh.numberText())
            << "at " << path;
        break;
    case JsonValue::Kind::String:
        EXPECT_EQ(golden.asString(), fresh.asString())
            << "at " << path;
        break;
    case JsonValue::Kind::Array: {
        const auto &a = golden.asArray();
        const auto &b = fresh.asArray();
        ASSERT_EQ(a.size(), b.size()) << "at " << path;
        for (std::size_t i = 0; i < a.size(); ++i) {
            compareValues(a[i], b[i],
                          path + "[" + std::to_string(i) + "]");
        }
        break;
    }
    case JsonValue::Kind::Object: {
        const auto &a = golden.asObject();
        const auto &b = fresh.asObject();
        for (const auto &[key, value] : a) {
            auto it = b.find(key);
            if (it == b.end()) {
                ADD_FAILURE()
                    << "field removed: " << path << "." << key;
                continue;
            }
            compareValues(value, it->second, path + "." + key);
        }
        for (const auto &[key, value] : b) {
            (void)value;
            if (a.find(key) == a.end()) {
                ADD_FAILURE() << "field added: " << path << "." << key
                              << " (run tools/update_golden.sh if "
                                 "intentional)";
            }
        }
        break;
    }
    }
}

class GoldenStatsTest : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenStatsTest, MatchesPinnedJson)
{
    const GoldenCase &c = GetParam();
    const std::string path =
        std::string(ECDP_GOLDEN_DIR) + "/" + c.file;
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run tools/update_golden.sh";
    std::stringstream ss;
    ss << in.rdbuf();

    JsonValue golden = parseJson(ss.str());
    JsonValue fresh = parseJson(generate(c));
    compareValues(golden, fresh, std::string(c.bench) + ":" +
                                     c.config);
}

INSTANTIATE_TEST_SUITE_P(
    TinyRuns, GoldenStatsTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string name = std::string(info.param.bench) + "_" +
                           info.param.config;
        for (char &ch : name) {
            if (ch == '+' || ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(GoldenStats, EveryNamedConfigIsPinned)
{
    for (const std::string &name : configs::knownNames()) {
        bool pinned = false;
        for (const GoldenCase &c : kCases)
            pinned = pinned || name == c.config;
        EXPECT_TRUE(pinned) << "config " << name
                            << " has no golden case";
    }
}

// ---------------------------------------------------------------------
// Spelled-out differentials: replacing a config's engine stack, or its
// throttle policy, with the literal the paper's section defines must
// leave the configuration, and so its run, unchanged. They pin what
// each factory selects, including two variants that are not named
// configs (the side buffer and 64 B blocks).
// ---------------------------------------------------------------------

struct DifferentialCase
{
    const char *bench;
    const char *config;
};

constexpr DifferentialCase kDifferentialCases[] = {
    {"health", "baseline"},      {"mst", "cdp+throttle"},
    {"bisort", "full"},          {"perimeter", "ecdp+fdp"},
    {"health", "cdp+pab"},       {"mst", "dbp"},
    {"bisort", "markov"},        {"health", "side-buffer"},
    {"mst", "noprefetch"},       {"health", "small-blocks"},
};

/** The engine stack and throttle policy a config spells out. */
struct Spelling
{
    const char *config;
    const char *primary;
    const char *lds;
    const char *policy;
};

constexpr Spelling kSpellings[] = {
    {"baseline", "stream", "none", "static"},
    {"cdp+throttle", "stream", "cdp", "coordinated"},
    {"full", "stream", "ecdp", "coordinated"},
    {"ecdp+fdp", "stream", "ecdp", "fdp"},
    {"cdp+pab", "stream", "cdp", "pab"},
    {"dbp", "stream", "dbp", "static"},
    {"markov", "stream", "markov", "static"},
    {"side-buffer", "stream", "cdp", "static"},
    {"noprefetch", "none", "none", "static"},
    {"small-blocks", "stream", "none", "static"},
};

const Spelling &
spellingOf(const std::string &config)
{
    for (const Spelling &s : kSpellings) {
        if (config == s.config)
            return s;
    }
    throw std::runtime_error("no spelling for differential config " +
                             config);
}

SystemConfig
differentialConfig(const std::string &config, const HintTable *hints)
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
    return configs::byName(config, hints);
}

/** The case's config and a copy @p respell rewrote hash equally. */
template <typename Respell>
void
expectSameConfig(const DifferentialCase &c, Respell respell)
{
    const HintTable hints;
    const SystemConfig cfg = differentialConfig(c.config, &hints);
    SystemConfig spelled = cfg;
    respell(spelled);
    EXPECT_EQ(configHash(cfg), configHash(spelled));
}

std::string
differentialName(const ::testing::TestParamInfo<DifferentialCase> &info)
{
    std::string name =
        std::string(info.param.bench) + "_" + info.param.config;
    for (char &ch : name) {
        if (ch == '+' || ch == '-')
            ch = '_';
    }
    return name;
}

class EngineStackDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase>
{
};

TEST_P(EngineStackDifferentialTest, ExplicitStackIsByteIdentical)
{
    const DifferentialCase &c = GetParam();
    const Spelling &s = spellingOf(c.config);
    expectSameConfig(c, [&](SystemConfig &cfg) {
        cfg.engines = {s.primary, s.lds};
    });
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineStackDifferentialTest,
                         ::testing::ValuesIn(kDifferentialCases),
                         differentialName);

class ThrottlePolicyDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase>
{
};

TEST_P(ThrottlePolicyDifferentialTest, ExplicitPolicyIsByteIdentical)
{
    const DifferentialCase &c = GetParam();
    const Spelling &s = spellingOf(c.config);
    expectSameConfig(c, [&](SystemConfig &cfg) {
        cfg.throttlePolicy = s.policy;
    });
}

INSTANTIATE_TEST_SUITE_P(Matrix, ThrottlePolicyDifferentialTest,
                         ::testing::ValuesIn(kDifferentialCases),
                         differentialName);

} // namespace
} // namespace ecdp
