/**
 * @file
 * Machine-readable export of run statistics. The bench binaries print
 * human tables; tooling (plotters, CI trend checks) consumes this
 * JSON instead. Also hosts a minimal JSON value model and parser so
 * the persistent result cache (src/runner) can read back what the
 * writers emit — no external JSON dependency.
 */

#ifndef ECDP_STATS_JSON_HH
#define ECDP_STATS_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/multicore.hh"

namespace ecdp
{

/**
 * Write @p stats as a single JSON object to @p os.
 *
 * @param label Optional "config" field value (e.g. "baseline").
 */
void writeRunStatsJson(std::ostream &os, const RunStats &stats,
                       const std::string &label = "");

/**
 * Write a multi-core run as one JSON object: @p label as "config",
 * the weighted and hmean speedups, total bus transactions and one
 * writeRunStatsJson() object per core under "cores".
 */
void writeMultiCoreJson(std::ostream &os, const MultiCoreResult &result,
                        const std::string &label);

/** JSON string escaping (exposed for tests). */
std::string jsonEscape(const std::string &text);

/**
 * A parsed JSON value. Numbers keep their source text so integer
 * counters round-trip exactly (no double rounding at 2^53).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** @{ Typed readers; abort via exception on kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::map<std::string, JsonValue> &asObject() const;
    /** @} */

    /**
     * Source text of a Number, exactly as parsed. The golden-stats
     * tests compare this so a counter differing in the 17th digit
     * cannot hide behind double rounding.
     */
    const std::string &numberText() const;

    /** Object member, or nullptr when missing / not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member that must exist; throws JsonError otherwise. */
    const JsonValue &at(const std::string &key) const;

    /** @{ Construction (used by the parser and tests). */
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(std::string text);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(
        std::map<std::string, JsonValue> members);
    /** @} */

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    /** Source text of a Number, decoded text of a String. */
    std::string scalar_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/** Error thrown by the parser and the typed readers. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Parse one JSON document. Throws JsonError on malformed input. */
JsonValue parseJson(const std::string &text);

/** Parse, returning nullopt instead of throwing. */
std::optional<JsonValue> tryParseJson(const std::string &text);

} // namespace ecdp

#endif // ECDP_STATS_JSON_HH
