#include "stats/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace ecdp
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeRunStatsJson(std::ostream &os, const RunStats &stats,
                  const std::string &label)
{
    os << "{";
    os << "\"workload\":\"" << jsonEscape(stats.workload) << "\",";
    if (!label.empty())
        os << "\"config\":\"" << jsonEscape(label) << "\",";
    os << "\"cycles\":" << stats.cycles.raw() << ","
       << "\"instructions\":" << stats.instructions << ","
       << "\"ipc\":" << stats.ipc << ","
       << "\"bpki\":" << stats.bpki << ","
       << "\"timedOut\":" << (stats.timedOut ? "true" : "false") << ","
       << "\"busTransactions\":" << stats.busTransactions << ","
       << "\"l2DemandAccesses\":" << stats.l2DemandAccesses << ","
       << "\"l2DemandMisses\":" << stats.l2DemandMisses << ","
       << "\"l2LdsMisses\":" << stats.l2LdsMisses << ","
       << "\"intervals\":" << stats.intervals << ","
       << "\"intervalSeries\":[";
    for (std::size_t i = 0; i < stats.intervalSeries.size(); ++i) {
        const IntervalSample &s = stats.intervalSeries[i];
        os << (i ? "," : "") << "{\"cycle\":" << s.cycle.raw()
           << ",\"accuracy\":[" << s.accuracy[0] << ","
           << s.accuracy[1] << "],\"coverage\":[" << s.coverage[0]
           << "," << s.coverage[1] << "],\"primaryLevel\":"
           << static_cast<int>(s.primaryLevel)
           << ",\"ldsLevel\":" << static_cast<int>(s.ldsLevel)
           << ",\"primaryEnabled\":"
           << (s.primaryEnabled ? "true" : "false")
           << ",\"ldsEnabled\":"
           << (s.ldsEnabled ? "true" : "false");
        // Slots beyond the legacy pair. Omitted when empty so the
        // two-slot schema stays byte-identical to the pinned goldens.
        if (!s.extra.empty()) {
            os << ",\"extra\":[";
            for (std::size_t e = 0; e < s.extra.size(); ++e) {
                const EngineIntervalExtra &x = s.extra[e];
                os << (e ? "," : "") << "{\"accuracy\":" << x.accuracy
                   << ",\"coverage\":" << x.coverage
                   << ",\"level\":" << static_cast<int>(x.level)
                   << ",\"enabled\":" << (x.enabled ? "true" : "false")
                   << "}";
            }
            os << "]";
        }
        // Per-interval policy state (raw JSON blob). The built-in
        // rule policies emit none, so default-policy output — and
        // with it the pinned goldens — is byte-identical to the
        // pre-policy schema.
        if (!s.policy.empty())
            os << ",\"policy\":" << s.policy;
        os << "}";
    }
    os << "],"
       << "\"prefetchers\":{";
    const char *names[2] = {"primary", "lds"};
    for (unsigned which = 0; which < 2; ++which) {
        os << "\"" << names[which] << "\":{"
           << "\"issued\":" << stats.prefIssued[which] << ","
           << "\"used\":" << stats.prefUsed[which] << ","
           << "\"late\":" << stats.prefLate[which] << ","
           << "\"dropped\":" << stats.prefDropped[which] << ","
           << "\"accuracy\":" << stats.accuracy(which) << ","
           << "\"accuracyDemanded\":"
           << stats.accuracyDemanded(which) << ","
           << "\"coverage\":" << stats.coverage(which) << "}"
           << (which == 0 ? "," : "");
    }
    os << "},\"finalLevels\":{\"primary\":"
       << static_cast<int>(stats.finalPrimaryLevel)
       << ",\"lds\":" << static_cast<int>(stats.finalLdsLevel)
       << "}";
    // Per-slot engine totals. The legacy two-slot layout is fully
    // described by the "prefetchers" object above; only wider (or
    // narrower) stacks add the "engines" array, so two-slot output —
    // and with it the pinned goldens — is byte-identical to the
    // pre-registry schema.
    if (stats.engineStats.size() != 2) {
        os << ",\"engines\":[";
        for (std::size_t i = 0; i < stats.engineStats.size(); ++i) {
            const RunStats::EngineRunStats &es = stats.engineStats[i];
            os << (i ? "," : "") << "{\"instance\":\""
               << jsonEscape(es.instance) << "\",\"engine\":\""
               << jsonEscape(es.engine) << "\",\"issued\":" << es.issued
               << ",\"used\":" << es.used << ",\"late\":" << es.late
               << ",\"dropped\":" << es.dropped << "}";
        }
        os << "]";
    }
    // Throttle policy identification + final state, keyed on the
    // state blob: rule policies serialize nothing and stay invisible
    // here (goldens unchanged); stateful policies (tabular-rl) record
    // which policy/seed produced the run and what it learned.
    if (!stats.throttlePolicyState.empty()) {
        os << ",\"throttlePolicy\":\""
           << jsonEscape(stats.throttlePolicy)
           << "\",\"throttlePolicyState\":"
           << stats.throttlePolicyState;
    }
    os << "}";
}

void
writeMultiCoreJson(std::ostream &os, const MultiCoreResult &result,
                   const std::string &label)
{
    os << "{\"config\":\"" << jsonEscape(label)
       << "\",\"weightedSpeedup\":" << result.weightedSpeedup
       << ",\"hmeanSpeedup\":" << result.hmeanSpeedup
       << ",\"busTransactions\":" << result.busTransactions
       << ",\"cores\":[";
    for (std::size_t i = 0; i < result.perCore.size(); ++i) {
        writeRunStatsJson(os, result.perCore[i]);
        if (i + 1 < result.perCore.size())
            os << ',';
    }
    os << "]}";
}

// --- JsonValue -------------------------------------------------------

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        throw JsonError("JSON value is not a bool");
    return bool_;
}

double
JsonValue::asDouble() const
{
    if (kind_ != Kind::Number)
        throw JsonError("JSON value is not a number");
    return std::strtod(scalar_.c_str(), nullptr);
}

std::uint64_t
JsonValue::asU64() const
{
    if (kind_ != Kind::Number)
        throw JsonError("JSON value is not a number");
    return std::strtoull(scalar_.c_str(), nullptr, 10);
}

std::int64_t
JsonValue::asI64() const
{
    if (kind_ != Kind::Number)
        throw JsonError("JSON value is not a number");
    return std::strtoll(scalar_.c_str(), nullptr, 10);
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        throw JsonError("JSON value is not a string");
    return scalar_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        throw JsonError("JSON value is not an array");
    return array_;
}

const std::map<std::string, JsonValue> &
JsonValue::asObject() const
{
    if (kind_ != Kind::Object)
        throw JsonError("JSON value is not an object");
    return object_;
}

const std::string &
JsonValue::numberText() const
{
    if (kind_ != Kind::Number)
        throw JsonError("JSON value is not a number");
    return scalar_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        throw JsonError("missing JSON member \"" + key + "\"");
    return *v;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(std::string text)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.scalar_ = std::move(text);
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.scalar_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.array_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> members)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.object_ = std::move(members);
    return v;
}

// --- Parser ----------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        throw JsonError(what + " at offset " + std::to_string(pos_));
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeWord(const char *word)
    {
        std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    JsonValue value()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return JsonValue::makeString(string());
          case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            return JsonValue::makeBool(true);
          case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            return JsonValue::makeBool(false);
          case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            return JsonValue::makeNull();
          default:
            return number();
        }
    }

    JsonValue object()
    {
        expect('{');
        enterNested();
        std::map<std::string, JsonValue> members;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return JsonValue::makeObject(std::move(members));
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            // emplace: on duplicate keys the FIRST wins, documented
            // and tested — attacker-supplied later duplicates can't
            // shadow already-validated members.
            members.emplace(std::move(key), value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return JsonValue::makeObject(std::move(members));
        }
    }

    JsonValue array()
    {
        expect('[');
        enterNested();
        std::vector<JsonValue> items;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return JsonValue::makeArray(std::move(items));
        }
        while (true) {
            items.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return JsonValue::makeArray(std::move(items));
        }
    }

    /** The parser recurses per nesting level; a hostile "[[[[..."
     *  must fail as JsonError, not exhaust the stack (tryParseJson
     *  cannot catch a stack overflow). kMaxDepth is far beyond any
     *  document the stats writers produce. */
    void enterNested()
    {
        if (++depth_ > kMaxDepth)
            fail("JSON nesting deeper than " +
                 std::to_string(kMaxDepth) + " levels");
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("bad \\u escape");
                unsigned code = 0;
                for (unsigned i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // The writers only emit \u00xx control escapes;
                // decode the Latin-1 range and pass anything wider
                // through as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    unsigned hi =
                        code >> 6; // simlint-allow(magic-block-shift): utf-8
                    out += static_cast<char>(0xc0 | hi);
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    unsigned mid =
                        code >> 6; // simlint-allow(magic-block-shift): utf-8
                    out += static_cast<char>(0x80 | (mid & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        auto digits = [&]() {
            std::size_t before = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
            if (pos_ == before)
                fail("malformed number");
        };
        digits();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            digits();
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            digits();
        }
        return JsonValue::makeNumber(
            text_.substr(start, pos_ - start));
    }

    static constexpr int kMaxDepth = 192;

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

std::optional<JsonValue>
tryParseJson(const std::string &text)
{
    try {
        return parseJson(text);
    } catch (const JsonError &) {
        return std::nullopt;
    }
}

} // namespace ecdp
