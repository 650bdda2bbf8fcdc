#include "core/sweep_journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/error.h"
#include "util/hash.h"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace h2p {
namespace core {

namespace {

/// Encode a double as its exact 64-bit pattern ("0x3ff0...") so the
/// journal round-trips bit-identically — printf round-tripping of
/// decimal doubles is exact only with care, hex bits are exact by
/// construction and also represent inf/NaN, which JSON numbers cannot.
std::string
hexBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

double
bitsFromHex(const std::string &s)
{
    expect(s.size() == 18 && s[0] == '0' && s[1] == 'x',
           "journal: malformed double bit pattern `", s, "'");
    char *end = nullptr;
    errno = 0;
    unsigned long long bits = std::strtoull(s.c_str() + 2, &end, 16);
    expect(errno == 0 && end == s.c_str() + s.size(),
           "journal: malformed double bit pattern `", s, "'");
    double v;
    uint64_t b = static_cast<uint64_t>(bits);
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
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
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Minimal JSON value/parser covering exactly the journal grammar:
 * objects with string keys, strings, non-negative integers and
 * arrays. Doubles never appear as JSON numbers (they are hex-bit
 * strings), which keeps the parser trivial and the round trip exact.
 */
struct JsonValue
{
    enum class Type { String, Number, Object, Array };
    Type type = Type::Number;
    std::string str;
    uint64_t num = 0;
    std::map<std::string, JsonValue> members;
    std::vector<JsonValue> items;

    const JsonValue &at(const std::string &key) const
    {
        auto it = members.find(key);
        expect(it != members.end(), "journal: record is missing key `",
               key, "'");
        return it->second;
    }
    bool has(const std::string &key) const
    {
        return members.find(key) != members.end();
    }
    const std::string &asString() const
    {
        expect(type == Type::String, "journal: expected a string value");
        return str;
    }
    uint64_t asNumber() const
    {
        expect(type == Type::Number, "journal: expected a number value");
        return num;
    }
    double asDouble() const { return bitsFromHex(asString()); }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        expect(pos_ == text_.size(),
               "journal: trailing content after JSON record");
        return v;
    }

  private:
    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t'))
            ++pos_;
    }

    char peek()
    {
        expect(pos_ < text_.size(), "journal: truncated JSON record");
        return text_[pos_];
    }

    void eat(char c)
    {
        expect(pos_ < text_.size() && text_[pos_] == c,
               "journal: malformed JSON record (expected `", c, "')");
        ++pos_;
    }

    JsonValue parseValue()
    {
        skipSpace();
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        return parseNumber();
    }

    JsonValue parseObject()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        eat('{');
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipSpace();
            JsonValue key = parseString();
            skipSpace();
            eat(':');
            v.members[key.str] = parseValue();
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            eat('}');
            return v;
        }
    }

    JsonValue parseArray()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        eat('[');
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items.push_back(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            eat(']');
            return v;
        }
    }

    JsonValue parseString()
    {
        JsonValue v;
        v.type = JsonValue::Type::String;
        eat('"');
        for (;;) {
            expect(pos_ < text_.size(), "journal: unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.str += c;
                continue;
            }
            expect(pos_ < text_.size(), "journal: unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"':
                v.str += '"';
                break;
              case '\\':
                v.str += '\\';
                break;
              case 'n':
                v.str += '\n';
                break;
              case 'r':
                v.str += '\r';
                break;
              case 't':
                v.str += '\t';
                break;
              case 'u': {
                expect(pos_ + 4 <= text_.size(),
                       "journal: truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fatal("journal: malformed \\u escape");
                }
                expect(code < 0x80,
                       "journal: unsupported non-ASCII \\u escape");
                v.str += static_cast<char>(code);
                break;
              }
              default:
                fatal("journal: unsupported escape `\\", e, "'");
            }
        }
    }

    JsonValue parseNumber()
    {
        JsonValue v;
        v.type = JsonValue::Type::Number;
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        expect(pos_ > start, "journal: malformed JSON value");
        errno = 0;
        v.num = std::strtoull(text_.substr(start, pos_ - start).c_str(),
                              nullptr, 10);
        expect(errno == 0, "journal: integer out of range");
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

sched::Policy
policyFromString(const std::string &name)
{
    if (name == sched::toString(sched::Policy::TegOriginal))
        return sched::Policy::TegOriginal;
    if (name == sched::toString(sched::Policy::TegLoadBalance))
        return sched::Policy::TegLoadBalance;
    fatal("journal: unknown policy `", name, "'");
}

void
writeSummary(std::ostream &os, const RunSummary &s)
{
    os << "{\"avg_teg_w\":\"" << hexBits(s.avg_teg_w)            //
       << "\",\"peak_teg_w\":\"" << hexBits(s.peak_teg_w)        //
       << "\",\"avg_cpu_w\":\"" << hexBits(s.avg_cpu_w)          //
       << "\",\"pre\":\"" << hexBits(s.pre)                      //
       << "\",\"teg_energy_kwh\":\"" << hexBits(s.teg_energy_kwh)
       << "\",\"cpu_energy_kwh\":\"" << hexBits(s.cpu_energy_kwh)
       << "\",\"plant_energy_kwh\":\"" << hexBits(s.plant_energy_kwh)
       << "\",\"pump_energy_kwh\":\"" << hexBits(s.pump_energy_kwh)
       << "\",\"safe_fraction\":\"" << hexBits(s.safe_fraction)
       << "\",\"avg_t_in_c\":\"" << hexBits(s.avg_t_in_c)
       << "\",\"fault_events\":" << s.fault_events
       << ",\"throttle_events\":" << s.throttle_events
       << ",\"throttled_work_server_hours\":\""
       << hexBits(s.throttled_work_server_hours)
       << "\",\"teg_energy_lost_kwh\":\""
       << hexBits(s.teg_energy_lost_kwh)
       << "\",\"safe_mode_steps\":" << s.safe_mode_steps
       << ",\"max_faulted_servers\":" << s.max_faulted_servers
       << ",\"circulation_safe_fraction\":[";
    for (size_t i = 0; i < s.circulation_safe_fraction.size(); ++i)
        os << (i ? "," : "") << '"'
           << hexBits(s.circulation_safe_fraction[i]) << '"';
    os << "]}";
}

RunSummary
readSummary(const JsonValue &v, sched::Policy policy)
{
    RunSummary s;
    s.policy = policy;
    s.avg_teg_w = v.at("avg_teg_w").asDouble();
    s.peak_teg_w = v.at("peak_teg_w").asDouble();
    s.avg_cpu_w = v.at("avg_cpu_w").asDouble();
    s.pre = v.at("pre").asDouble();
    s.teg_energy_kwh = v.at("teg_energy_kwh").asDouble();
    s.cpu_energy_kwh = v.at("cpu_energy_kwh").asDouble();
    s.plant_energy_kwh = v.at("plant_energy_kwh").asDouble();
    s.pump_energy_kwh = v.at("pump_energy_kwh").asDouble();
    s.safe_fraction = v.at("safe_fraction").asDouble();
    s.avg_t_in_c = v.at("avg_t_in_c").asDouble();
    s.fault_events = static_cast<size_t>(v.at("fault_events").asNumber());
    s.throttle_events =
        static_cast<size_t>(v.at("throttle_events").asNumber());
    s.throttled_work_server_hours =
        v.at("throttled_work_server_hours").asDouble();
    s.teg_energy_lost_kwh = v.at("teg_energy_lost_kwh").asDouble();
    s.safe_mode_steps =
        static_cast<size_t>(v.at("safe_mode_steps").asNumber());
    s.max_faulted_servers =
        static_cast<size_t>(v.at("max_faulted_servers").asNumber());
    const JsonValue &csf = v.at("circulation_safe_fraction");
    expect(csf.type == JsonValue::Type::Array,
           "journal: circulation_safe_fraction is not an array");
    s.circulation_safe_fraction.reserve(csf.items.size());
    for (const JsonValue &item : csf.items)
        s.circulation_safe_fraction.push_back(item.asDouble());
    return s;
}

void
syncFile(std::FILE *file, const std::string &path)
{
    expectSys(std::fflush(file) == 0, "journal `", path,
              "': flush failed");
#if !defined(_WIN32)
    expectSys(::fsync(fileno(file)) == 0, "journal `", path,
              "': fsync failed");
#endif
}

} // namespace

const char *
toString(PointStatus status)
{
    switch (status) {
      case PointStatus::Completed:
        return "completed";
      case PointStatus::Quarantined:
        return "quarantined";
      case PointStatus::Skipped:
        return "skipped";
    }
    return "unknown";
}

SweepJournal::SweepJournal(SweepJournal &&other) noexcept
    : file_(other.file_), path_(std::move(other.path_))
{
    other.file_ = nullptr;
}

SweepJournal &
SweepJournal::operator=(SweepJournal &&other) noexcept
{
    if (this != &other) {
        if (file_ != nullptr)
            std::fclose(file_);
        file_ = other.file_;
        path_ = std::move(other.path_);
        other.file_ = nullptr;
    }
    return *this;
}

SweepJournal::~SweepJournal()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

namespace {

/**
 * Manifest format. Version 1 carried a combined fingerprint over 7
 * configuration fields; version 2 carries one digest per field.
 */
constexpr uint64_t kManifestVersion = 2;

std::string
hexU64(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
parseHexU64(const std::string &s)
{
    expect(s.size() == 18 && s[0] == '0' && s[1] == 'x',
           "journal: malformed fingerprint `", s, "'");
    return static_cast<uint64_t>(std::strtoull(s.c_str() + 2, nullptr, 16));
}

} // namespace

SweepJournal
SweepJournal::createWithManifest(const std::string &path,
                                 const std::string &manifest)
{
    SweepJournal j;
    j.path_ = path;
    j.file_ = std::fopen(path.c_str(), "wb");
    expect(j.file_ != nullptr, "cannot create sweep journal `", path,
           "': ", std::strerror(errno));
    expectSys(std::fwrite(manifest.data(), 1, manifest.size(), j.file_) ==
                  manifest.size(),
              "journal `", path, "': write failed");
    syncFile(j.file_, path);
    return j;
}

SweepJournal
SweepJournal::create(const std::string &path, size_t num_points,
                     const GridFingerprints &fingerprints)
{
    std::ostringstream os;
    os << "{\"type\":\"manifest\",\"version\":" << kManifestVersion
       << ",\"points\":" << num_points << ",\"fp_shape\":\""
       << hexU64(fingerprints.shape) << "\",\"fp_trace\":\""
       << hexU64(fingerprints.trace) << "\",\"fp_guard\":\""
       << hexU64(fingerprints.guard) << "\",\"fp_config\":{";
    for (size_t i = 0; i < fingerprints.config.size(); ++i) {
        const FieldDigest &d = fingerprints.config[i];
        os << (i > 0 ? "," : "") << '"' << jsonEscape(d.name) << "\":\""
           << hexU64(d.digest) << '"';
    }
    os << "}}\n";
    return createWithManifest(path, os.str());
}

SweepJournal
SweepJournal::openAppend(const std::string &path)
{
    SweepJournal j;
    j.path_ = path;
    j.file_ = std::fopen(path.c_str(), "ab");
    expect(j.file_ != nullptr, "cannot open sweep journal `", path,
           "' for append: ", std::strerror(errno));
    return j;
}

void
SweepJournal::append(const JournalPointRecord &record)
{
    H2P_ASSERT(file_ != nullptr, "journal appended after close");
    H2P_ASSERT(record.status != PointStatus::Skipped,
               "skipped points are never journaled");
    std::ostringstream os;
    os << "{\"type\":\"point\",\"index\":" << record.index
       << ",\"status\":\"" << toString(record.status)
       << "\",\"attempts\":" << record.attempts << ",\"label\":\""
       << jsonEscape(record.label) << "\",\"policy\":\""
       << jsonEscape(sched::toString(record.policy))
       << "\",\"duration_s\":\"" << hexBits(record.duration_s) << "\"";
    if (record.status == PointStatus::Completed) {
        os << ",\"summary\":";
        writeSummary(os, record.summary);
    } else {
        os << ",\"kind\":\"" << h2p::toString(record.failure.kind)
           << "\",\"step\":" << record.failure.step << ",\"stage\":\""
           << jsonEscape(record.failure.stage) << "\",\"message\":\""
           << jsonEscape(record.failure.message) << "\"";
    }
    os << "}\n";
    const std::string line = os.str();
    expectSys(std::fwrite(line.data(), 1, line.size(), file_) ==
                  line.size(),
              "journal `", path_, "': write failed");
    // Durable before the result is visible downstream: one fsync per
    // point, the price of resumability.
    syncFile(file_, path_);
}

void
SweepJournal::close()
{
    if (file_ == nullptr)
        return;
    syncFile(file_, path_);
    std::fclose(file_);
    file_ = nullptr;
}

bool
SweepJournal::exists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::fclose(f);
    return true;
}

SweepJournal::Loaded
SweepJournal::load(const std::string &path)
{
    std::ifstream is(path);
    expect(is.good(), "cannot open sweep journal `", path,
           "' for reading");

    Loaded loaded;
    std::string line;
    size_t line_no = 0;
    bool have_manifest = false;
    // Collect lines first so the torn-tail tolerance below knows
    // which line is the final one.
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    expect(!lines.empty(), "sweep journal `", path, "' is empty");

    for (size_t li = 0; li < lines.size(); ++li) {
        line_no = li + 1;
        if (lines[li].empty())
            continue;
        const bool is_last = li + 1 == lines.size();
        JsonValue v;
        try {
            v = JsonParser(lines[li]).parse();
        } catch (const Error &) {
            // A crash mid-append can tear exactly the final line;
            // anything before it was fsync'd whole and a parse
            // failure there is real corruption.
            if (is_last && have_manifest) {
                break;
            }
            fatal("sweep journal `", path, "' line ", line_no,
                  " is corrupt");
        }
        std::string type;
        try {
            type = v.at("type").asString();
            if (type == "manifest") {
                expect(!have_manifest, "sweep journal `", path,
                       "' has more than one manifest");
                const uint64_t version = v.at("version").asNumber();
                expect(version != 1,
                       "manifest version 1 was written by an older "
                       "build that digested only part of the "
                       "configuration; it cannot be resumed, rerun "
                       "without --sweep-resume to start the sweep over");
                expect(version == kManifestVersion,
                       "unsupported manifest version ", version);
                loaded.num_points =
                    static_cast<size_t>(v.at("points").asNumber());
                GridFingerprints &fp = loaded.fingerprints;
                fp.shape = parseHexU64(v.at("fp_shape").asString());
                fp.trace = parseHexU64(v.at("fp_trace").asString());
                fp.guard = parseHexU64(v.at("fp_guard").asString());
                for (const auto &[name, digest] :
                     v.at("fp_config").members)
                    fp.config.push_back(
                        {name, parseHexU64(digest.asString())});
                have_manifest = true;
                continue;
            }
            expect(have_manifest, "sweep journal `", path,
                   "' does not start with a manifest");
            expect(type == "point", "sweep journal `", path, "' line ",
                   line_no, " has unknown type `", type, "'");
            JournalPointRecord rec;
            rec.index = static_cast<size_t>(v.at("index").asNumber());
            const std::string status = v.at("status").asString();
            rec.attempts =
                static_cast<size_t>(v.at("attempts").asNumber());
            rec.label = v.at("label").asString();
            rec.policy = policyFromString(v.at("policy").asString());
            rec.duration_s = v.at("duration_s").asDouble();
            if (status == "completed") {
                rec.status = PointStatus::Completed;
                rec.summary = readSummary(v.at("summary"), rec.policy);
            } else if (status == "quarantined") {
                rec.status = PointStatus::Quarantined;
                rec.failure.kind =
                    failureKindFromString(v.at("kind").asString());
                rec.failure.step =
                    static_cast<size_t>(v.at("step").asNumber());
                rec.failure.stage = v.at("stage").asString();
                rec.failure.message = v.at("message").asString();
            } else {
                fatal("journal: unknown point status `", status, "'");
            }
            expect(rec.index < loaded.num_points, "sweep journal `",
                   path, "' line ", line_no, ": point index ",
                   rec.index, " exceeds manifest size ",
                   loaded.num_points);
            loaded.records[rec.index] = std::move(rec);
        } catch (const Error &e) {
            // Semantic truncation of the final line (valid JSON cut
            // short is near-impossible, but missing keys are the same
            // torn-tail case).
            if (is_last && have_manifest && type != "manifest")
                break;
            fatal("sweep journal `", path, "' line ", line_no, ": ",
                  e.what());
        }
    }
    expect(have_manifest, "sweep journal `", path,
           "' has no manifest line");
    return loaded;
}

SweepJournal::GridFingerprints
SweepJournal::gridFingerprints(const std::vector<SweepPoint> &grid)
{
    util::Fnv1a shape, trace, guard;
    std::vector<util::Fnv1a> config;
    GridFingerprints fps;
    shape.size(grid.size());
    for (const SweepPoint &p : grid) {
        shape.str(p.label);
        shape.u64(static_cast<uint64_t>(p.policy));
        trace.u64(p.trace != nullptr ? p.trace->fingerprint() : 0);
        guard.f64(p.deadline_s);
        guard.size(p.step_budget);
        const std::vector<FieldDigest> fields = configDigests(p.config);
        if (config.empty()) {
            fps.config = fields;
            config.resize(fields.size());
        }
        for (size_t i = 0; i < fields.size(); ++i)
            config[i].u64(fields[i].digest);
    }
    fps.shape = shape.digest();
    fps.trace = trace.digest();
    fps.guard = guard.digest();
    for (size_t i = 0; i < config.size(); ++i)
        fps.config[i].digest = config[i].digest();
    return fps;
}

std::string
SweepJournal::describeMismatch(const GridFingerprints &journaled,
                               const GridFingerprints &expected)
{
    std::vector<std::string> diverged;
    if (journaled.shape != expected.shape)
        diverged.push_back("grid shape (size, labels or policies)");
    const std::string fields =
        differingFields(journaled.config, expected.config);
    if (!fields.empty())
        diverged.push_back("configuration (" + fields + ")");
    if (journaled.trace != expected.trace)
        diverged.push_back("traces");
    if (journaled.guard != expected.guard)
        diverged.push_back("supervision overrides (per-point deadline "
                           "or step budget)");
    std::string msg;
    for (size_t i = 0; i < diverged.size(); ++i) {
        if (i > 0)
            msg += i + 1 == diverged.size() ? " and " : ", ";
        msg += diverged[i];
    }
    return msg;
}

} // namespace core
} // namespace h2p
