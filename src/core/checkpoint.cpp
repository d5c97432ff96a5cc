#include "core/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/json.hpp"

namespace jsi::core {

namespace {

namespace json = jsi::util::json;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

// Every version so far redefined the bus.* counters chunk records carry
// (v2: one waveform store instead of a memo plus MA tables; v3: the store
// keyed by wire recipe), so a record of an older version must never be
// folded into a current run's registry.
constexpr const char* kSchema = "jsi.checkpoint.v3";
constexpr std::string_view kSchemaPrefix = "jsi.checkpoint.v";

/// k of a `jsi.checkpoint.v<k>` schema (canonical decimal), else 0.
unsigned schema_version(std::string_view schema) {
  if (!schema.starts_with(kSchemaPrefix)) return 0;
  const std::string_view digits = schema.substr(kSchemaPrefix.size());
  unsigned k = 0;
  const auto parsed =
      std::from_chars(digits.data(), digits.data() + digits.size(), k);
  if (parsed.ec != std::errc() || std::to_string(k) != digits) return 0;
  return k;
}

// -- bit-exact doubles ------------------------------------------------------
//
// Gauge values and histogram sums are doubles whose exact bit patterns
// are part of the byte-identity contract (they feed FP additions whose
// results are re-serialized). A decimal round-trip could lose the last
// ulp, so doubles travel as the hex of their IEEE-754 bits.

std::string hex_of_double(double v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return std::string(buf);
}

double double_of_hex(const std::string& s) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') {
    fail("malformed double bit pattern \"" + s + "\"");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    std::uint64_t d = 0;
    if (c >= '0' && c <= '9') {
      d = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      fail("malformed double bit pattern \"" + s + "\"");
    }
    bits = (bits << 4) | d;
  }
  return std::bit_cast<double>(bits);
}

// -- typed accessors over the parsed document -------------------------------

const json::Value& member(const json::Value& obj, const char* key) {
  const json::Value* v = obj.is_object() ? obj.find(key) : nullptr;
  if (v == nullptr) fail(std::string("missing member \"") + key + "\"");
  return *v;
}

std::uint64_t as_u64(const json::Value& v, const char* key) {
  // Counters and TCK books are integers; the document model parses them
  // into doubles, which is exact through 2^53 — far above any realistic
  // campaign count, and the writer side emits them as plain integers.
  if (!v.is_number() || v.number < 0 ||
      v.number != static_cast<double>(static_cast<std::uint64_t>(v.number))) {
    fail(std::string("member \"") + key + "\" is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(v.number);
}

std::uint64_t u64_member(const json::Value& obj, const char* key) {
  return as_u64(member(obj, key), key);
}

std::string string_member(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (!v.is_string()) fail(std::string("member \"") + key + "\" is not a string");
  return v.str;
}

bool bool_member(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (!v.is_bool()) fail(std::string("member \"") + key + "\" is not a bool");
  return v.boolean;
}

double hexdouble_member(const json::Value& obj, const char* key) {
  return double_of_hex(string_member(obj, key));
}

// -- record parsing ---------------------------------------------------------

obs::Registry parse_registry(const json::Value& v) {
  obs::Registry reg;
  for (const auto& [name, c] : member(v, "counters").object) {
    reg.counter(name).inc(as_u64(c, name.c_str()));
  }
  for (const auto& [name, g] : member(v, "gauges").object) {
    if (!g.is_string()) fail("gauge \"" + name + "\" is not a bit pattern");
    reg.gauge(name).set(double_of_hex(g.str));
  }
  for (const auto& [name, h] : member(v, "histograms").object) {
    std::vector<double> bounds;
    for (const json::Value& b : member(h, "bounds").array) {
      if (!b.is_string()) fail("histogram \"" + name + "\" bound is not a bit pattern");
      bounds.push_back(double_of_hex(b.str));
    }
    std::vector<std::uint64_t> counts;
    for (const json::Value& c : member(h, "counts").array) {
      counts.push_back(as_u64(c, "counts"));
    }
    obs::Histogram& hist = reg.histogram(name, std::move(bounds));
    hist.restore(std::move(counts), u64_member(h, "count"),
                 hexdouble_member(h, "sum"));
  }
  return reg;
}

UnitOutcome parse_outcome(const json::Value& v) {
  UnitOutcome o;
  o.index = static_cast<std::size_t>(u64_member(v, "index"));
  o.name = string_member(v, "name");
  o.summary = string_member(v, "summary");
  o.total_tcks = u64_member(v, "total_tcks");
  o.generation_tcks = u64_member(v, "generation_tcks");
  o.observation_tcks = u64_member(v, "observation_tcks");
  o.violation = bool_member(v, "violation");
  o.failed = bool_member(v, "failed");
  return o;
}

ChunkRecord parse_record(const json::Value& v) {
  ChunkRecord rec;
  rec.chunk = static_cast<std::size_t>(u64_member(v, "chunk"));
  const json::Value& agg = member(v, "agg");
  rec.agg.units = u64_member(agg, "units");
  rec.agg.violations = u64_member(agg, "violations");
  rec.agg.failures = u64_member(agg, "failures");
  rec.agg.total_tcks = u64_member(agg, "total_tcks");
  rec.agg.generation_tcks = u64_member(agg, "generation_tcks");
  rec.agg.observation_tcks = u64_member(agg, "observation_tcks");
  rec.registry = parse_registry(member(v, "registry"));
  for (const json::Value& o : member(v, "outcomes").array) {
    rec.outcomes.push_back(parse_outcome(o));
  }
  return rec;
}

// -- record validation ------------------------------------------------------

[[noreturn]] void mismatch(const std::string& what) {
  throw CheckpointMismatchError("checkpoint: " + what);
}

/// A record must book exactly its chunk [lo, hi) of the header's layout:
/// the fold adds its books to the campaign totals unseen, so a record
/// that claims more (or other) units than its chunk holds would print a
/// report no run of this campaign can produce.
void check_record(const ChunkRecord& rec, const CheckpointHeader& h) {
  const std::string at = "chunk " + std::to_string(rec.chunk);
  const std::uint64_t n_chunks =
      h.chunk_size == 0 ? 0
                        : h.units / h.chunk_size + (h.units % h.chunk_size != 0);
  if (rec.chunk >= n_chunks) {
    mismatch(at + " is out of range (" + std::to_string(n_chunks) +
             " chunks of " + std::to_string(h.chunk_size) + " units)");
  }
  // rec.chunk < n_chunks, so lo < units and neither bound can overflow.
  const std::uint64_t lo = rec.chunk * h.chunk_size;
  const std::uint64_t hi = lo + std::min(h.chunk_size, h.units - lo);
  const ChunkAggregate& a = rec.agg;
  if (a.units != hi - lo) {
    mismatch(at + " books " + std::to_string(a.units) + " units, its range [" +
             std::to_string(lo) + ", " + std::to_string(hi) + ") holds " +
             std::to_string(hi - lo));
  }
  if (a.violations > a.units || a.failures > a.units) {
    mismatch(at + " books more violations or failures than units");
  }
  std::uint64_t next = lo;
  for (const UnitOutcome& o : rec.outcomes) {
    if (o.index < next || o.index >= hi) {
      mismatch(at + ": outcome index " + std::to_string(o.index) +
               " is out of order or outside [" + std::to_string(lo) + ", " +
               std::to_string(hi) + ")");
    }
    if (h.aggregate && !o.failed) {
      mismatch(at + ": aggregate records retain failed outcomes only");
    }
    next = o.index + 1;
  }
  // Aggregate records keep one outcome per failure; per-unit records one
  // per unit.
  const std::uint64_t want = h.aggregate ? a.failures : a.units;
  if (rec.outcomes.size() != want) {
    mismatch(at + " retains " + std::to_string(rec.outcomes.size()) +
             " outcomes, its books call for " + std::to_string(want));
  }
}

}  // namespace

std::string fingerprint_text(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV prime
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string(buf);
}

void write_checkpoint_header(std::ostream& os, const CheckpointHeader& h) {
  os << "{\"schema\":\"" << kSchema << "\",\"fingerprint\":";
  json::write_escaped_string(os, h.fingerprint);
  os << ",\"units\":" << h.units << ",\"chunk_size\":" << h.chunk_size
     << ",\"aggregate\":" << (h.aggregate ? "true" : "false") << '}';
}

void write_chunk_record(std::ostream& os, const ChunkRecord& rec) {
  os << "{\"chunk\":" << rec.chunk << ",\"agg\":{\"units\":" << rec.agg.units
     << ",\"violations\":" << rec.agg.violations
     << ",\"failures\":" << rec.agg.failures
     << ",\"total_tcks\":" << rec.agg.total_tcks
     << ",\"generation_tcks\":" << rec.agg.generation_tcks
     << ",\"observation_tcks\":" << rec.agg.observation_tcks
     << "},\"registry\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : rec.registry.counters()) {
    if (!first) os << ',';
    first = false;
    json::write_escaped_string(os, name);
    os << ':' << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : rec.registry.gauges()) {
    if (!first) os << ',';
    first = false;
    json::write_escaped_string(os, name);
    os << ":\"" << hex_of_double(g.value()) << '"';
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : rec.registry.histograms()) {
    if (!first) os << ',';
    first = false;
    json::write_escaped_string(os, name);
    os << ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i) os << ',';
      os << '"' << hex_of_double(h.bounds()[i]) << '"';
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
      if (i) os << ',';
      os << h.counts()[i];
    }
    os << "],\"count\":" << h.count() << ",\"sum\":\"" << hex_of_double(h.sum())
       << "\"}";
  }
  os << "}},\"outcomes\":[";
  for (std::size_t i = 0; i < rec.outcomes.size(); ++i) {
    const UnitOutcome& o = rec.outcomes[i];
    if (i) os << ',';
    os << "{\"index\":" << o.index << ",\"name\":";
    json::write_escaped_string(os, o.name);
    os << ",\"summary\":";
    json::write_escaped_string(os, o.summary);
    os << ",\"total_tcks\":" << o.total_tcks
       << ",\"generation_tcks\":" << o.generation_tcks
       << ",\"observation_tcks\":" << o.observation_tcks
       << ",\"violation\":" << (o.violation ? "true" : "false")
       << ",\"failed\":" << (o.failed ? "true" : "false") << '}';
  }
  os << "]}";
}

CheckpointData load_checkpoint(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open \"" + path + "\"");

  std::string line;
  if (!std::getline(is, line)) fail("\"" + path + "\" is empty");
  std::string err;
  std::optional<json::Value> header = json::parse(line, &err);
  if (!header) fail("\"" + path + "\" header: " + err);
  const std::string schema = string_member(*header, "schema");
  if (schema != kSchema) {
    const unsigned k = schema_version(schema);
    if (k != 0 && k < schema_version(kSchema)) {
      throw CheckpointMismatchError(
          "checkpoint: \"" + path + "\" has schema \"" + schema +
          "\", this build writes \"" + kSchema +
          "\" (the bus.* counters changed); rerun without --resume");
    }
    fail("\"" + path + "\": unknown schema \"" + schema + "\"");
  }

  CheckpointData data;
  data.header.fingerprint = string_member(*header, "fingerprint");
  data.header.units = u64_member(*header, "units");
  data.header.chunk_size = u64_member(*header, "chunk_size");
  data.header.aggregate = bool_member(*header, "aggregate");

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::optional<json::Value> v = json::parse(line, &err);
    if (!v) {
      // A line that is not complete JSON is the torn tail of a killed
      // writer (records are appended line-atomically, so only the last
      // line can be partial). Everything before it is intact — stop
      // here and resume from what was durably recorded.
      break;
    }
    data.records.push_back(parse_record(*v));
    check_record(data.records.back(), data.header);
  }
  return data;
}

void merge_checkpoint_parts(const std::string& dst, const CheckpointHeader& h,
                            const std::vector<std::string>& parts) {
  std::ofstream os(dst, std::ios::binary | std::ios::trunc);
  if (!os) fail("cannot open \"" + dst + "\" for writing");
  write_checkpoint_header(os, h);
  os << '\n';
  for (const std::string& part : parts) {
    std::ifstream is(part, std::ios::binary);
    if (!is) fail("missing part file \"" + part + "\"");
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    // Durable region: after the part's own header line, up to (and
    // including) the last newline. Anything past the last '\n' is a torn
    // tail from a killed writer — dropped here so it cannot masquerade
    // as a complete line in the merged file (its chunk re-runs in the
    // fold instead).
    const std::size_t header_end = text.find('\n');
    if (header_end == std::string::npos) continue;  // header itself torn
    const std::size_t durable_end = text.find_last_of('\n') + 1;
    os << text.substr(header_end + 1, durable_end - header_end - 1);
  }
  os.flush();
  if (!os) fail("write failed on \"" + dst + "\"");
}

void CheckpointWriter::open(const std::string& path, const CheckpointHeader& h,
                            bool resume_existing) {
  if (resume_existing) {
    // A previous kill can leave an unterminated torn tail as the file's
    // last bytes. Appending after it would glue the first fresh record
    // onto the fragment, producing one unparseable line that loses BOTH
    // records on the next load. Truncate to the durable (newline-
    // terminated) prefix before appending.
    std::ifstream is(path, std::ios::binary);
    if (is) {
      std::ostringstream ss;
      ss << is.rdbuf();
      const std::string text = ss.str();
      const std::size_t last_nl = text.find_last_of('\n');
      const std::size_t durable =
          last_nl == std::string::npos ? 0 : last_nl + 1;
      if (durable < text.size()) {
        std::error_code ec;
        std::filesystem::resize_file(path, durable, ec);
        if (ec) fail("cannot truncate torn tail of \"" + path + "\"");
      }
    }
  }
  os_.open(path, resume_existing ? (std::ios::out | std::ios::app)
                                 : (std::ios::out | std::ios::trunc));
  if (!os_) fail("cannot open \"" + path + "\" for writing");
  if (!resume_existing) {
    write_checkpoint_header(os_, h);
    os_ << '\n';
    os_.flush();
    if (!os_) fail("write failed on \"" + path + "\"");
  }
}

std::string chunk_record_line(const ChunkRecord& rec) {
  std::ostringstream line;
  write_chunk_record(line, rec);
  line << '\n';
  return std::move(line).str();
}

void CheckpointWriter::append_line(const std::string& line) {
  // The whole line in one write: a crash can tear the last line but
  // never interleave two records.
  os_ << line;
  os_.flush();
  if (!os_) fail("append failed");
}

}  // namespace jsi::core
