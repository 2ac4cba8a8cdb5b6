#include "service/cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "service/json.hpp"
#include "sim/provenance.hpp"

namespace pcd::service {

namespace {

JsonValue summary_json(const campaign::Summary& s) {
  JsonValue v = JsonValue::object();
  v.set("n", JsonValue::of(s.n));
  v.set("median", JsonValue::of(hex_double(s.median)));
  v.set("q1", JsonValue::of(hex_double(s.q1)));
  v.set("q3", JsonValue::of(hex_double(s.q3)));
  v.set("min", JsonValue::of(hex_double(s.min)));
  v.set("max", JsonValue::of(hex_double(s.max)));
  v.set("mean", JsonValue::of(hex_double(s.mean)));
  return v;
}

bool summary_from(const JsonValue* v, campaign::Summary* out) {
  if (v == nullptr || !v->is_object()) return false;
  out->n = static_cast<int>(v->int_or("n", -1));
  if (out->n < 0) return false;
  struct Field { const char* name; double* dst; };
  const Field fields[] = {{"median", &out->median}, {"q1", &out->q1},
                          {"q3", &out->q3},         {"min", &out->min},
                          {"max", &out->max},       {"mean", &out->mean}};
  for (const auto& f : fields) {
    const JsonValue* s = v->find(f.name);
    if (s == nullptr || !s->is_string() ||
        !parse_hex_double(s->as_string(), f.dst)) {
      return false;
    }
  }
  return true;
}

bool hex_field(const JsonValue& v, const char* name, double* out) {
  const JsonValue* s = v.find(name);
  return s != nullptr && s->is_string() && parse_hex_double(s->as_string(), out);
}

}  // namespace

std::string ResultCache::encode(const campaign::CellResult& cell) {
  JsonValue v = JsonValue::object();
  v.set("index", JsonValue::of(static_cast<std::int64_t>(cell.index)));
  v.set("workload", JsonValue::of(cell.workload));
  JsonValue labels = JsonValue::array();
  for (const auto& l : cell.labels) labels.push(JsonValue::of(l));
  v.set("labels", std::move(labels));
  JsonValue numbers = JsonValue::array();
  for (double n : cell.numbers) numbers.push(JsonValue::of(hex_double(n)));
  v.set("numbers", std::move(numbers));
  JsonValue numeric = JsonValue::array();
  for (bool b : cell.numeric) numeric.push(JsonValue::of(b));
  v.set("numeric", std::move(numeric));
  v.set("delay", summary_json(cell.delay));
  v.set("energy", summary_json(cell.energy));
  v.set("digest_root", JsonValue::of(hex16(cell.digest_root)));
  v.set("has_digest", JsonValue::of(cell.has_digest));
  v.set("runs", JsonValue::of(cell.runs));
  v.set("failures", JsonValue::of(cell.failures));
  v.set("thrown", JsonValue::of(cell.thrown));
  JsonValue errors = JsonValue::array();
  for (const auto& e : cell.errors) errors.push(JsonValue::of(e));
  v.set("errors", std::move(errors));
  v.set("first_exception", JsonValue::of(cell.first_exception));
  // Representative run: exactly the fields tsv()/table() consume.  Cached
  // cells are clean successes, so traces/telemetry/fault reports (which do
  // not enter the TSV) are not persisted.
  JsonValue r = JsonValue::object();
  r.set("workload", JsonValue::of(cell.result.workload));
  r.set("delay_s", JsonValue::of(hex_double(cell.result.delay_s)));
  r.set("energy_j", JsonValue::of(hex_double(cell.result.energy_j)));
  r.set("energy_acpi_j", JsonValue::of(hex_double(cell.result.energy_acpi_j)));
  r.set("energy_baytech_j",
        JsonValue::of(hex_double(cell.result.energy_baytech_j)));
  r.set("dvs_transitions",
        JsonValue::of(static_cast<std::int64_t>(cell.result.dvs_transitions)));
  r.set("net_collisions",
        JsonValue::of(static_cast<std::int64_t>(cell.result.net_collisions)));
  r.set("messages", JsonValue::of(static_cast<std::int64_t>(cell.result.messages)));
  r.set("mean_utilization",
        JsonValue::of(hex_double(cell.result.mean_utilization)));
  r.set("failed", JsonValue::of(cell.result.failed));
  r.set("failure", JsonValue::of(cell.result.failure));
  v.set("result", std::move(r));
  return v.write();
}

bool ResultCache::decode(const std::string& payload, campaign::CellResult* out) {
  auto parsed = json_parse(payload);
  if (!parsed.has_value() || !parsed->is_object()) return false;
  const JsonValue& v = *parsed;
  campaign::CellResult cell;
  cell.index = static_cast<std::size_t>(v.int_or("index", 0));
  const JsonValue* wl = v.find("workload");
  if (wl == nullptr || !wl->is_string()) return false;
  cell.workload = wl->as_string();
  const JsonValue* labels = v.find("labels");
  if (labels == nullptr || !labels->is_array()) return false;
  for (const auto& l : labels->items()) {
    if (!l.is_string()) return false;
    cell.labels.push_back(l.as_string());
  }
  const JsonValue* numbers = v.find("numbers");
  if (numbers == nullptr || !numbers->is_array()) return false;
  for (const auto& n : numbers->items()) {
    double d = 0;
    if (!n.is_string() || !parse_hex_double(n.as_string(), &d)) return false;
    cell.numbers.push_back(d);
  }
  const JsonValue* numeric = v.find("numeric");
  if (numeric == nullptr || !numeric->is_array()) return false;
  for (const auto& b : numeric->items()) {
    if (!b.is_bool()) return false;
    cell.numeric.push_back(b.as_bool());
  }
  if (!summary_from(v.find("delay"), &cell.delay)) return false;
  if (!summary_from(v.find("energy"), &cell.energy)) return false;
  const JsonValue* root = v.find("digest_root");
  if (root == nullptr || !root->is_string() ||
      !parse_hex16(root->as_string(), &cell.digest_root)) {
    return false;
  }
  cell.has_digest = v.bool_or("has_digest", false);
  cell.runs = static_cast<int>(v.int_or("runs", -1));
  cell.failures = static_cast<int>(v.int_or("failures", -1));
  cell.thrown = static_cast<int>(v.int_or("thrown", -1));
  if (cell.runs < 0 || cell.failures < 0 || cell.thrown < 0) return false;
  const JsonValue* errors = v.find("errors");
  if (errors == nullptr || !errors->is_array()) return false;
  for (const auto& e : errors->items()) {
    if (!e.is_string()) return false;
    cell.errors.push_back(e.as_string());
  }
  cell.first_exception = v.str_or("first_exception", "");
  const JsonValue* r = v.find("result");
  if (r == nullptr || !r->is_object()) return false;
  cell.result.workload = r->str_or("workload", "");
  if (!hex_field(*r, "delay_s", &cell.result.delay_s) ||
      !hex_field(*r, "energy_j", &cell.result.energy_j) ||
      !hex_field(*r, "energy_acpi_j", &cell.result.energy_acpi_j) ||
      !hex_field(*r, "energy_baytech_j", &cell.result.energy_baytech_j) ||
      !hex_field(*r, "mean_utilization", &cell.result.mean_utilization)) {
    return false;
  }
  cell.result.dvs_transitions = r->int_or("dvs_transitions", 0);
  cell.result.net_collisions = r->int_or("net_collisions", 0);
  cell.result.messages = r->int_or("messages", 0);
  cell.result.failed = r->bool_or("failed", false);
  cell.result.failure = r->str_or("failure", "");
  *out = std::move(cell);
  return true;
}

ResultCache::ResultCache(std::string dir, bool sync)
    : dir_(std::move(dir)), sync_(sync) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  recover();
  log_fd_ = ::open(log_path().c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
}

ResultCache::~ResultCache() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

// Record layout (see header): "PCDC1 <key> <len> <digest>\n<payload>\n".
// Returns the byte length of the whole record, or 0 when the bytes at
// `off` are not one intact, digest-verified record.  `framed` reports
// whether the header itself parsed and the payload was fully present —
// i.e. a 0 return with framed=true is a digest mismatch, not a torn tail.
namespace {
struct Record {
  std::uint64_t key = 0;
  std::size_t payload_off = 0;
  std::size_t payload_len = 0;
};

std::size_t parse_record(const std::string& log, std::size_t off, Record* rec,
                         bool* framed) {
  *framed = false;
  const std::size_t nl = log.find('\n', off);
  if (nl == std::string::npos) return 0;
  unsigned long long key = 0, len = 0, digest = 0;
  int consumed = 0;
  const std::string header = log.substr(off, nl - off);
  if (std::sscanf(header.c_str(), "PCDC1 %16llx %llu %16llx%n", &key, &len,
                  &digest, &consumed) != 3 ||
      static_cast<std::size_t>(consumed) != header.size()) {
    return 0;
  }
  const std::size_t payload_off = nl + 1;
  // Overflow-safe fit check: payload plus its trailing '\n' must lie inside
  // the log (a huge `len` from a torn header must not wrap).
  if (len >= log.size() || payload_off > log.size() - len - 1) return 0;
  const std::size_t end = payload_off + static_cast<std::size_t>(len);
  if (log[end] != '\n') return 0;
  *framed = true;
  if (sim::digest_bytes(log.data() + payload_off, len) != digest) return 0;
  rec->key = key;
  rec->payload_off = payload_off;
  rec->payload_len = len;
  return end + 1 - off;
}
}  // namespace

void ResultCache::recover() {
  std::ifstream in(log_path(), std::ios::binary);
  if (!in) return;
  std::string log((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  std::size_t pos = 0;
  while (pos < log.size()) {
    Record rec;
    bool framed = false;
    const std::size_t n = parse_record(log, pos, &rec, &framed);
    if (n == 0) {
      // Torn or corrupt tail: everything from here is untrusted (the log is
      // append-only, so bytes after an interrupted write prove nothing).
      if (framed) ++stats_.corrupt;
      stats_.torn_bytes = static_cast<std::int64_t>(log.size() - pos);
      if (::truncate(log_path().c_str(),
                     static_cast<off_t>(pos)) != 0) {
        // Leave the file as-is; in-memory state is still only the verified
        // prefix, and the next open re-truncates.
      }
      break;
    }
    entries_[rec.key] = log.substr(rec.payload_off, rec.payload_len);
    pos += n;
  }
  stats_.entries = static_cast<std::int64_t>(entries_.size());
  stats_.recovered = stats_.entries;
}

std::optional<campaign::CellResult> ResultCache::lookup(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  campaign::CellResult cell;
  if (!decode(it->second, &cell)) {
    // Verified-on-disk but undecodable (e.g. written by a newer codec):
    // treat as a miss so the cell is recomputed and re-inserted.
    entries_.erase(it);
    stats_.entries = static_cast<std::int64_t>(entries_.size());
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return cell;
}

void ResultCache::insert(std::uint64_t key, const campaign::CellResult& cell) {
  std::string payload = encode(cell);
  std::lock_guard<std::mutex> lock(mu_);
  if (log_fd_ >= 0) {
    char header[64];
    const int hn = std::snprintf(header, sizeof header,
                                 "PCDC1 %016" PRIx64 " %zu %016" PRIx64 "\n",
                                 key, payload.size(),
                                 sim::digest_bytes(payload.data(), payload.size()));
    std::string record(header, static_cast<std::size_t>(hn));
    record += payload;
    record += '\n';
    // One write so a crash can only tear the tail, then make it durable.
    if (::write(log_fd_, record.data(), record.size()) ==
            static_cast<ssize_t>(record.size()) &&
        sync_) {
      ::fsync(log_fd_);
    }
  }
  entries_[key] = std::move(payload);
  stats_.entries = static_cast<std::int64_t>(entries_.size());
  ++stats_.inserts;
}

void ResultCache::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_fd_ >= 0) ::fsync(log_fd_);
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pcd::service
