#include "telemetry/determinism.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <system_error>

namespace pcd::telemetry {

// ---- RunDigest ------------------------------------------------------------

const char* RunDigest::stream_name(int s) {
  switch (s) {
    case kEvents: return "events";
    case kRng: return "rng";
    case kPower: return "power";
    case kMpi: return "mpi";
    default: return "?";
  }
}

std::uint64_t RunDigest::root() const {
  sim::DigestStream r;
  for (const auto& s : streams) {
    r.fold(s.hash);
    r.fold(s.count);
  }
  return r.hash;
}

std::string RunDigest::to_text() const {
  char buf[256];
  std::string out = "pcd-digest v1\n";
  std::snprintf(buf, sizeof buf, "checkpoint_every %" PRIu64 "\n", checkpoint_every);
  out += buf;
  for (int s = 0; s < kStreams; ++s) {
    std::snprintf(buf, sizeof buf, "stream %s %016" PRIx64 " %" PRIu64 "\n",
                  stream_name(s), streams[s].hash, streams[s].count);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "root %016" PRIx64 "\n", root());
  out += buf;
  for (const auto& c : checkpoints) {
    std::snprintf(buf, sizeof buf,
                  "checkpoint %" PRIu64 " %016" PRIx64 " %" PRIu64 " %016" PRIx64
                  " %" PRIu64 " %016" PRIx64 " %" PRIu64 " %016" PRIx64 " %" PRIu64
                  "\n",
                  c.events, c.hash[0], c.count[0], c.hash[1], c.count[1], c.hash[2],
                  c.count[2], c.hash[3], c.count[3]);
    out += buf;
  }
  return out;
}

namespace {

// The fields of one digest line, split at single spaces: a doubled,
// leading or trailing space leaves an empty field, which no reader takes.
std::vector<std::string_view> fields(std::string_view line) {
  std::vector<std::string_view> out;
  for (std::size_t at = 0;;) {
    const std::size_t space = line.find(' ', at);
    out.push_back(line.substr(at, space - at));
    if (space == std::string_view::npos) return out;
    at = space + 1;
  }
}

// A decimal field as to_text() writes it: digits only, no leading zero.
bool read_dec(std::string_view f, std::uint64_t* out) {
  if (f.empty() || (f.size() > 1 && f[0] == '0')) return false;
  const auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), *out);
  return ec == std::errc() && ptr == f.data() + f.size();
}

// A hash field as to_text() writes it: exactly 16 lowercase hex digits.
bool read_hex(std::string_view f, std::uint64_t* out) {
  if (f.size() != 16 || f.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return false;
  }
  std::from_chars(f.data(), f.data() + f.size(), *out, 16);
  return true;
}

}  // namespace

std::optional<RunDigest> RunDigest::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "pcd-digest v1") return std::nullopt;
  RunDigest d;
  int every_lines = 0;
  int stream_lines[kStreams] = {0, 0, 0, 0};
  int root_lines = 0;
  std::uint64_t root_read = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = fields(line);
    if (f[0] == "checkpoint_every" && f.size() == 2) {
      if (!read_dec(f[1], &d.checkpoint_every)) return std::nullopt;
      ++every_lines;
    } else if (f[0] == "stream" && f.size() == 4) {
      int s = 0;
      while (s < kStreams && f[1] != stream_name(s)) ++s;
      if (s == kStreams) return std::nullopt;  // unknown stream name
      if (!read_hex(f[2], &d.streams[s].hash) || !read_dec(f[3], &d.streams[s].count)) {
        return std::nullopt;
      }
      ++stream_lines[s];
    } else if (f[0] == "checkpoint" && f.size() == 2 + 2 * kStreams) {
      DigestCheckpoint c;
      bool ok = read_dec(f[1], &c.events);
      for (int s = 0; s < kStreams; ++s) {
        ok = ok && read_hex(f[2 + 2 * s], &c.hash[s]) && read_dec(f[3 + 2 * s], &c.count[s]);
      }
      if (!ok) return std::nullopt;
      d.checkpoints.push_back(c);
    } else if (f[0] == "root" && f.size() == 2) {
      if (!read_hex(f[1], &root_read)) return std::nullopt;
      ++root_lines;
    } else {
      return std::nullopt;  // unknown record: refuse rather than mis-compare
    }
  }
  if (every_lines != 1) return std::nullopt;
  for (const int n_lines : stream_lines) {
    if (n_lines != 1) return std::nullopt;
  }
  if (root_lines != 1 || root_read != d.root()) return std::nullopt;
  return d;
}

// ---- diff -----------------------------------------------------------------

namespace {

bool checkpoint_equal(const DigestCheckpoint& a, const DigestCheckpoint& b) {
  if (a.events != b.events) return false;
  for (int s = 0; s < RunDigest::kStreams; ++s) {
    if (a.hash[s] != b.hash[s] || a.count[s] != b.count[s]) return false;
  }
  return true;
}

int first_diverging_stream(const DigestCheckpoint& a, const DigestCheckpoint& b) {
  for (int s = 0; s < RunDigest::kStreams; ++s) {
    if (a.hash[s] != b.hash[s] || a.count[s] != b.count[s]) return s;
  }
  return -1;
}

}  // namespace

DigestDiff diff(const RunDigest& a, const RunDigest& b) {
  DigestDiff d;
  if (a.checkpoint_every != b.checkpoint_every) {
    d.comparable = false;
    d.diverged = a.root() != b.root();
    return d;
  }
  bool final_equal = true;
  int final_stream = -1;
  for (int s = 0; s < RunDigest::kStreams; ++s) {
    if (a.streams[s].hash != b.streams[s].hash ||
        a.streams[s].count != b.streams[s].count) {
      final_equal = false;
      if (final_stream < 0) final_stream = s;
    }
  }
  const std::size_t common = std::min(a.checkpoints.size(), b.checkpoints.size());
  std::size_t agree = 0;
  while (agree < common &&
         checkpoint_equal(a.checkpoints[agree], b.checkpoints[agree])) {
    ++agree;
  }
  if (final_equal && agree == common &&
      a.checkpoints.size() == b.checkpoints.size()) {
    return d;  // identical
  }
  d.diverged = true;
  d.interval_begin = agree > 0 ? a.checkpoints[agree - 1].events : 0;
  if (agree < common) {
    d.interval_end = a.checkpoints[agree].events;
    d.stream = first_diverging_stream(a.checkpoints[agree], b.checkpoints[agree]);
  } else {
    // Divergence past the last common checkpoint (or in the tail streams).
    d.interval_end = ~0ULL;
    d.stream = final_stream >= 0 ? final_stream : RunDigest::kEvents;
  }
  return d;
}

std::string DigestDiff::summary() const {
  if (!comparable) return "digests not comparable (different checkpoint_every)";
  if (!diverged) return "digests identical";
  char buf[192];
  if (interval_end == ~0ULL) {
    std::snprintf(buf, sizeof buf,
                  "first divergence in stream '%s' after event %" PRIu64
                  " (past the last common checkpoint)",
                  RunDigest::stream_name(stream), interval_begin);
  } else {
    std::snprintf(buf, sizeof buf,
                  "first divergence in stream '%s' within events (%" PRIu64
                  ", %" PRIu64 "]",
                  RunDigest::stream_name(stream), interval_begin, interval_end);
  }
  return buf;
}

// ---- collector ------------------------------------------------------------

DeterminismCollector::DeterminismCollector(sim::Engine& engine,
                                           const DeterminismOptions& opts)
    : engine_(engine), opts_(opts) {
  if (!opts_.any()) return;
  if (opts_.checkpoint_every < 2) opts_.checkpoint_every = 2;
  opts_.checkpoint_every = std::bit_ceil(opts_.checkpoint_every);
  digest_.checkpoint_every = opts_.checkpoint_every;
  if (opts_.flight_recorder) {
    recorder_ = std::make_unique<FlightRecorder>(opts_.recorder_entries);
  }
  sim::Engine::DeterminismHooks hooks;
  hooks.event_digest = &digest_.streams[RunDigest::kEvents];
  hooks.checkpoint_mask = opts_.checkpoint_every - 1;
  hooks.observer = this;
  hooks.per_event = opts_.flight_recorder || opts_.capture();
  engine_.set_determinism(hooks);
  engine_.set_seq_perturbation(opts_.perturb_seq);
  prev_rng_digest_ = sim::RngTelemetry::digest;
  sim::RngTelemetry::digest = &digest_.streams[RunDigest::kRng];
  attached_ = true;
}

void DeterminismCollector::detach() {
  if (!attached_) return;
  attached_ = false;
  engine_.clear_determinism();
  engine_.set_seq_perturbation(0);
  sim::RngTelemetry::digest = prev_rng_digest_;
}

void DeterminismCollector::on_event(const sim::EventProvenance& p) {
  if (recorder_ != nullptr) recorder_->record(p);
  if (!opts_.capture() || p.index > opts_.capture_end) return;
  CapturedEvent e;
  e.index = p.index;
  e.seq = p.seq;
  e.parent = p.parent;
  e.site = p.site;
  e.t = p.t;
  e.rng_draws = p.rng_draws;
  if (p.index > opts_.capture_begin) captured_.push_back(e);
  chain_.emplace(p.seq, std::move(e));
}

void DeterminismCollector::on_checkpoint(std::uint64_t events_dispatched) {
  DigestCheckpoint c;
  c.events = events_dispatched;
  for (int s = 0; s < RunDigest::kStreams; ++s) {
    c.hash[s] = digest_.streams[s].hash;
    c.count[s] = digest_.streams[s].count;
  }
  digest_.checkpoints.push_back(c);
}

RunCapture DeterminismCollector::take_capture() {
  RunCapture out;
  out.digest = digest_;
  out.events = std::move(captured_);
  out.chain = std::move(chain_);
  captured_.clear();
  chain_.clear();
  return out;
}

// ---- localization ---------------------------------------------------------

std::vector<CapturedEvent> causal_chain(const RunCapture& capture,
                                        std::uint64_t seq) {
  std::vector<CapturedEvent> chain;
  std::uint64_t cur = seq;
  while (cur != 0) {
    auto it = capture.chain.find(cur);
    if (it == capture.chain.end()) break;  // ancestor outside the chain table
    chain.push_back(it->second);
    cur = it->second.parent;
    if (chain.size() > 10000) break;  // defensive: corrupt parent cycle
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

namespace {

std::string render_event(const char* tag, const CapturedEvent& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s#%" PRIu64 " site='%s' seq=%" PRIu64 " parent=%" PRIu64
                " t=%.9fs rng_draws=%" PRIu64 "\n",
                tag, e.index, e.site.c_str(), e.seq, e.parent,
                sim::to_seconds(e.t), e.rng_draws);
  return buf;
}

void render_chain(std::string& out, const char* which,
                  const std::vector<CapturedEvent>& chain) {
  out += std::string("causal chain (run ") + which + ", root first):\n";
  if (chain.empty()) {
    out += "  (scheduled outside any event: a root)\n";
    return;
  }
  for (const auto& e : chain) out += render_event("  ", e);
}

}  // namespace

LocalizeResult localize(const InstrumentedRun& run_a, const InstrumentedRun& run_b,
                        std::uint64_t checkpoint_every) {
  LocalizeResult r;
  DeterminismOptions digest_only;
  digest_only.digest = true;
  digest_only.checkpoint_every = checkpoint_every;
  const RunCapture a = run_a(digest_only);
  const RunCapture b = run_b(digest_only);
  r.digests = diff(a.digest, b.digest);
  r.diverged = r.digests.diverged;
  if (!r.diverged) {
    r.report = "runs are bit-identical: " + r.digests.summary() + "\n";
    return r;
  }

  // Focused re-run: capture the first diverging checkpoint interval.
  DeterminismOptions focus = digest_only;
  focus.capture_begin = r.digests.interval_begin;
  focus.capture_end = r.digests.interval_end;
  const RunCapture fa = run_a(focus);
  const RunCapture fb = run_b(focus);

  const std::size_t n = std::min(fa.events.size(), fb.events.size());
  std::size_t k = 0;
  while (k < n && fa.events[k] == fb.events[k]) ++k;

  std::string out = "runs diverge: " + r.digests.summary() + "\n";
  if (k < fa.events.size()) r.first_a = fa.events[k];
  if (k < fb.events.size()) r.first_b = fb.events[k];
  if (!r.first_a.has_value() && !r.first_b.has_value()) {
    out +=
        "event streams agree inside the interval; the divergence is in the '" +
        std::string(RunDigest::stream_name(r.digests.stream)) +
        "' stream between event dispatches (e.g. power/MPI activity not tied "
        "to a dispatched event)\n";
    r.report = std::move(out);
    return r;
  }
  if (r.first_a.has_value()) out += render_event("first diverging event (run A): ", *r.first_a);
  else out += "run A has no event at this position (its stream ended)\n";
  if (r.first_b.has_value()) out += render_event("first diverging event (run B): ", *r.first_b);
  else out += "run B has no event at this position (its stream ended)\n";
  if (r.first_a.has_value()) {
    r.chain_a = causal_chain(fa, r.first_a->seq);
    render_chain(out, "A", r.chain_a);
  }
  if (r.first_b.has_value()) {
    r.chain_b = causal_chain(fb, r.first_b->seq);
    render_chain(out, "B", r.chain_b);
  }
  r.report = std::move(out);
  return r;
}

}  // namespace pcd::telemetry
