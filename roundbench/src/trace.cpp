#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string_view>

#include "compress/lossy/error_bound.hpp"
#include "core/fedsz.hpp"

namespace roundbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::size_t payload_hash(fedsz::ByteSpan payload) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
}

std::size_t float_bytes(const fedsz::StateDict& dict) {
  return dict.total_bytes();
}

}  // namespace

double clock_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

// ---- Tracer ----

std::uint32_t Tracer::record(const std::string& name, double start,
                             double end, std::uint32_t parent, int round) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.thread = thread_index();
  span.round = round;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::uint32_t Tracer::open(const std::string& name, std::uint32_t parent,
                           int round) {
  const double now = clock_seconds();
  return record(name, now, now, parent, round);
}

void Tracer::close(std::uint32_t id) {
  const double now = clock_seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size() + 1);
  for (const Span& s : all)
    if (s.parent >= 1 && s.parent <= all.size())
      children[s.parent].push_back({s.start, s.end});
  std::map<std::string, double> self;
  for (const Span& s : all) {
    std::vector<std::pair<double, double>>& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to this span.
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(b, s.end));
    }
    self[s.name] += (s.end - s.start) - covered;
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  const std::vector<Span> all = spans();
  std::fprintf(file, "{\"spans\": [\n");
  for (std::size_t k = 0; k < all.size(); ++k) {
    const Span& s = all[k];
    std::fprintf(file,
                 "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start\": %.9f, \"end\": %.9f, \"thread\": %u, "
                 "\"round\": %d}%s\n",
                 s.id, s.parent, s.name.c_str(), s.start, s.end, s.thread,
                 s.round, k + 1 < all.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::uint32_t parent,
                       int round)
    : tracer_(tracer),
      id_(tracer.open(name, parent, round)),
      start_(clock_seconds()) {}

ScopedSpan::~ScopedSpan() { tracer_.close(id_); }

double ScopedSpan::elapsed() const { return clock_seconds() - start_; }

// ---- update check ----

std::string check_update(const fedsz::StateDict& original,
                         const fedsz::StateDict& decoded, double rel,
                         std::size_t lossy_threshold) {
  if (original.size() != decoded.size())
    return "decoded update has " + std::to_string(decoded.size()) +
           " tensors, expected " + std::to_string(original.size());
  for (const auto& [name, tensor] : original) {
    if (!decoded.contains(name)) return "decoded update lacks " + name;
    const fedsz::Tensor& back = decoded.get(name);
    if (back.numel() != tensor.numel())
      return name + ": decoded size differs";
    if (!fedsz::core::is_lossy_entry(name, tensor.numel(), lossy_threshold)) {
      if (!tensor.equals(back)) return name + ": lossless tensor not bit-exact";
      continue;
    }
    const double eps = fedsz::lossy::ErrorBound::relative(rel).absolute_for(
        tensor.span());
    const float* a = tensor.data();
    const float* b = back.data();
    for (std::size_t k = 0; k < tensor.numel(); ++k) {
      const double err = std::fabs(static_cast<double>(a[k]) -
                                   static_cast<double>(b[k]));
      // The library's own bound tests allow float32 rounding of the
      // double-precision guarantee: eps * (1 + 1e-5) + 1e-12.
      if (!(err <= eps * (1.0 + 1e-5) + 1e-12)) {
        char what[160];
        std::snprintf(what, sizeof what,
                      ": error %.9g exceeds bound %.9g at element %zu", err,
                      eps, k);
        return name + what;
      }
    }
  }
  return {};
}

// ---- TracedCodec ----

TracedCodec::TracedCodec(core::UpdateCodecPtr inner, Tracer& tracer,
                         std::uint32_t parent, std::size_t updates_per_round,
                         double rel_bound, std::size_t lossy_threshold)
    : inner_(std::move(inner)),
      tracer_(tracer),
      parent_(parent),
      updates_per_round_(std::max<std::size_t>(1, updates_per_round)),
      rel_bound_(rel_bound),
      lossy_threshold_(lossy_threshold) {}

core::UpdateCodec::Encoded TracedCodec::encode(
    const fedsz::StateDict& dict, const core::EncodeContext& ctx) const {
  const double start = clock_seconds();
  Encoded encoded = inner_->encode(dict, ctx);
  const double end = clock_seconds();
  tracer_.record("codec.encode", start, end, parent_, ctx.round);
  const std::size_t key = payload_hash(
      {encoded.payload.data(), encoded.payload.size()});
  fedsz::StateDict original = dict;
  std::lock_guard<std::mutex> lock(mutex_);
  calls_.encode_seconds.push_back(end - start);
  calls_.encode_raw_bytes += float_bytes(dict);
  pending_.emplace(key, std::move(original));
  return encoded;
}

fedsz::StateDict TracedCodec::decode(fedsz::ByteSpan payload,
                                     core::CompressionStats* stats) const {
  const double start = clock_seconds();
  fedsz::StateDict decoded = inner_->decode(payload, stats);
  const double end = clock_seconds();
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = calls_.decode_seconds.size();
    calls_.decode_seconds.push_back(end - start);
    calls_.decode_raw_bytes += float_bytes(decoded);
  }
  // Barrier rounds decode exactly updates_per_round_ payloads each.
  tracer_.record("codec.decode", start, end, parent_,
                 static_cast<int>(index / updates_per_round_));

  const std::size_t key = payload_hash(payload);
  fedsz::StateDict original;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(key);
    if (it != pending_.end()) {
      original = std::move(it->second);
      pending_.erase(it);
      found = true;
    }
  }
  const std::string problem =
      found ? check_update(original, decoded, rel_bound_, lossy_threshold_)
            : std::string("decoded a payload no traced encode produced");
  std::lock_guard<std::mutex> lock(mutex_);
  ++calls_.checked;
  if (!problem.empty()) calls_.violations.push_back(problem);
  return decoded;
}

CodecCalls TracedCodec::calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

// ---- wire ----

void WireLedger::on_frame_written(std::uint8_t type, std::size_t bytes,
                                  bool root_side, std::size_t edge,
                                  double at) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (type == static_cast<std::uint8_t>(net::FrameType::kHeartbeat)) {
    ++totals_.heartbeat_frames;
    return;
  }
  ++totals_.frames;
  totals_.bytes += bytes;
  if (root_side &&
      type == static_cast<std::uint8_t>(net::FrameType::kRoundOpen)) {
    const std::size_t round = opens_[edge]++;
    if (totals_.round_open.size() <= round) {
      totals_.round_open.resize(round + 1, at);
      totals_.partial_done.resize(round + 1, at);
    }
    totals_.round_open[round] = std::min(totals_.round_open[round], at);
  }
}

void WireLedger::on_frame_read(std::uint8_t type, bool root_side,
                               std::size_t edge, double at) {
  if (!root_side ||
      type != static_cast<std::uint8_t>(net::FrameType::kPartial))
    return;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t round = partials_[edge]++;
  if (round < totals_.partial_done.size())
    totals_.partial_done[round] = std::max(totals_.partial_done[round], at);
}

void WireLedger::add_write(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.write_seconds += seconds;
}

void WireLedger::add_root_read(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.root_read_seconds += seconds;
}

WireTotals WireLedger::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

TracedStream::TracedStream(net::StreamPtr inner, Tracer& tracer,
                           WireLedger& ledger, std::uint32_t parent,
                           bool root_side, std::size_t edge)
    : inner_(std::move(inner)),
      tracer_(tracer),
      ledger_(ledger),
      parent_(parent),
      root_side_(root_side),
      edge_(edge) {}

void TracedStream::write_all(fedsz::ByteSpan data) {
  const double start = clock_seconds();
  inner_->write_all(data);
  const double end = clock_seconds();
  tracer_.record("transport.write", start, end, parent_, -1);
  ledger_.add_write(end - start);
  written_.feed(data.data(), data.size(),
                [&](std::uint8_t type, std::size_t bytes) {
                  ledger_.on_frame_written(type, bytes, root_side_, edge_,
                                           start);
                });
}

std::size_t TracedStream::read_some(std::uint8_t* out, std::size_t capacity) {
  const double start = clock_seconds();
  const std::size_t got = inner_->read_some(out, capacity);
  const double end = clock_seconds();
  tracer_.record("transport.read", start, end, parent_, -1);
  if (root_side_) ledger_.add_root_read(end - start);
  read_.feed(out, got, [&](std::uint8_t type, std::size_t) {
    ledger_.on_frame_read(type, root_side_, edge_, end);
  });
  return got;
}

}  // namespace roundbench
