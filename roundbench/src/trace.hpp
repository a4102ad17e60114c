// Tracing for the benchmark's traced run. Spans are recorded from the
// benchmark's own files, around the calls into each layer: a TracedCodec
// wraps the UpdateCodecPtr handed to FlCoordinator, a TracedStream wraps
// both ends of every TCP connection, and the replay (replay.hpp) opens
// spans around the layers the runtime builds internally. Spans stay in
// memory and are written as JSON once the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/update_codec.hpp"
#include "net/transport.hpp"

namespace roundbench {

namespace core = fedsz::core;
namespace net = fedsz::net;

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double clock_seconds();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint32_t id = 0;      // 1-based; 0 is "no span"
  std::uint32_t parent = 0;  // 0 = top level
  std::uint32_t thread = 0;  // small per-thread index
  int round = -1;            // -1 = not tied to a round
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  /// Record a finished span; returns its id.
  std::uint32_t record(const std::string& name, double start, double end,
                       std::uint32_t parent, int round);
  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint32_t open(const std::string& name, std::uint32_t parent, int round);
  void close(std::uint32_t id);

  std::vector<Span> spans() const;
  /// Per span name: summed duration minus the part of each span's interval
  /// that its children cover (their union, clipped to the parent).
  std::map<std::string, double> self_seconds() const;
  /// Writes {"spans": [...]} to `path`; returns false when it cannot.
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index = id - 1
};

/// Times of a single-threaded bracket, recorded into a Tracer on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint32_t parent,
             int round = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }
  /// Seconds since the span opened.
  double elapsed() const;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
  double start_;
};

/// Per-call codec timings collected by TracedCodec.
struct CodecCalls {
  std::vector<double> encode_seconds;
  std::vector<double> decode_seconds;
  std::size_t encode_raw_bytes = 0;  // float bytes handed to encode
  std::size_t decode_raw_bytes = 0;  // float bytes decode produced
  std::size_t checked = 0;           // decoded updates verified
  std::vector<std::string> violations;
};

/// Checks a decoded update against its original: tensors the partition
/// rule routes to the lossy path must stay within `rel` times the tensor's
/// value range, every other tensor must be bit-exact. Returns a
/// description of the first violation, or an empty string.
std::string check_update(const fedsz::StateDict& original,
                         const fedsz::StateDict& decoded, double rel,
                         std::size_t lossy_threshold);

/// Wraps the uplink codec: every encode and decode becomes a span and a
/// timing sample. Encode also keeps a copy of each update keyed by its
/// payload, and decode checks the update it returns against that copy
/// (check_update) outside the timed interval.
class TracedCodec final : public core::UpdateCodec {
 public:
  TracedCodec(core::UpdateCodecPtr inner, Tracer& tracer,
              std::uint32_t parent, std::size_t updates_per_round,
              double rel_bound, std::size_t lossy_threshold);

  using core::UpdateCodec::encode;
  std::string name() const override { return inner_->name(); }
  bool lossless() const override { return inner_->lossless(); }
  Encoded encode(const fedsz::StateDict& dict,
                 const core::EncodeContext& ctx) const override;
  fedsz::StateDict decode(fedsz::ByteSpan payload,
                          core::CompressionStats* stats) const override;

  CodecCalls calls() const;

 private:
  core::UpdateCodecPtr inner_;
  Tracer& tracer_;
  std::uint32_t parent_;
  std::size_t updates_per_round_;
  double rel_bound_;
  std::size_t lossy_threshold_;
  mutable std::mutex mutex_;
  mutable CodecCalls calls_;  // guarded by mutex_
  mutable std::unordered_multimap<std::size_t, fedsz::StateDict>
      pending_;  // guarded by mutex_: payload hash -> original update
};

/// What crossed the sockets of one traced TCP session.
struct WireTotals {
  std::size_t frames = 0;  // excluding heartbeats
  std::size_t bytes = 0;   // excluding heartbeats
  std::size_t heartbeat_frames = 0;
  double write_seconds = 0.0;      // both ends, blocked in write_all
  double root_read_seconds = 0.0;  // root ends, blocked in read_some
  /// Per round: root's first ROUND_OPEN write, last PARTIAL fully read.
  std::vector<double> round_open;
  std::vector<double> partial_done;
};

/// Shared ledger for every TracedStream of one session.
class WireLedger {
 public:
  void on_frame_written(std::uint8_t type, std::size_t bytes, bool root_side,
                        std::size_t edge, double at);
  void on_frame_read(std::uint8_t type, bool root_side, std::size_t edge,
                     double at);
  void add_write(double seconds);
  void add_root_read(double seconds);
  WireTotals totals() const;

 private:
  mutable std::mutex mutex_;
  WireTotals totals_;  // guarded by mutex_
  std::map<std::size_t, std::size_t> opens_;     // edge -> ROUND_OPENs
  std::map<std::size_t, std::size_t> partials_;  // edge -> PARTIALs read
};

/// Splits a byte stream back into FSW1 frames (16-byte header, type at
/// byte 5, little-endian payload length at bytes 8..11) without buffering
/// payloads, so a stream wrapper can count frames however the bytes were
/// chunked.
class FrameCounter {
 public:
  template <typename OnFrame>
  void feed(const std::uint8_t* data, std::size_t size, OnFrame&& on_frame) {
    while (size > 0) {
      if (have_ < kHeader) {
        const std::size_t take = std::min(kHeader - have_, size);
        for (std::size_t k = 0; k < take; ++k) header_[have_ + k] = data[k];
        have_ += take;
        data += take;
        size -= take;
        if (have_ == kHeader) {
          remaining_ = static_cast<std::size_t>(header_[8]) |
                       static_cast<std::size_t>(header_[9]) << 8 |
                       static_cast<std::size_t>(header_[10]) << 16 |
                       static_cast<std::size_t>(header_[11]) << 24;
          length_ = kHeader + remaining_;
          if (remaining_ == 0) finish(on_frame);
        }
        continue;
      }
      const std::size_t take = std::min(remaining_, size);
      remaining_ -= take;
      data += take;
      size -= take;
      if (remaining_ == 0) finish(on_frame);
    }
  }

 private:
  static constexpr std::size_t kHeader = 16;
  template <typename OnFrame>
  void finish(OnFrame& on_frame) {
    on_frame(header_[5], length_);
    have_ = 0;
  }
  std::uint8_t header_[kHeader] = {};
  std::size_t have_ = 0;
  std::size_t remaining_ = 0;
  std::size_t length_ = 0;
};

/// Wraps one end of a connection: write_all and read_some become spans,
/// frames are counted into the ledger as they complete.
class TracedStream final : public net::Stream {
 public:
  TracedStream(net::StreamPtr inner, Tracer& tracer, WireLedger& ledger,
               std::uint32_t parent, bool root_side, std::size_t edge);

  void write_all(fedsz::ByteSpan data) override;
  std::size_t read_some(std::uint8_t* out, std::size_t capacity) override;
  void close() override { inner_->close(); }

 private:
  net::StreamPtr inner_;
  Tracer& tracer_;
  WireLedger& ledger_;
  std::uint32_t parent_;
  bool root_side_;
  std::size_t edge_;
  FrameCounter written_;  // one writer at a time (FrameChannel's lock)
  FrameCounter read_;     // one reader thread
};

}  // namespace roundbench
