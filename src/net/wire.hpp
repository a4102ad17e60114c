// Versioned, length-prefixed, CRC-guarded wire frames — the unit of
// exchange between a federation root and its remote edge workers. Every
// frame is
//
//   u32 magic ("FSW1")   u8 version   u8 type   u16 flags (reserved-zero)
//   u32 payload length   u32 crc32(header prefix + payload)   payload...
//
// with the same hardened validation posture as the bitstream containers:
// corrupt magic/version/type, nonzero reserved flags, a declared length
// above the decoder's cap (the decompression-bomb guard), or a CRC
// mismatch all throw CorruptStream before a single payload byte is
// interpreted. The CRC covers the 12 header bytes before it as well as
// the payload, so a bit flip anywhere in a frame — even a type byte
// flipped to another valid type — fails the checksum. Payloads are opaque here —
// core/fl/federation.hpp defines the typed bodies (run manifests, round
// opens, serialized EncodedPartials, v3 containers for model broadcasts).
//
// FrameDecoder is incremental: feed() it whatever the transport produced
// and poll next(); partial frames simply wait for more bytes, so it sits
// directly on a TCP read loop without any framing assumptions about read
// boundaries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/bytebuffer.hpp"
#include "util/common.hpp"

namespace fedsz::net {

/// Type 3 is unassigned: the decoder rejects it like any unknown type.
enum class FrameType : std::uint8_t {
  kHello = 1,      // root->edge handshake: the run manifest
  kRoundOpen = 2,  // root->edge: round index, virtual open time, cohort
  kPartial = 4,    // edge->root: the round's folded, re-encoded partial
  kBroadcast = 5,  // root->edge: the serialized global model
  kAck = 6,        // edge->root handshake: fingerprint echo + edge index
  kHeartbeat = 7,  // edge->root: liveness (empty payload)
  kBye = 8,        // either side: orderly shutdown
};

std::string frame_type_name(FrameType type);

inline constexpr std::uint32_t kWireMagic = 0x31575346u;  // "FSW1" LE
/// v3: each PARTIAL delivery carries the client's sample count and compute
/// budget, and the root's own clock orders them. v4: the HELLO carries the
/// run config as put_run_config bytes and the ACK the worker's own
/// fingerprint of it. A root and a worker of different versions fail on
/// the first frame instead of mid-parse.
inline constexpr std::uint8_t kWireVersion = 4;
inline constexpr std::size_t kWireHeaderBytes = 16;
/// Default decoder payload cap. Generous (a paper-scale AlexNet broadcast
/// is ~200 MB raw) but bounded, so a corrupt or hostile length prefix can
/// never drive an allocation by itself.
inline constexpr std::size_t kMaxFramePayload = std::size_t{512} << 20;

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  Bytes payload;
};

/// Append one framed payload to `out` (header + CRC + payload).
void encode_frame_into(FrameType type, ByteSpan payload, ByteWriter& out);
Bytes encode_frame(FrameType type, ByteSpan payload);

/// Incremental frame parser over an untrusted byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload);

  /// Append transport bytes to the internal buffer.
  void feed(ByteSpan data);

  /// The next complete frame, or nullopt when the buffer holds only a
  /// partial one. Throws CorruptStream on bad magic/version/type, a length
  /// above the cap, or a payload CRC mismatch; the decoder is then
  /// poisoned (every later call rethrows) since a byte stream without
  /// frame sync cannot be resynchronized safely.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size() - consumed_; }
  /// True when a frame header has been seen but its payload is incomplete
  /// (an EOF now means a truncated frame, not a clean close).
  bool mid_frame() const;

 private:
  std::size_t max_payload_;
  Bytes buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already parsed
  bool poisoned_ = false;
};

}  // namespace fedsz::net
