// Checkpoint/resume serialization for the federation coordinator. A
// checkpoint captures everything that evolves across rounds — the global
// model, the aggregation strategy's cross-round state (server momentum /
// Adam moments), per-client error-feedback residuals, kDelta downlink
// sessions, edge-side EF residuals, both coordinator RNG streams
// mid-sequence, and the virtual clock — so a run restored from it finishes
// BIT-IDENTICAL to one that never stopped (the resume property test pins
// this round for round). Clients rebuild their loader each round from a
// fixed seed, but one piece of client state is NOT captured: a Dropout
// layer's Rng lives in each FlClient's private model and advances across
// rounds, so a model with Dropout (AlexNet; not MobileNetV2) resumes with
// fresh streams and its bytes drift from the first resumed round on. A TCP
// worker that takes over a re-homed client has the same gap.
//
// On-disk container: magic/version header, CRC-32-guarded body, written
// via a synced temp file + rename so a kill (or power loss) at any instant
// leaves either the previous checkpoint or the new one — never a torn
// file. Parsing has the same hardened posture as the wire/bitstream
// formats: any corruption throws CorruptStream before state is applied.
//
// The header also holds the field codec the checkpoint, the run config and
// the federation frames are written with.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/fl/coordinator.hpp"
#include "tensor/state_dict.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"

namespace fedsz::core {

/// Field-by-field byte codecs. A format lists its fields once, in a visit
/// function templated on the codec; run with a FieldWriter it serializes,
/// with a FieldReader it parses in place, so the two directions cannot
/// drift. FieldReader range-checks what a cast would trust (flag bytes,
/// enum bytes, list counts) and reports it as a CorruptStream naming
/// `format`.
struct FieldWriter {
  ByteWriter& out;
  void u32(std::uint32_t v) { out.put_u32(v); }
  void u64(std::uint64_t v) { out.put_u64(v); }
  template <typename T>
  void varint(T v) {
    out.put_varint(static_cast<std::uint64_t>(v));
  }
  void f32(float v) { out.put_f32(v); }
  void f64(double v) { out.put_f64(v); }
  void flag(bool v) { out.put_u8(v ? 1 : 0); }
  void text(const std::string& v) { out.put_string(v); }
  void bytes(const Bytes& v) { out.put_blob({v.data(), v.size()}); }
  void dict(const StateDict& v) { out.put_blob(v.serialize()); }
  template <typename Enum>
  void choice(Enum v, Enum /*last*/) {
    out.put_u8(static_cast<std::uint8_t>(v));
  }
  template <typename T, typename Each>
  void list(const std::vector<T>& v, Each&& each) {
    out.put_varint(v.size());
    for (const T& x : v) each(x);
  }
  template <typename T, typename Each>
  void optional(const std::optional<T>& v, Each&& each) {
    flag(v.has_value());
    if (v) each(*v);
  }
};

struct FieldReader {
  ByteReader& in;
  const char* format;  // names the format in errors
  [[noreturn]] void corrupt(const std::string& why) const {
    throw CorruptStream(std::string(format) + ": " + why);
  }
  void u32(std::uint32_t& v) { v = in.get_u32(); }
  void u64(std::uint64_t& v) { v = in.get_u64(); }
  template <typename T>
  void varint(T& v) {
    v = static_cast<T>(in.get_varint());
  }
  void f32(float& v) { v = in.get_f32(); }
  void f64(double& v) { v = in.get_f64(); }
  void flag(bool& v) {
    const std::uint8_t byte = in.get_u8();
    if (byte > 1) corrupt("bad flag byte");
    v = byte == 1;
  }
  void text(std::string& v) { v = in.get_string(); }
  void bytes(Bytes& v) {
    const ByteSpan blob = in.get_blob_view();
    v.assign(blob.begin(), blob.end());
  }
  void dict(StateDict& v) { v = StateDict::deserialize(in.get_blob_view()); }
  template <typename Enum>
  void choice(Enum& v, Enum last) {
    const std::uint8_t byte = in.get_u8();
    if (byte > static_cast<std::uint8_t>(last))
      corrupt("enum value " + std::to_string(byte) + " out of range");
    v = static_cast<Enum>(byte);
  }
  template <typename T, typename Each>
  void list(std::vector<T>& v, Each&& each) {
    const std::uint64_t count = in.get_varint();
    // Every entry costs at least one byte; a bigger count is corrupt, not
    // a huge valid list.
    if (count > in.remaining())
      corrupt("list count exceeds the payload");
    v.resize(static_cast<std::size_t>(count));
    for (T& x : v) each(x);
  }
  template <typename T, typename Each>
  void optional(std::optional<T>& v, Each&& each) {
    bool present = false;
    flag(present);
    v.reset();
    if (present) each(v.emplace());
  }
};

/// Runs `parse`; a failure that is not already a CorruptStream becomes
/// one, prefixed with `what`.
template <typename Parse>
auto parse_or_corrupt(const std::string& what, Parse&& parse) {
  try {
    return parse();
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    throw CorruptStream(what + error.what());
  }
}

inline constexpr std::uint32_t kCheckpointMagic = 0x314B4346u;  // "FCK1" LE
/// v2 added the population-eligibility RNG stream after failure_rng. v3
/// changed no field: the config fingerprint became a CRC over the
/// put_run_config bytes (which added dirichlet_alpha and dropped the
/// failure-stream seed) with the shard seed always resolved, so every
/// fingerprint value moved and a v2 checkpoint fails as an unsupported
/// version instead of as a config mismatch.
inline constexpr std::uint8_t kCheckpointVersion = 3;

struct CheckpointState {
  /// Rounds fully aggregated when the checkpoint was taken; the resumed
  /// run continues with round index `completed_rounds`.
  std::uint64_t completed_rounds = 0;
  /// Virtual clock at the checkpoint (and the tie-break sequence counter,
  /// so resumed event ordering matches the uninterrupted run exactly).
  double virtual_now = 0.0;
  std::uint64_t clock_next_seq = 0;
  /// CRC over the run's trajectory-determining configuration; a resume
  /// against a differently-configured run fails loudly instead of
  /// continuing a subtly different experiment.
  std::uint32_t config_fingerprint = 0;
  StateDict global_state;
  /// Strategy guard + its serialized mutable state (Aggregator::save_state).
  std::string aggregator_name;
  Bytes aggregator_state;
  /// Coordinator RNG streams, mid-sequence.
  Rng::State cohort_rng;
  Rng::State failure_rng;
  /// Population eligibility draws (advanced every round open whenever a
  /// population is active; idle otherwise, but always serialized).
  Rng::State eligibility_rng;
  /// Per-client uplink EF residuals (empty dict = none carried yet).
  std::vector<StateDict> client_residuals;
  /// kDelta downlink sessions, client order (empty vector when the run has
  /// no delta downlink).
  std::vector<StateDict> downlink_sessions;
  /// Edge-side EF residuals in tree-wide flat interior-node order (empty
  /// vector on flat runs or with edge EF off).
  std::vector<StateDict> edge_residuals;
};

Bytes serialize_checkpoint(const CheckpointState& state);
/// Throws CorruptStream on bad magic/version/CRC or a truncated body.
CheckpointState parse_checkpoint(ByteSpan bytes);

/// Write `state` to `path` atomically and durably: serialize to
/// `path`.tmp, fsync it, rename it over `path`, fsync the directory.
/// Throws InvalidArgument on I/O failure (a failed fsync included).
void write_checkpoint(const std::string& path, const CheckpointState& state);

/// Load the checkpoint at `path`; nullopt when the file does not exist
/// (a resume before the first checkpoint starts fresh). Corrupt contents
/// throw CorruptStream.
std::optional<CheckpointState> read_checkpoint(const std::string& path);

/// The run-config codec: the one list of the FlRunConfig fields that shape
/// a trajectory — seeds, client/optimizer settings, links, compute model,
/// comm model, topology, churn rates, data partition, population. It
/// deliberately EXCLUDES rounds (a resume may extend the campaign), threads
/// (trajectories are thread-count-invariant), transport, and the
/// checkpoint/resume settings; a parsed config keeps their defaults. The
/// federation HELLO ships these bytes, the edge worker builds from them and
/// run_fingerprint hashes them. get_run_config range-checks every enum and
/// flag and runs FlRunConfig::validate(); any failure is CorruptStream.
void put_run_config(ByteWriter& out, const FlRunConfig& config);
FlRunConfig get_run_config(ByteReader& in);

/// The model-config codec (the manifest's and the fingerprint's model
/// fields). get_model_config throws CorruptStream on a bad scale byte.
void put_model_config(ByteWriter& out, const nn::ModelConfig& model);
nn::ModelConfig get_model_config(ByteReader& in);

/// CRC over put_run_config(config) + put_model_config(model).
std::uint32_t run_fingerprint(const FlRunConfig& config,
                              const nn::ModelConfig& model);

}  // namespace fedsz::core
