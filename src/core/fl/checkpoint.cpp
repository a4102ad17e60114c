#include "core/fl/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/bytebuffer.hpp"
#include "util/crc32.hpp"

namespace fedsz::core {

namespace {

template <typename Stream, typename Io>
void visit_rng(Stream& s, Io& io) {
  for (auto& word : s.words) io.u64(word);
  io.f64(s.cached);
  io.flag(s.has_cached);
}

template <typename State, typename Io>
void visit_checkpoint(State& s, Io& io) {
  io.varint(s.completed_rounds);
  io.f64(s.virtual_now);
  io.u64(s.clock_next_seq);
  io.u32(s.config_fingerprint);
  io.dict(s.global_state);
  io.text(s.aggregator_name);
  io.bytes(s.aggregator_state);
  visit_rng(s.cohort_rng, io);
  visit_rng(s.failure_rng, io);
  visit_rng(s.eligibility_rng, io);
  const auto dict = [&](auto& d) { io.dict(d); };
  io.list(s.client_residuals, dict);
  io.list(s.downlink_sessions, dict);
  io.list(s.edge_residuals, dict);
}

template <typename Profile, typename Io>
void visit_profile(Profile& p, Io& io) {
  io.f64(p.bandwidth_mbps);
  io.f64(p.latency_s);
}

template <typename Hetero, typename Io>
void visit_heterogeneous(Hetero& h, Io& io) {
  io.optional(h, [&](auto& c) {
    io.choice(c.distribution, net::LinkDistribution::kTwoTier);
    io.f64(c.edge_min_mbps);
    io.f64(c.edge_max_mbps);
    io.f64(c.wan_median_mbps);
    io.f64(c.wan_log_sigma);
    io.f64(c.two_tier_fast_fraction);
    io.f64(c.two_tier_fast_mbps);
    io.f64(c.two_tier_slow_mbps);
    io.f64(c.latency_s);
    io.u64(c.seed);
  });
}

// The one list of trajectory-shaping fields (see put_run_config).
template <typename Config, typename Io>
void visit_run_config(Config& c, Io& io) {
  io.u64(c.seed);
  io.varint(c.clients);
  io.f32(c.client.sgd.learning_rate);
  io.f32(c.client.sgd.momentum);
  io.f32(c.client.sgd.weight_decay);
  io.varint(c.client.batch_size);
  io.varint(c.client.local_epochs);
  visit_profile(c.network, io);
  visit_heterogeneous(c.heterogeneous, io);
  io.varint(c.eval_limit);
  io.flag(c.evaluate_every_round);
  io.f64(c.compute_seconds_per_sample);
  io.f64(c.compute_jitter);
  io.text(c.downlink_spec);
  io.choice(c.downlink_mode, DownlinkMode::kDelta);
  io.flag(c.error_feedback);
  auto& t = c.topology;
  io.choice(t.mode, TopologyMode::kHier);
  io.list(t.tiers, [&](auto& fan) { io.varint(fan); });
  io.text(t.backhaul_spec);
  io.list(t.tier_backhaul_specs, [&](auto& spec) { io.text(spec); });
  visit_profile(t.backhaul_network, io);
  visit_heterogeneous(t.backhaul_heterogeneous, io);
  io.choice(t.edge_mode, EdgeMode::kBuffered);
  io.varint(t.edge_buffer);
  io.flag(t.edge_error_feedback);
  io.choice(t.sharding, ShardStrategy::kShuffled);
  io.u64(t.shard_seed);
  io.f64(c.failures.dropout_rate);
  io.f64(c.failures.edge_failure_rate);
  io.f64(c.failures.straggler_deadline_seconds);
  auto& p = c.population;
  io.text(p.preset);
  io.list(p.mix, [&](auto& share) {
    io.text(share.name);
    io.f64(share.weight);
  });
  io.choice(p.availability, AvailabilityMode::kAlways);
  io.f64(p.flat_availability);
  io.f64(p.period_seconds);
  io.f64(p.phase_jitter);
  io.f64(p.dropout_rate);
  io.u64(p.seed);
  io.f64(c.dirichlet_alpha);
  io.f64(c.sizeskew_s);
}

template <typename Model, typename Io>
void visit_model_config(Model& m, Io& io) {
  io.text(m.arch);
  io.varint(m.in_channels);
  io.varint(m.image_size);
  io.varint(m.num_classes);
  io.choice(m.scale, nn::ModelScale::kPaper);
  io.u64(m.seed);
}

}  // namespace

Bytes serialize_checkpoint(const CheckpointState& state) {
  ByteWriter body;
  FieldWriter put{body};
  visit_checkpoint(state, put);

  ByteWriter out;
  out.reserve(body.size() + 16);
  out.put_u32(kCheckpointMagic);
  out.put_u8(kCheckpointVersion);
  out.put_u32(util::crc32(body.view()));
  out.put_varint(body.size());
  out.put_bytes(body.view());
  return out.finish();
}

CheckpointState parse_checkpoint(ByteSpan bytes) {
  // Truncation inside ByteReader and shape errors inside
  // StateDict::deserialize surface as one checkpoint-level failure.
  return parse_or_corrupt("checkpoint: ", [&] {
    ByteReader header(bytes);
    if (header.get_u32() != kCheckpointMagic)
      throw CorruptStream("checkpoint: bad magic");
    const std::uint8_t version = header.get_u8();
    if (version != kCheckpointVersion)
      throw CorruptStream("checkpoint: unsupported version " +
                          std::to_string(version));
    const std::uint32_t crc = header.get_u32();
    const std::uint64_t length = header.get_varint();
    if (length != header.remaining())
      throw CorruptStream("checkpoint: body length mismatch");
    const ByteSpan body = header.get_bytes(static_cast<std::size_t>(length));
    if (util::crc32(body) != crc)
      throw CorruptStream("checkpoint: body CRC mismatch");

    ByteReader in(body);
    CheckpointState state;
    FieldReader get{in, "checkpoint"};
    visit_checkpoint(state, get);
    if (!in.done())
      throw CorruptStream("checkpoint: trailing bytes after the body");
    return state;
  });
}

void write_checkpoint(const std::string& path, const CheckpointState& state) {
  const Bytes bytes = serialize_checkpoint(state);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (!file)
    throw InvalidArgument("checkpoint: cannot open '" + tmp +
                          "': " + std::strerror(errno));
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  // The data must be on disk before the rename publishes it, or a power
  // loss could leave `path` naming a file whose blocks never landed.
  const bool synced = std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !synced || !closed) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: short write to '" + tmp + "'");
  }
  // rename(2) is atomic within a filesystem: observers see the old file or
  // the new one, never a torn mix — the kill-anywhere guarantee.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: cannot rename '" + tmp + "' to '" +
                          path + "': " + std::strerror(errno));
  }
  // The rename lives in the directory; sync that too.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool dir_synced = fd >= 0 && ::fsync(fd) == 0;
  const int error = errno;
  if (fd >= 0) ::close(fd);
  if (!dir_synced)
    throw InvalidArgument("checkpoint: cannot sync directory '" + dir +
                          "': " + std::strerror(error));
}

std::optional<CheckpointState> read_checkpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return std::nullopt;
  Bytes bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    bytes.insert(bytes.end(), buffer, buffer + got);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error)
    throw InvalidArgument("checkpoint: read error on '" + path + "'");
  return parse_checkpoint({bytes.data(), bytes.size()});
}

void put_run_config(ByteWriter& out, const FlRunConfig& config) {
  FieldWriter put{out};
  visit_run_config(config, put);
}

FlRunConfig get_run_config(ByteReader& in) {
  // Truncation and validate()'s InvalidArgument alike: the bytes do not
  // describe a run.
  return parse_or_corrupt("run config: ", [&] {
    FlRunConfig config;
    FieldReader get{in, "run config"};
    visit_run_config(config, get);
    config.validate();
    return config;
  });
}

void put_model_config(ByteWriter& out, const nn::ModelConfig& model) {
  FieldWriter put{out};
  visit_model_config(model, put);
}

nn::ModelConfig get_model_config(ByteReader& in) {
  nn::ModelConfig model;
  FieldReader get{in, "model config"};
  visit_model_config(model, get);
  return model;
}

std::uint32_t run_fingerprint(const FlRunConfig& config,
                              const nn::ModelConfig& model) {
  ByteWriter out;
  put_run_config(out, config);
  put_model_config(out, model);
  return util::crc32(out.view());
}

}  // namespace fedsz::core
