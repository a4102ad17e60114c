#include "replay.hpp"

#include <algorithm>

#include "common.hpp"
#include "core/fl/client.hpp"
#include "core/fl/server.hpp"
#include "core/fl/topology.hpp"
#include "stats.hpp"

namespace roundbench {

namespace {

struct Update {
  fedsz::StateDict state;
  std::size_t samples = 0;
  double work = 0.0;  // train + encode + decode + fold seconds
};

/// Median MB/s of `reps` timed calls processing `bytes` bytes each.
template <typename F>
double throughput_mb_s(std::size_t bytes, int reps, F&& call) {
  std::vector<double> seconds;
  for (int k = 0; k < reps; ++k) {
    const double start = clock_seconds();
    call();
    seconds.push_back(clock_seconds() - start);
  }
  const double s = median(seconds);
  return s > 0.0 ? static_cast<double>(bytes) / 1e6 / s : 0.0;
}

class Replayer {
 public:
  Replayer(const Inputs& inputs, Tracer& tracer)
      : in_(inputs),
        tracer_(tracer),
        codec_(core::make_codec(inputs.spec)),
        server_(inputs.model),
        shards_(core::build_client_shards(*inputs.train, inputs.config,
                                          nullptr)) {}

  ReplayTimes run() {
    ScopedSpan round(tracer_, "replay.round", 0, 0);
    parent_ = round.id();
    if (in_.config.topology.mode == core::TopologyMode::kHier)
      replay_hier();
    else
      replay_flat();
    {
      ScopedSpan span(tracer_, "nn.eval", parent_, 0);
      t_.eval_samples = std::min(in_.config.eval_limit, in_.test->size());
      server_.evaluate(*in_.test, in_.config.eval_limit);
      t_.eval = span.elapsed();
    }
    replay_partitions();
    return t_;
  }

 private:
  /// Train client `i` from the current global model, encode, decode, check.
  Update produce(std::size_t i) {
    core::ClientConfig config = in_.config.client;
    config.seed = in_.config.seed ^ (0xC11E47ull * (i + 1));  // as the runtime
    core::FlClient client(
        static_cast<int>(i), in_.model,
        std::make_shared<data::SubsetDataset>(in_.train, shards_[i]), config);
    Update out;
    core::ClientRoundResult result;
    {
      ScopedSpan span(tracer_, "nn.train", parent_, 0);
      result = client.run_round(server_.global_state());
      t_.train.push_back(span.elapsed());
    }
    t_.train_samples += result.samples;
    out.samples = result.samples;
    core::EncodeContext ctx;
    ctx.round = 0;
    ctx.client_id = static_cast<int>(i);
    ctx.steps = result.steps;
    core::UpdateCodec::Encoded encoded;
    {
      const std::uint64_t allocs = fedsz::benchx::allocation_count();
      ScopedSpan span(tracer_, "codec.encode", parent_, 0);
      encoded = codec_->encode(result.update, ctx);
      t_.encode.push_back(span.elapsed());
      encode_allocs_ += fedsz::benchx::allocation_count() - allocs;
    }
    t_.uplink_bytes += encoded.payload.size();
    t_.update_bytes = result.update.total_bytes();
    {
      ScopedSpan span(tracer_, "codec.decode", parent_, 0);
      out.state = codec_->decode(
          {encoded.payload.data(), encoded.payload.size()}, nullptr);
      t_.decode.push_back(span.elapsed());
    }
    const std::string problem =
        check_update(result.update, out.state, in_.spec.bound.value,
                     in_.spec.lossy_threshold);
    ++t_.checked;
    if (!problem.empty())
      t_.violations.push_back("client " + std::to_string(i) + ": " + problem);
    if (i == 0) first_update_ = std::move(result.update);
    out.work = t_.train.back() + t_.encode.back() + t_.decode.back();
    return out;
  }

  void replay_flat() {
    server_.begin_round();
    for (std::size_t i = 0; i < in_.config.clients; ++i) {
      Update update = produce(i);
      ScopedSpan span(tracer_, "aggregator.fold", parent_, 0);
      server_.accumulate(update.state, static_cast<double>(update.samples));
      t_.fold += span.elapsed();
      ++t_.folds;
    }
    ScopedSpan span(tracer_, "aggregator.finalize", parent_, 0);
    server_.finalize_round();
    t_.finalize = span.elapsed();
    finish_allocs();
  }

  void replay_hier() {
    core::AggregationTree tree(in_.config.topology, in_.config.clients);
    const fedsz::StateDict global = server_.global_state();
    server_.begin_round();
    for (std::size_t e = 0; e < tree.edge_count(); ++e) {
      core::EdgeAggregator& edge = tree.node(0, e);
      edge.begin_round(global);
      double work = 0.0;
      for (const std::size_t i : tree.base_shards()[e]) {
        Update update = produce(i);
        ScopedSpan span(tracer_, "topology.edge_fold", parent_, 0);
        edge.fold(update.state, static_cast<double>(update.samples));
        const double fold = span.elapsed();
        t_.edge_fold += fold;
        work += update.work + fold;
      }
      core::EncodedPartial partial;
      {
        ScopedSpan span(tracer_, "topology.partial_encode", parent_, 0);
        partial = edge.finalize_and_encode(0);
        t_.partial_encode += span.elapsed();
        work += span.elapsed();
      }
      t_.edge_work.push_back(work);
      fedsz::StateDict mean;
      {
        ScopedSpan span(tracer_, "topology.partial_decode", parent_, 0);
        mean = tree.decode_partial(
            0, {partial.payload.data(), partial.payload.size()});
        t_.partial_decode += span.elapsed();
      }
      ScopedSpan span(tracer_, "federation.merge", parent_, 0);
      server_.merge_partial(mean, partial.weight);
      t_.merge += span.elapsed();
    }
    ScopedSpan span(tracer_, "aggregator.finalize", parent_, 0);
    server_.finalize_round();
    t_.finalize = span.elapsed();
    finish_allocs();
  }

  void finish_allocs() {
    if (!t_.encode.empty())
      t_.encode_allocs_per_call = static_cast<double>(encode_allocs_) /
                                  static_cast<double>(t_.encode.size());
  }

  /// Lossy and lossless codecs alone, on the two partitions of client 0's
  /// update, with the spec's codecs and bound.
  void replay_partitions() {
    ScopedSpan span(tracer_, "replay.partitions", parent_, 0);
    constexpr int kReps = 3;
    const std::size_t threshold = in_.spec.lossy_threshold;
    const std::vector<float> values =
        fedsz::benchx::lossy_partition_values(first_update_, threshold);
    if (!values.empty()) {
      const auto& lossy = fedsz::lossy::lossy_codec(in_.spec.lossy_id);
      const std::size_t raw = values.size() * sizeof(float);
      fedsz::Bytes packed;
      t_.lossy_compress_mb_s = throughput_mb_s(raw, kReps, [&] {
        packed = lossy.compress(values, in_.spec.bound);
      });
      t_.lossy_decompress_mb_s = throughput_mb_s(raw, kReps, [&] {
        lossy.decompress({packed.data(), packed.size()});
      });
    }
    const fedsz::Bytes bytes =
        fedsz::benchx::lossless_partition_bytes(first_update_, threshold);
    if (!bytes.empty()) {
      const auto& lossless = fedsz::lossless::lossless_codec(in_.spec.lossless_id);
      fedsz::Bytes packed;
      t_.lossless_compress_mb_s = throughput_mb_s(bytes.size(), kReps, [&] {
        packed = lossless.compress({bytes.data(), bytes.size()});
      });
      t_.lossless_decompress_mb_s =
          throughput_mb_s(bytes.size(), kReps, [&] {
            lossless.decompress({packed.data(), packed.size()});
          });
    }
  }

  const Inputs& in_;
  Tracer& tracer_;
  core::UpdateCodecPtr codec_;
  core::FlServer server_;
  std::vector<std::vector<std::size_t>> shards_;
  std::uint32_t parent_ = 0;
  std::uint64_t encode_allocs_ = 0;
  fedsz::StateDict first_update_;
  ReplayTimes t_;
};

}  // namespace

ReplayTimes replay_round(const Inputs& inputs, Tracer& tracer) {
  return Replayer(inputs, tracer).run();
}

}  // namespace roundbench
