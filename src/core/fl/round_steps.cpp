#include "core/fl/round_steps.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace fedsz::core {

RoundStreams::RoundStreams(std::uint64_t run_seed)
    : cohort(run_seed ^ 0x5C4ED11Eull),
      eligibility(run_seed ^ 0xE11D1B1Eull) {}

std::unique_ptr<ClientPopulation> make_population(const FlRunConfig& config) {
  if (config.population.empty()) return nullptr;
  return std::make_unique<ClientPopulation>(config.population, config.clients,
                                            config.seed);
}

std::unique_ptr<FlClient> make_client(std::size_t i,
                                      const nn::ModelConfig& model,
                                      const data::DatasetPtr& train,
                                      const std::vector<std::size_t>& shard,
                                      const FlRunConfig& config) {
  ClientConfig client_config = config.client;
  client_config.seed = config.seed ^ (0xC11E47ull * (i + 1));
  return std::make_unique<FlClient>(
      static_cast<int>(i), model,
      std::make_shared<data::SubsetDataset>(train, shard), client_config);
}

std::vector<double> client_compute_budgets(
    const FlRunConfig& config,
    const std::vector<std::vector<std::size_t>>& shards,
    const ClientPopulation* population) {
  Rng speed_rng(config.seed ^ 0xC0DEC10Cull);
  std::vector<double> budgets;
  budgets.reserve(config.clients);
  for (std::size_t i = 0; i < config.clients; ++i) {
    const double factor = speed_rng.uniform(1.0 - config.compute_jitter,
                                            1.0 + config.compute_jitter);
    const double class_multiplier =
        population ? population->compute_multiplier(i) : 1.0;
    budgets.push_back(config.compute_seconds_per_sample *
                      static_cast<double>(shards[i].size()) *
                      static_cast<double>(config.client.local_epochs) *
                      factor * class_multiplier);
  }
  return budgets;
}

ProducedUpdate produce_update(FlClient& client, const StateDict& model,
                              int round, const UpdateCodec& codec,
                              ErrorFeedbackAccumulator* feedback) {
  if (codec.lossless()) feedback = nullptr;
  ClientRoundResult round_result = client.run_round(model);
  EncodeContext ctx;
  ctx.round = round;
  ctx.client_id = client.id();
  ctx.steps = round_result.steps;
  StateDict update = std::move(round_result.update);
  if (feedback) update = feedback->apply(update);
  UpdateCodec::Encoded encoded = codec.encode(update, ctx);
  ProducedUpdate out;
  if (feedback) {
    CompressionStats ef_stats;
    const StateDict reconstruction = codec.decode(
        {encoded.payload.data(), encoded.payload.size()}, &ef_stats);
    feedback->absorb(update, reconstruction);
    out.ef_residual_norm = feedback->residual_norm();
    out.ef_decode_seconds = ef_stats.decompress_seconds;
  }
  out.samples = round_result.samples;
  out.stats = encoded.stats;
  out.train_seconds = round_result.train_seconds;
  out.mean_loss = round_result.mean_loss;
  out.payload = std::move(encoded.payload);
  return out;
}

std::vector<std::vector<std::size_t>> draw_round_open(
    const std::vector<std::vector<std::size_t>>& members, std::size_t clients,
    const ClientPopulation* population, Scheduler& scheduler,
    RoundStreams& streams, double now, std::size_t node_base,
    RoundRecord& record) {
  std::vector<char> eligible(clients, 1);
  if (population) {
    for (const std::vector<std::size_t>& edge : members)
      for (const std::size_t i : edge)
        eligible[i] =
            streams.eligibility.uniform() < population->availability(i, now);
    // Zero-eligible wake: a campaign never stalls on an unlucky night, and
    // the stream stays aligned with luckier trajectories.
    if (std::find(eligible.begin(), eligible.end(), 1) == eligible.end()) {
      std::vector<double> p(clients);
      for (std::size_t i = 0; i < clients; ++i)
        p[i] = population->availability(i, now);
      eligible[std::max_element(p.begin(), p.end()) - p.begin()] = 1;
    }
  }
  // The scheduler never sees offline devices: its indices are positions in
  // the edge's eligible pool.
  std::vector<std::vector<std::size_t>> cohort(members.size());
  std::vector<std::size_t> owner(clients, 0);
  for (std::size_t e = 0; e < members.size(); ++e) {
    std::vector<std::size_t> pool;
    for (const std::size_t i : members[e]) {
      owner[i] = e;
      if (eligible[i]) pool.push_back(i);
    }
    if (pool.empty()) continue;
    for (const std::size_t idx :
         scheduler.cohort(record.round, pool.size(), streams.cohort))
      cohort[e].push_back(pool[idx]);
  }
  for (std::size_t i = 0; i < clients; ++i) {
    if (eligible[i]) {
      ++record.eligible_clients;
      continue;
    }
    ++record.ineligible_clients;
    trace_undelivered(record, i, node_base + owner[i],
                      DeliveryStatus::kIneligible, record.round, now, now,
                      population);
  }
  return cohort;
}

void trace_undelivered(RoundRecord& record, std::size_t client,
                       std::size_t node, DeliveryStatus status,
                       int dispatch_round, double dispatch_seconds,
                       double at_seconds, const ClientPopulation* population,
                       const DownlinkLeg& downlink) {
  ClientTraceEntry& trace = record.clients.emplace_back();
  trace.client = client;
  trace.node = node;
  trace.dispatch_round = dispatch_round;
  trace.dispatch_seconds = dispatch_seconds;
  trace.arrival_seconds = at_seconds;
  trace.downlink_bytes = downlink.bytes;
  trace.downlink_seconds = downlink.seconds;
  trace.status = status;
  trace.eligible = status != DeliveryStatus::kIneligible;
  if (population) trace.device_class = population->class_name(client);
}

ClientDelivery delivery_of(std::size_t client, const ProducedUpdate& update) {
  ClientDelivery delivery;
  static_cast<UpdateCost&>(delivery) = update;
  delivery.client = client;
  delivery.payload_bytes = update.payload.size();
  return delivery;
}

ClientTraceEntry& trace_delivery(RoundRecord& record,
                                 const ClientDelivery& delivery,
                                 const ClientPopulation* population) {
  ClientTraceEntry& trace = record.clients.emplace_back();
  trace.client = delivery.client;
  trace.node = delivery.node;
  trace.dispatch_round = delivery.dispatch_round;
  trace.dispatch_seconds = delivery.dispatch_seconds;
  trace.arrival_seconds = delivery.arrival_seconds;
  trace.transfer_seconds = delivery.transfer_seconds;
  trace.payload_bytes = delivery.payload_bytes;
  trace.raw_bytes = delivery.stats.original_bytes;
  trace.bound_value = delivery.stats.mean_bound_value;
  trace.lossy_tensors = delivery.stats.lossy_tensors;
  trace.lossless_tensors = delivery.stats.lossless_tensors;
  trace.raw_tensors = delivery.stats.raw_tensors;
  trace.sparse_tensors = delivery.stats.sparse_tensors;
  trace.downlink_bytes = delivery.downlink.bytes;
  trace.downlink_seconds = delivery.downlink.seconds;
  trace.ef_residual_norm = delivery.ef_residual_norm;
  if (population) trace.device_class = population->class_name(delivery.client);
  return trace;
}

void account_delivery(RoundRecord& record, const ClientDelivery& delivery,
                      const ClientPopulation* population,
                      const net::SimulatedNetwork& link) {
  ClientTraceEntry& trace = trace_delivery(record, delivery, population);
  trace.weight = delivery.weight;
  trace.decision = net::evaluate_compression(
      delivery.stats.original_bytes, delivery.payload_bytes,
      delivery.stats.compress_seconds, delivery.decode_seconds, link);
  const DownlinkLeg& downlink = delivery.downlink;
  record.train_seconds += delivery.train_seconds;
  record.compress_seconds += delivery.stats.compress_seconds;
  record.decompress_seconds += delivery.decode_seconds;
  record.comm_seconds += delivery.transfer_seconds;
  record.mean_loss += delivery.mean_loss;
  record.bytes_sent += delivery.payload_bytes;
  record.raw_bytes += delivery.stats.original_bytes;
  record.downlink_bytes += downlink.bytes;
  record.downlink_raw_bytes += downlink.raw_bytes;
  record.downlink_seconds += downlink.seconds;
  record.downlink_encode_seconds += downlink.encode_seconds;
  record.downlink_decode_seconds += downlink.decode_seconds;
  record.mean_ef_residual_norm += delivery.ef_residual_norm;
  record.ef_decode_seconds += delivery.ef_decode_seconds;
  record.participants += 1;
}

EdgeTraceEntry partial_trace(const EncodedPartial& partial, std::size_t flat,
                             std::size_t level, double transfer_seconds,
                             double arrival_seconds) {
  EdgeTraceEntry trace;
  trace.edge = flat;
  trace.tier = level + 1;
  trace.cohort = partial.clients;
  trace.weight = partial.weight;
  trace.payload_bytes = partial.payload.size();
  trace.raw_bytes = partial.stats.original_bytes;
  trace.encode_seconds = partial.stats.compress_seconds;
  trace.transfer_seconds = transfer_seconds;
  trace.arrival_seconds = arrival_seconds;
  trace.ef_residual_norm = partial.ef_residual_norm;
  return trace;
}

void account_partial(RoundRecord& record, EdgeTraceEntry trace) {
  record.backhaul_bytes += trace.payload_bytes;
  record.backhaul_raw_bytes += trace.raw_bytes;
  record.backhaul_seconds += trace.transfer_seconds;
  record.backhaul_encode_seconds += trace.encode_seconds;
  record.backhaul_decode_seconds += trace.decode_seconds;
  record.backhaul_tier_bytes[trace.tier - 1] += trace.payload_bytes;
  record.backhaul_tier_raw_bytes[trace.tier - 1] += trace.raw_bytes;
  record.edges.push_back(std::move(trace));
}

void finish_round(RoundRecord& record, FlServer& server, double virtual_now,
                  const FlRunConfig& config, const data::Dataset& test) {
  if (record.participants == 0) {
    server.abort_round();
  } else {
    server.finalize_round();
    const double inv = 1.0 / static_cast<double>(record.participants);
    record.train_seconds *= inv;
    record.compress_seconds *= inv;
    record.decompress_seconds *= inv;
    record.comm_seconds *= inv;
    record.mean_loss *= inv;
    record.downlink_seconds *= inv;
    record.downlink_encode_seconds *= inv;
    record.downlink_decode_seconds *= inv;
    record.mean_ef_residual_norm *= inv;
    record.ef_decode_seconds *= inv;
  }
  const auto merged = std::count_if(
      record.edges.begin(), record.edges.end(), [](const EdgeTraceEntry& e) {
        return e.status == DeliveryStatus::kAggregated;
      });
  if (merged > 0) {
    const double inv = 1.0 / static_cast<double>(merged);
    record.backhaul_seconds *= inv;
    record.backhaul_encode_seconds *= inv;
    record.backhaul_decode_seconds *= inv;
    record.backhaul_downlink_seconds *= inv;
  }
  record.virtual_seconds = virtual_now;
  if (config.evaluate_every_round || record.round + 1 == config.rounds) {
    Timer eval_timer;
    record.accuracy = server.evaluate(test, config.eval_limit);
    record.eval_seconds = eval_timer.seconds();
  }
}

}  // namespace fedsz::core
