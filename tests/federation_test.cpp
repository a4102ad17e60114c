// Cross-process federation: the distributed runtime must be BIT-IDENTICAL
// to the in-process coordinator on every virtual-clock-deterministic field
// — pinned here over the loopback transport (workers as threads, one- and
// multi-tier trees, checkpoint and resume), over real TCP with
// fedsz_edge_worker processes (when the build provides FEDSZ_BIN_DIR), and
// through churn (a worker that dies after its handshake ACK gets its
// cohort dropped for the round and re-homed after; one that dies before
// its ACK fails the run). A PARTIAL that does not cover its edge's cohort
// is rejected as corrupt, a worker handed a different run config fails
// the handshake, and a mutated HELLO never parses into anything but a
// manifest or a CorruptStream.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/federation.hpp"
#include "data/synthetic.hpp"
#include "net/transport.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::core {
namespace {

constexpr std::size_t kClients = 4;
constexpr int kRounds = 2;
constexpr std::size_t kTake = kClients * 16;

const char* kSpec = "fedsz:eb=rel:1e-2,topology=hier:2";

nn::ModelConfig tiny_model() {
  nn::ModelConfig model;
  model.arch = "mobilenet_v2";
  model.scale = nn::ModelScale::kTiny;
  return model;
}

FlRunConfig base_config(const CodecSpec& spec) {
  FlRunConfig config;
  config.apply_comm_spec(spec);
  config.clients = kClients;
  config.rounds = kRounds;
  config.seed = 42;
  config.eval_limit = 64;
  config.threads = kClients;
  config.client.batch_size = 16;
  config.client.sgd.learning_rate = 0.05f;
  return config;
}

// Adjusts a test's base config (rounds, checkpoint settings).
using Tweak = std::function<void(FlRunConfig&)>;

FlRunConfig tweaked_config(const CodecSpec& spec, const Tweak& tweak) {
  FlRunConfig config = base_config(spec);
  if (tweak) tweak(config);
  return config;
}

FlRunResult run_in_process(const char* spec_string = kSpec,
                           const Tweak& tweak = {}) {
  const CodecSpec spec = parse_codec_spec(spec_string);
  auto [train, test] = data::make_dataset("cifar10", 7);
  FlCoordinator coordinator(tiny_model(), data::take(train, kTake),
                            data::take(test, 256),
                            tweaked_config(spec, tweak), make_codec(spec));
  return coordinator.run();
}

// Every field the virtual clock determines; wall-clock timings excluded.
void expect_rounds_identical(const RoundRecord& a, const RoundRecord& b) {
  SCOPED_TRACE("round " + std::to_string(a.round));
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.eligible_clients, b.eligible_clients);
  EXPECT_EQ(a.ineligible_clients, b.ineligible_clients);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.aggregate_weight, b.aggregate_weight);
  EXPECT_EQ(a.backhaul_bytes, b.backhaul_bytes);
  EXPECT_EQ(a.backhaul_raw_bytes, b.backhaul_raw_bytes);
  EXPECT_EQ(a.mean_ef_residual_norm, b.mean_ef_residual_norm);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t k = 0; k < a.clients.size(); ++k) {
    const ClientTraceEntry& x = a.clients[k];
    const ClientTraceEntry& y = b.clients[k];
    EXPECT_EQ(x.client, y.client) << "trace " << k;
    EXPECT_EQ(x.node, y.node) << "trace " << k;
    EXPECT_EQ(x.arrival_seconds, y.arrival_seconds) << "trace " << k;
    EXPECT_EQ(x.transfer_seconds, y.transfer_seconds) << "trace " << k;
    EXPECT_EQ(x.payload_bytes, y.payload_bytes) << "trace " << k;
    EXPECT_EQ(x.weight, y.weight) << "trace " << k;
    EXPECT_EQ(x.bound_value, y.bound_value) << "trace " << k;
    EXPECT_EQ(x.lossy_tensors, y.lossy_tensors) << "trace " << k;
    EXPECT_EQ(x.lossless_tensors, y.lossless_tensors) << "trace " << k;
    EXPECT_EQ(x.raw_tensors, y.raw_tensors) << "trace " << k;
    EXPECT_EQ(x.sparse_tensors, y.sparse_tensors) << "trace " << k;
    EXPECT_EQ(x.status, y.status) << "trace " << k;
    EXPECT_EQ(x.device_class, y.device_class) << "trace " << k;
    EXPECT_EQ(x.eligible, y.eligible) << "trace " << k;
  }
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t k = 0; k < a.edges.size(); ++k) {
    const EdgeTraceEntry& x = a.edges[k];
    const EdgeTraceEntry& y = b.edges[k];
    EXPECT_EQ(x.edge, y.edge) << "edge trace " << k;
    EXPECT_EQ(x.tier, y.tier) << "edge trace " << k;
    EXPECT_EQ(x.cohort, y.cohort) << "edge trace " << k;
    EXPECT_EQ(x.weight, y.weight) << "edge trace " << k;
    EXPECT_EQ(x.payload_bytes, y.payload_bytes) << "edge trace " << k;
    EXPECT_EQ(x.raw_bytes, y.raw_bytes) << "edge trace " << k;
    EXPECT_EQ(x.transfer_seconds, y.transfer_seconds) << "edge trace " << k;
    EXPECT_EQ(x.arrival_seconds, y.arrival_seconds) << "edge trace " << k;
  }
}

void expect_results_identical(const FlRunResult& a, const FlRunResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r)
    expect_rounds_identical(a.rounds[r], b.rounds[r]);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_virtual_seconds, b.total_virtual_seconds);
}

// A real edge worker on its own thread. std::jthread joins on every way out
// of a test, so a root that throws reports its message instead of tearing
// the process down; a worker error is reported as a test failure unless
// the test expects the run to break.
std::jthread start_worker(net::StreamPtr stream, bool may_fail = false) {
  return std::jthread([stream = std::move(stream), may_fail]() mutable {
    try {
      run_edge_worker(std::move(stream));
    } catch (const std::exception& error) {
      if (!may_fail) ADD_FAILURE() << "edge worker: " << error.what();
    }
  });
}

// Runs `spec_string` with every edge worker on a loopback stream.
FlRunResult run_loopback(const char* spec_string, const Tweak& tweak = {}) {
  const CodecSpec spec = parse_codec_spec(spec_string);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), tweaked_config(spec, tweak), spec);
  std::vector<net::StreamPtr> root_ends;
  std::vector<std::jthread> workers;
  for (std::size_t e = 0; e < root.edge_count(); ++e) {
    auto [root_end, worker_end] = net::make_loopback_pair();
    root_ends.push_back(std::move(root_end));
    workers.push_back(start_worker(std::move(worker_end)));
  }
  return root.run_with_streams(std::move(root_ends));
}

// Runs `spec_string` over loopback, pins the result to the in-process run
// of the same spec, and hands it back.
void expect_loopback_matches_in_process(const char* spec_string,
                                        FlRunResult& distributed) {
  SCOPED_TRACE(spec_string);
  const FlRunResult reference = run_in_process(spec_string);
  ASSERT_EQ(reference.rounds.size(), static_cast<std::size_t>(kRounds));
  distributed = run_loopback(spec_string);
  expect_results_identical(distributed, reference);
}

TEST(FederationTest, ManifestRoundtrip) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  ASSERT_EQ(root.edge_count(), 2u);
  for (std::uint32_t e = 0; e < 2; ++e) {
    const RunManifest manifest = root.manifest(e);
    EXPECT_EQ(manifest.edge, e);
    // The worker's tree derives the edge count from the config.
    EXPECT_EQ(AggregationTree(manifest.config.topology, manifest.config.clients)
                  .edge_count(),
              2u);
    EXPECT_EQ(manifest.config.clients, kClients);
    EXPECT_EQ(manifest.dataset.take, kTake);
    const std::uint32_t fingerprint =
        run_fingerprint(manifest.config, manifest.model);
    EXPECT_NE(fingerprint, 0u);
    const Bytes blob = serialize_manifest(manifest);
    const RunManifest parsed = parse_manifest({blob.data(), blob.size()});
    EXPECT_EQ(parsed.codec_spec, manifest.codec_spec);
    EXPECT_EQ(parsed.config.seed, manifest.config.seed);
    EXPECT_EQ(parsed.config.topology.shard_seed,
              manifest.config.topology.shard_seed);
    EXPECT_EQ(parsed.edge, manifest.edge);
    EXPECT_EQ(run_fingerprint(parsed.config, parsed.model), fingerprint);
    EXPECT_EQ(serialize_manifest(parsed), blob);
  }
  // Corrupt manifests must throw, never construct a half-parsed run.
  Bytes blob = serialize_manifest(root.manifest(0));
  blob.resize(blob.size() / 2);
  EXPECT_THROW(parse_manifest({blob.data(), blob.size()}), CorruptStream);
}

TEST(FederationTest, CtorRejectsUnsupportedConfigs) {
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  const DatasetSpec dataset{"cifar10", 7, kTake};
  auto make_root = [&](const std::string& spec_string) {
    const CodecSpec spec = parse_codec_spec(spec_string);
    FederatedRoot root(tiny_model(), dataset, data::take(test, 256),
                       base_config(spec), spec);
  };
  // Flat topology: nothing to distribute.
  EXPECT_THROW(make_root("fedsz:eb=rel:1e-2"), InvalidArgument);
  // A checkpoint does not capture the EF residuals the workers carry.
  EXPECT_THROW(make_root("fedsz:eb=rel:1e-2,ef=on,topology=hier:2,"
                         "checkpoint=/tmp/x.ck:1"),
               InvalidArgument);
  EXPECT_THROW(make_root("fedsz:eb=rel:1e-2,topology=hier:2,"
                         "backhaul=fedsz:eb=rel:1e-3,edgeef=on,"
                         "checkpoint=/tmp/x.ck:1"),
               InvalidArgument);
  // A downlink spec needs the in-process broadcast machinery.
  EXPECT_THROW(
      make_root("fedsz:eb=rel:1e-2,topology=hier:2,downlink=fedsz:eb=rel:1e-2"),
      InvalidArgument);
}

// Tiers above the first run inside the root's pump, so multi-tier trees —
// with lossy backhauls, edge-side and client EF, and shuffled shards —
// cross the wire bit-identically too.
TEST(FederationTest, LoopbackRunMatchesInProcess) {
  for (const char* spec :
       {kSpec,
        "fedsz:eb=rel:1e-2,topology=hier:2x2,backhaul=fedsz:eb=rel:1e-3,"
        "edgeef=on,shard=shuffled",
        "fedsz:eb=rel:1e-2,topology=hier:2x2x1,backhaul2=fedsz:eb=rel:1e-2,"
        "ef=on"}) {
    FlRunResult distributed;
    expect_loopback_matches_in_process(spec, distributed);
  }
}

// Sparse updates cross the wire with their plan census intact: every
// client trace keeps its sparse tensor count, not just its payload bytes.
TEST(FederationTest, SparseLoopbackMatchesInProcess) {
  FlRunResult distributed;
  expect_loopback_matches_in_process(
      "sparse:eb=rel:1e-2,sparsity=0.9,topology=hier:2", distributed);
  std::size_t sparse_tensors = 0;
  for (const RoundRecord& r : distributed.rounds)
    for (const ClientTraceEntry& t : r.clients)
      sparse_tensors += t.sparse_tensors;
  EXPECT_GT(sparse_tensors, 0u);
}

// A client population must cross the wire bit-identically: the manifest's
// codec spec rebuilds the same device classes, links, and data weights on
// every worker, and the root's pump makes the availability draws in the
// same (edge, member) order as an in-process run.
TEST(FederationTest, PopulationLoopbackMatchesInProcess) {
  FlRunResult distributed;
  expect_loopback_matches_in_process(
      "fedsz:eb=rel:1e-2,topology=hier:2,population=mixed:seed=9",
      distributed);
  for (const RoundRecord& r : distributed.rounds)
    EXPECT_EQ(r.eligible_clients + r.ineligible_clients, kClients);
}

// No run state lives in the workers without client or edge EF, so a
// loopback run checkpoints and resumes like an in-process one: its
// checkpointed rounds match the in-process run, and its checkpoint resumes
// to the uninterrupted in-process suffix over loopback and in process
// alike (the shard seed it fingerprints is the one in-process runs use).
void expect_checkpoint_resumes_anywhere(const char* spec) {
  SCOPED_TRACE(spec);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("fedsz_fed_" + std::to_string(::getpid()) + ".ck");
  std::filesystem::remove(path);
  struct RemoveOnExit {  // a failed resume throws out of this function
    const std::filesystem::path& path;
    ~RemoveOnExit() { std::filesystem::remove(path); }
  } cleanup{path};
  // Resumed runs checkpoint every 4 rounds, so they never overwrite the
  // round-1 checkpoint the next resume reads.
  const auto checkpointed = [&](int rounds, std::size_t every, bool resume) {
    return [=](FlRunConfig& config) {
      config.rounds = rounds;
      config.checkpoint_path = path.string();
      config.checkpoint_every = every;
      config.resume = resume;
    };
  };
  const FlRunResult full =
      run_in_process(spec, [](FlRunConfig& config) { config.rounds = 3; });
  ASSERT_EQ(full.rounds.size(), 3u);
  const FlRunResult head = run_loopback(spec, checkpointed(1, 1, false));
  ASSERT_EQ(head.rounds.size(), 1u);
  expect_rounds_identical(head.rounds[0], full.rounds[0]);
  const auto expect_suffix = [&](const FlRunResult& resumed) {
    ASSERT_EQ(resumed.rounds.size(), 2u);
    expect_rounds_identical(resumed.rounds[0], full.rounds[1]);
    expect_rounds_identical(resumed.rounds[1], full.rounds[2]);
    EXPECT_EQ(resumed.final_accuracy, full.final_accuracy);
    EXPECT_EQ(resumed.total_virtual_seconds, full.total_virtual_seconds);
  };
  {
    SCOPED_TRACE("loopback resume");
    expect_suffix(run_loopback(spec, checkpointed(3, 4, true)));
  }
  {
    SCOPED_TRACE("in-process resume");
    expect_suffix(run_in_process(spec, checkpointed(3, 4, true)));
  }
}

TEST(FederationTest, LoopbackCheckpointResumesAnywhere) {
  expect_checkpoint_resumes_anywhere(kSpec);
  expect_checkpoint_resumes_anywhere(
      "fedsz:eb=rel:1e-2,topology=hier:2x2,shard=shuffled,"
      "population=mixed:seed=9");
}

// Population mid-round dropout rides the in-process dropout machinery and
// stays there.
TEST(FederationTest, CtorRejectsPopulationDropout) {
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  const CodecSpec spec = parse_codec_spec(
      "fedsz:eb=rel:1e-2,topology=hier:2,population=mixed:drop=0.2");
  EXPECT_THROW(FederatedRoot(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                             data::take(test, 256), base_config(spec), spec),
               InvalidArgument);
}

// A worker that completes the handshake and then dies: its round-0 cohort
// is traced as dropped, and from round 1 its members are re-homed onto the
// survivor — the campaign finishes with full participation.
TEST(FederationTest, CrashedWorkerIsRehomed) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FlRunConfig config = base_config(spec);
  FederationOptions options;
  // The deserter's close() surfaces as an EOF event immediately, so crash
  // detection never waits on this; keep the timeout generous enough that a
  // loaded CI box cannot starve the SURVIVOR's heartbeat thread into a
  // false positive.
  options.heartbeat_timeout_seconds = 15.0;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), config, spec, nullptr, options);
  ASSERT_EQ(root.edge_count(), 2u);

  auto [root0, worker0] = net::make_loopback_pair();
  auto [root1, worker1] = net::make_loopback_pair();
  std::jthread survivor = start_worker(std::move(worker0));
  std::jthread deserter([stream = std::move(worker1)]() mutable {
    net::FrameChannel chan(std::move(stream));
    const auto hello = chan.recv();
    ASSERT_TRUE(hello.has_value());
    ASSERT_EQ(hello->type, net::FrameType::kHello);
    const RunManifest manifest =
        parse_manifest({hello->payload.data(), hello->payload.size()});
    ByteWriter ack;
    ack.put_u32(run_fingerprint(manifest.config, manifest.model));
    ack.put_varint(manifest.edge);
    const Bytes bytes = ack.finish();
    chan.send(net::FrameType::kAck, {bytes.data(), bytes.size()});
    chan.close();  // dies right after the handshake
  });

  std::vector<net::StreamPtr> streams;
  streams.push_back(std::move(root0));
  streams.push_back(std::move(root1));
  const FlRunResult result = root.run_with_streams(std::move(streams));
  survivor.join();
  deserter.join();

  ASSERT_EQ(result.rounds.size(), static_cast<std::size_t>(kRounds));
  // Round 0: only the survivor's cohort aggregates; the dead edge's two
  // members appear as dropped trace entries.
  EXPECT_EQ(result.rounds[0].participants, 2u);
  std::size_t dropped = 0;
  for (const ClientTraceEntry& t : result.rounds[0].clients)
    if (t.status == DeliveryStatus::kDropped) ++dropped;
  EXPECT_EQ(dropped, 2u);
  // Round 1: the crash is recorded and everyone trains again.
  ASSERT_EQ(result.rounds[1].crashed_nodes.size(), 1u);
  EXPECT_EQ(result.rounds[1].participants, kClients);

  // The dead edge's round-0 cohort dropped at the round's open (virtual
  // time 0), traced at the dead edge's node with weight 0.
  const AggregationTree tree(config.topology, kClients);
  const std::vector<std::size_t>& deserted = tree.base_shards()[1];
  EXPECT_EQ(result.rounds[1].crashed_nodes[0], tree.flat_index(0, 1));
  std::vector<std::size_t> dropped_clients;
  for (const ClientTraceEntry& t : result.rounds[0].clients) {
    if (t.status != DeliveryStatus::kDropped) continue;
    dropped_clients.push_back(t.client);
    EXPECT_EQ(t.node, 1 + tree.flat_index(0, 1));
    EXPECT_EQ(t.dispatch_round, 0);
    EXPECT_EQ(t.dispatch_seconds, 0.0);
    EXPECT_EQ(t.arrival_seconds, 0.0);
    EXPECT_EQ(t.weight, 0.0);
  }
  std::sort(dropped_clients.begin(), dropped_clients.end());
  EXPECT_EQ(dropped_clients, deserted);
  // Round 1: every former member trains under the survivor's node.
  const std::vector<ClientTraceEntry>& round1 = result.rounds[1].clients;
  for (const std::size_t member : deserted) {
    const auto it = std::find_if(
        round1.begin(), round1.end(),
        [&](const ClientTraceEntry& t) { return t.client == member; });
    ASSERT_NE(it, round1.end()) << "client " << member;
    EXPECT_EQ(it->node, 1 + tree.flat_index(0, 0)) << "client " << member;
    EXPECT_EQ(it->status, DeliveryStatus::kAggregated) << "client " << member;
  }
}

// A worker that closes on HELLO never confirmed its build: the root fails
// the run with a TransportError instead of treating it as churn.
TEST(FederationTest, DeathBeforeAckIsFatal) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  ASSERT_EQ(root.edge_count(), 2u);

  auto [root0, worker0] = net::make_loopback_pair();
  auto [root1, worker1] = net::make_loopback_pair();
  // The healthy worker may still be building (or sending its ACK) when
  // the root gives up, so its own error is expected.
  std::jthread healthy = start_worker(std::move(worker0), true);
  std::jthread closer([stream = std::move(worker1)]() mutable {
    net::FrameChannel chan(std::move(stream));
    const auto hello = chan.recv();
    ASSERT_TRUE(hello.has_value());
    ASSERT_EQ(hello->type, net::FrameType::kHello);
    chan.close();  // dies on HELLO, before any ACK
  });

  std::vector<net::StreamPtr> streams;
  streams.push_back(std::move(root0));
  streams.push_back(std::move(root1));
  EXPECT_THROW(root.run_with_streams(std::move(streams)), net::TransportError);
}

// A hand-rolled edge worker: it ACKs the handshake, then answers every
// ROUND_OPEN with an honest PARTIAL for the cohort it was sent (each client
// reports 2 samples, the partial carries their summed weight and one leaf
// per client, nothing trained, an empty payload) after `lie` edits it. It
// exits when the root hangs up.
using PartialLie = std::function<void(PartialMsg&)>;

std::jthread start_crafted_worker(net::StreamPtr stream, PartialLie lie) {
  return std::jthread([stream = std::move(stream), lie]() mutable {
    net::FrameChannel chan(std::move(stream));
    try {
      const auto hello = chan.recv();
      if (!hello) return;
      const RunManifest manifest =
          parse_manifest({hello->payload.data(), hello->payload.size()});
      ByteWriter ack;
      ack.put_u32(run_fingerprint(manifest.config, manifest.model));
      ack.put_varint(manifest.edge);
      const Bytes ack_bytes = ack.finish();
      chan.send(net::FrameType::kAck, {ack_bytes.data(), ack_bytes.size()});
      while (const auto frame = chan.recv()) {
        if (frame->type != net::FrameType::kRoundOpen) continue;
        ByteReader in({frame->payload.data(), frame->payload.size()});
        PartialMsg msg;
        msg.round = static_cast<int>(in.get_varint());
        (void)in.get_f64();  // virtual open time
        const std::size_t cohort = in.get_varint();
        for (std::size_t k = 0; k < cohort; ++k) {
          ClientDelivery& delivery = msg.report.updates.emplace_back().delivery;
          delivery.client = static_cast<std::size_t>(in.get_varint());
          delivery.samples = 2;
          msg.report.partial.weight += 2.0;
        }
        msg.report.partial.clients = cohort;
        lie(msg);
        const Bytes body = serialize_partial(msg);
        chan.send(net::FrameType::kPartial, {body.data(), body.size()});
      }
    } catch (const std::exception&) {
      // The root hung up mid-send after rejecting a PARTIAL.
    }
  });
}

// The root matches a PARTIAL's deliveries to the cohort it sent that edge
// by client id: a missing, duplicated or foreign client is corrupt input.
// So is a cohort-matched PARTIAL whose leaf count, weight or compute budget
// could not have come from that cohort.
TEST(FederationTest, PartialOutsideItsCohortIsCorrupt) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  struct Case {
    const char* name;
    PartialLie lie;
    const char* error;  // what the root's CorruptStream must name
  };
  const std::vector<Case> cases = {
      {"missing", [](PartialMsg& msg) { msg.report.updates.pop_back(); },
       "does not match its cohort"},
      {"duplicated",
       [](PartialMsg& msg) {
         msg.report.updates.back().delivery.client =
             msg.report.updates.front().delivery.client;
       },
       "does not match its cohort"},
      {"foreign",  // client 0 belongs to edge 0
       [](PartialMsg& msg) { msg.report.updates.back().delivery.client = 0; },
       "does not match its cohort"},
      {"wrong weight",
       [](PartialMsg& msg) { msg.report.partial.weight += 1.0; }, "weight="},
      {"wrong leaf count",
       [](PartialMsg& msg) { ++msg.report.partial.clients; }, "clients="},
      {"negative compute budget",
       [](PartialMsg& msg) {
         msg.report.updates.front().compute_seconds = -1.0;
       },
       "compute_seconds="},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                       data::take(test, 256), base_config(spec), spec);
    ASSERT_EQ(root.edge_count(), 2u);
    auto [root0, worker0] = net::make_loopback_pair();
    auto [root1, worker1] = net::make_loopback_pair();
    std::jthread honest =
        start_crafted_worker(std::move(worker0), [](PartialMsg&) {});
    std::jthread liar = start_crafted_worker(std::move(worker1), c.lie);
    std::vector<net::StreamPtr> streams;
    streams.push_back(std::move(root0));
    streams.push_back(std::move(root1));
    try {
      root.run_with_streams(std::move(streams));
      ADD_FAILURE() << "the root accepted a lying PARTIAL";
    } catch (const CorruptStream& error) {
      EXPECT_NE(std::string(error.what()).find(c.error), std::string::npos)
          << error.what();
    }
  }
}

// Forwards every frame `from` -> `to` through `edit` until either side
// closes, then closes both so the opposite direction's relay ends too.
std::jthread relay(std::shared_ptr<net::FrameChannel> from,
                   std::shared_ptr<net::FrameChannel> to,
                   std::function<void(net::Frame&)> edit) {
  return std::jthread([=] {
    try {
      while (std::optional<net::Frame> frame = from->recv()) {
        edit(*frame);
        to->send(frame->type, {frame->payload.data(), frame->payload.size()});
      }
    } catch (const std::exception&) {
      // The other side hung up mid-frame.
    }
    from->close();
    to->close();
  });
}

// A man in the middle rewrites the HELLO's run config (seed + 1) before a
// real worker reads it. The worker ACKs the fingerprint of the run it
// would rebuild, which is not the root's, so the handshake fails naming
// the fingerprint instead of the run silently training something else.
TEST(FederationTest, TamperedHelloFailsTheHandshake) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  const auto tamper = [](net::Frame& frame) {
    if (frame.type != net::FrameType::kHello) return;
    RunManifest manifest =
        parse_manifest({frame.payload.data(), frame.payload.size()});
    ++manifest.config.seed;
    frame.payload = serialize_manifest(manifest);
  };
  std::vector<net::StreamPtr> root_ends;
  std::vector<std::jthread> threads;
  for (std::size_t e = 0; e < root.edge_count(); ++e) {
    auto [root_end, root_side] = net::make_loopback_pair();
    auto [worker_side, worker_end] = net::make_loopback_pair();
    const auto up = std::make_shared<net::FrameChannel>(root_side);
    const auto down = std::make_shared<net::FrameChannel>(worker_side);
    root_ends.push_back(std::move(root_end));
    threads.push_back(start_worker(std::move(worker_end), true));
    threads.push_back(relay(up, down, tamper));
    threads.push_back(relay(down, up, [](net::Frame&) {}));
  }
  try {
    root.run_with_streams(std::move(root_ends));
    ADD_FAILURE() << "the root accepted a worker that rebuilt another run";
  } catch (const net::TransportError& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"),
              std::string::npos)
        << error.what();
  }
}

// parse_manifest reads bytes off the network: every mutation of a valid
// HELLO body (byte flips, truncations, an out-of-range enum byte) parses
// or throws CorruptStream — no other exception, crash or sanitizer report.
TEST(FederationTest, MutatedManifestParsesOrIsCorrupt) {
  RunManifest manifest;
  manifest.codec_spec = kSpec;
  manifest.dataset = DatasetSpec{"cifar10", 7, kTake};
  manifest.model = tiny_model();
  manifest.config = base_config(parse_codec_spec(
      "fedsz:eb=rel:1e-2,topology=hier:2x2,shard=shuffled,"
      "population=mixed:seed=9"));
  manifest.config.topology.backhaul_heterogeneous =
      net::HeterogeneousNetworkConfig{};
  const Bytes valid = serialize_manifest(manifest);
  ASSERT_NO_THROW(parse_manifest({valid.data(), valid.size()}));

  std::mt19937 rng(20261018);
  std::uniform_int_distribution<std::size_t> position(0, valid.size() - 1);
  std::uniform_int_distribution<int> mask(1, 255);
  for (int i = 0; i < 4000; ++i) {
    Bytes mutated = valid;
    for (int flips = 1 + i % 3; flips > 0; --flips)
      mutated[position(rng)] ^= static_cast<std::uint8_t>(mask(rng));
    try {
      (void)parse_manifest({mutated.data(), mutated.size()});
    } catch (const CorruptStream&) {
    } catch (const std::exception& error) {
      ADD_FAILURE() << "mutation " << i << ": " << error.what();
    }
  }
  for (std::size_t keep = 0; keep < valid.size(); ++keep)
    EXPECT_THROW(parse_manifest({valid.data(), keep}), CorruptStream)
        << "truncated to " << keep;

  // Each enum's byte is where a one-field change moves the bytes; one past
  // its last value must be refused, not cast.
  struct EnumCase {
    const char* name;
    std::function<void(RunManifest&)> change;
    std::uint8_t out_of_range;
  };
  const std::vector<EnumCase> cases = {
      {"model scale",
       [](RunManifest& m) { m.model.scale = nn::ModelScale::kPaper; }, 3},
      {"downlink mode",
       [](RunManifest& m) { m.config.downlink_mode = DownlinkMode::kDelta; },
       2},
      {"topology mode",
       [](RunManifest& m) { m.config.topology.mode = TopologyMode::kFlat; },
       2},
      {"edge mode",
       [](RunManifest& m) {
         m.config.topology.edge_mode = EdgeMode::kBuffered;
       },
       2},
      {"sharding",
       [](RunManifest& m) {
         m.config.topology.sharding = ShardStrategy::kContiguous;
       },
       2},
      {"link distribution",
       [](RunManifest& m) {
         m.config.topology.backhaul_heterogeneous->distribution =
             net::LinkDistribution::kTwoTier;
       },
       3},
      {"availability",
       [](RunManifest& m) {
         m.config.population.availability = AvailabilityMode::kAlways;
       },
       3},
  };
  for (const EnumCase& c : cases) {
    SCOPED_TRACE(c.name);
    RunManifest changed = manifest;
    c.change(changed);
    const Bytes moved = serialize_manifest(changed);
    ASSERT_EQ(moved.size(), valid.size());
    std::vector<std::size_t> diff;
    for (std::size_t k = 0; k < valid.size(); ++k)
      if (moved[k] != valid[k]) diff.push_back(k);
    ASSERT_EQ(diff.size(), 1u);
    Bytes bad = valid;
    bad[diff[0]] = c.out_of_range;
    EXPECT_THROW(parse_manifest({bad.data(), bad.size()}), CorruptStream);
  }
}

#ifdef FEDSZ_BIN_DIR

TEST(FederationTest, TcpWorkersMatchInProcess) {
  const std::filesystem::path worker_binary =
      std::filesystem::path(FEDSZ_BIN_DIR) / "fedsz_edge_worker";
  if (!std::filesystem::exists(worker_binary))
    GTEST_SKIP() << "fedsz_edge_worker not built at " << worker_binary;

  const FlRunResult reference = run_in_process();

  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FlRunConfig config = base_config(spec);
  config.transport = "tcp:0";
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), config, spec);
  const std::string endpoint = "127.0.0.1:" + std::to_string(root.port());
  std::vector<pid_t> workers;
  for (std::size_t e = 0; e < root.edge_count(); ++e) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(worker_binary.c_str(), worker_binary.c_str(), "--connect",
              endpoint.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    workers.push_back(pid);
  }
  const FlRunResult distributed = root.run();
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker exited abnormally";
  }
  expect_results_identical(distributed, reference);
}

#endif  // FEDSZ_BIN_DIR

}  // namespace
}  // namespace fedsz::core
