// The client-population subsystem: spec grammar, device-class correlation,
// availability math, and the coordinator's eligibility machinery on the
// virtual clock. The pinned runs assert the load-bearing contracts: a
// diurnal population leaves somebody offline, a run WITHOUT a population
// is bit-identical to the pre-population coordinator (everyone eligible,
// no extra RNG draws), and a population trajectory is thread-count
// invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/population.hpp"
#include "core/fl/round_steps.hpp"
#include "core/fl/trace.hpp"
#include "data/synthetic.hpp"

namespace fedsz::core {
namespace {

constexpr std::size_t kClients = 6;
constexpr int kRounds = 3;
constexpr std::size_t kTake = kClients * 8;

nn::ModelConfig tiny_model() {
  nn::ModelConfig model;
  model.arch = "mobilenet_v2";
  model.scale = nn::ModelScale::kTiny;
  return model;
}

FlRunResult run_spec(const std::string& spec_string, std::size_t threads = 2) {
  const CodecSpec spec = parse_codec_spec(spec_string);
  FlRunConfig config;
  config.apply_comm_spec(spec);
  config.clients = kClients;
  config.rounds = kRounds;
  config.threads = threads;
  config.seed = 42;
  config.eval_limit = 32;
  config.client.batch_size = 8;
  config.client.sgd.learning_rate = 0.05f;
  auto [train, test] = data::make_dataset("cifar10");
  FlCoordinator coordinator(tiny_model(), data::take(train, kTake),
                            data::take(test, 64), config, make_codec(spec));
  return coordinator.run();
}

// ---- spec grammar ----

TEST(PopulationSpec, ParseDefaultsAndCanonicalForm) {
  const PopulationConfig config = parse_population_spec("mixed");
  EXPECT_EQ(config.preset, "mixed");
  EXPECT_TRUE(config.mix.empty());
  EXPECT_EQ(config.availability, AvailabilityMode::kDiurnal);
  EXPECT_EQ(config.period_seconds, 86400.0);
  EXPECT_EQ(config.phase_jitter, 0.25);
  EXPECT_EQ(config.dropout_rate, 0.0);
  EXPECT_EQ(config.seed, 0u);
  EXPECT_EQ(format_population_spec(config), "mixed");
}

TEST(PopulationSpec, FormatParseIsIdempotent) {
  const std::vector<std::string> specs = {
      "mixed",
      "mobile:avail=always",
      "iot_fleet:avail=flat:0.5",
      "uniform:period=3600;jitter=0.1",
      "mixed:drop=0.05;seed=7",
      "custom:mix=laptop*2+iot*1;avail=flat:0.6",
      "custom:mix=phone_lte*0.5+phone_wifi*0.5;period=7200;jitter=0;seed=3",
  };
  for (const std::string& s : specs) {
    const std::string once = format_population_spec(parse_population_spec(s));
    const std::string twice =
        format_population_spec(parse_population_spec(once));
    EXPECT_EQ(once, twice) << s;
    // Canonical specs never contain ',' -- they embed verbatim in the
    // comma-separated comm-key list.
    EXPECT_EQ(once.find(','), std::string::npos) << once;
  }
}

TEST(PopulationSpec, EmptyTextIsEmptyConfig) {
  const PopulationConfig config = parse_population_spec("");
  EXPECT_TRUE(config.empty());
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(format_population_spec(config), "");
}

TEST(PopulationSpec, RejectsNonsense) {
  EXPECT_THROW(parse_population_spec("datacenter"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("custom"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:mix=laptop*1"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("custom:mix=mainframe*1"),
               InvalidArgument);
  EXPECT_THROW(parse_population_spec("custom:mix=laptop*0"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("custom:mix=laptop*1+laptop*2"),
               InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:avail=flat:0"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:avail=flat:1.5"),
               InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:avail=weekly"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:period=0"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:jitter=2"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:drop=1"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:drop=nope"), InvalidArgument);
  EXPECT_THROW(parse_population_spec("mixed:color=blue"), InvalidArgument);
}

TEST(PopulationSpec, PresetMixesResolveToKnownClasses) {
  for (const char* preset : {"mixed", "mobile", "iot_fleet", "uniform"}) {
    PopulationConfig config;
    config.preset = preset;
    const std::vector<DeviceClassShare> mix = resolve_population_mix(config);
    ASSERT_FALSE(mix.empty()) << preset;
    double total = 0.0;
    for (const DeviceClassShare& share : mix) {
      EXPECT_NE(find_device_class(share.name), nullptr) << share.name;
      EXPECT_GT(share.weight, 0.0);
      total += share.weight;
    }
    EXPECT_GT(total, 0.0);
  }
}

// ---- per-client materialization ----

TEST(ClientPopulationTest, ClassAttributesAreCorrelated) {
  const PopulationConfig config = parse_population_spec("mixed:seed=5");
  ClientPopulation population(config, 32, 42);
  ASSERT_EQ(population.size(), 32u);
  ASSERT_EQ(population.link_profiles().size(), 32u);
  for (std::size_t i = 0; i < population.size(); ++i) {
    const DeviceClass& cls = population.device_class(i);
    EXPECT_EQ(cls.name, population.class_name(i));
    EXPECT_EQ(population.compute_multiplier(i), cls.compute_multiplier);
    EXPECT_EQ(population.data_weight(i), cls.data_weight);
    // The link draw is lognormal around the class median, but latency is a
    // fixed class attribute -- the correlation tests key on it.
    EXPECT_EQ(population.link_profiles()[i].latency_s, cls.latency_s);
    EXPECT_GT(population.link_profiles()[i].bandwidth_mbps, 0.0);
  }
}

TEST(ClientPopulationTest, SeededAndDeterministic) {
  const PopulationConfig config = parse_population_spec("mixed");
  ClientPopulation a(config, 16, 42);
  ClientPopulation b(config, 16, 42);
  ClientPopulation c(config, 16, 43);  // different run seed
  const PopulationConfig pinned = parse_population_spec("mixed:seed=9");
  ClientPopulation d(pinned, 16, 42);
  ClientPopulation e(pinned, 16, 777);  // pop seed overrides the run seed
  bool differs_from_c = false;
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(a.class_name(i), b.class_name(i));
    EXPECT_EQ(a.link_profiles()[i].bandwidth_mbps,
              b.link_profiles()[i].bandwidth_mbps);
    EXPECT_EQ(a.availability(i, 1234.5), b.availability(i, 1234.5));
    EXPECT_EQ(d.class_name(i), e.class_name(i));
    EXPECT_EQ(d.link_profiles()[i].bandwidth_mbps,
              e.link_profiles()[i].bandwidth_mbps);
    differs_from_c =
        differs_from_c || a.class_name(i) != c.class_name(i) ||
        a.link_profiles()[i].bandwidth_mbps !=
            c.link_profiles()[i].bandwidth_mbps;
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(ClientPopulationTest, AvailabilityModes) {
  ClientPopulation always(
      parse_population_spec("custom:mix=laptop*1;avail=always"), 4, 1);
  ClientPopulation flat(
      parse_population_spec("custom:mix=laptop*1;avail=flat:0.6"), 4, 1);
  // jitter=0 pins every phase to 0, making the sinusoid exact.
  ClientPopulation diurnal(
      parse_population_spec("custom:mix=laptop*1;period=100;jitter=0"), 4, 1);
  const DeviceClass& laptop = *find_device_class("laptop");
  for (double t : {0.0, 25.0, 50.0, 75.0, 12345.0}) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(always.availability(i, t), 1.0);
      EXPECT_EQ(flat.availability(i, t), 0.6);
    }
  }
  // Peak at a quarter period, trough at three quarters.
  EXPECT_NEAR(diurnal.availability(0, 25.0),
              laptop.availability_mean + laptop.diurnal_amplitude, 1e-12);
  EXPECT_NEAR(diurnal.availability(0, 75.0),
              laptop.availability_mean - laptop.diurnal_amplitude, 1e-12);
  EXPECT_NEAR(diurnal.availability(0, 0.0), laptop.availability_mean, 1e-12);
  for (double t = 0.0; t < 200.0; t += 7.0) {
    const double p = diurnal.availability(0, t);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(ClientPopulationTest, RejectsEmptyConfig) {
  EXPECT_THROW(ClientPopulation(PopulationConfig{}, 4, 1), InvalidArgument);
}

// ---- the shared round-open draw ----

// Wraps sampled_sync (which consumes the cohort stream) and records the
// pool size of every cohort draw it is asked for, in call order.
class RecordingScheduler final : public Scheduler {
 public:
  std::string name() const override { return "recording"; }
  std::vector<std::size_t> cohort(int round, std::size_t clients,
                                  Rng& rng) override {
    pools.push_back(clients);
    return inner_->cohort(round, clients, rng);
  }
  std::size_t aggregation_goal(std::size_t cohort_size) const override {
    return cohort_size;
  }
  bool continuous() const override { return false; }

  std::vector<std::size_t> pools;

 private:
  SchedulerPtr inner_ = make_sampled_sync_scheduler(0.5);
};

// The clients a draw left offline, read back from its kIneligible traces.
std::vector<char> eligible_from(const RoundRecord& record) {
  std::vector<char> eligible(kClients, 1);
  for (const ClientTraceEntry& t : record.clients)
    if (t.status == DeliveryStatus::kIneligible) eligible[t.client] = 0;
  return eligible;
}

bool same_state(const Rng& a, const Rng& b) {
  const Rng::State x = a.state();
  const Rng::State y = b.state();
  return std::equal(x.words, x.words + 4, y.words) &&
         x.has_cached == y.has_cached;
}

constexpr std::uint64_t kDrawSeed = 42;
constexpr double kNow = 3600.0;

ClientPopulation draw_population(const std::string& spec) {
  return ClientPopulation(parse_population_spec(spec), kClients, kDrawSeed);
}

// One eligibility draw per member, in (edge, member) order — NOT client
// order — then one cohort draw per edge over its eligible pool.
TEST(RoundOpenDraw, EligibilityInEdgeMemberOrderThenCohortPerEdge) {
  const ClientPopulation population =
      draw_population("mixed:avail=flat:0.5;seed=5");
  const std::vector<std::vector<std::size_t>> members = {{4, 1, 5},
                                                         {0, 3, 2}};
  RecordingScheduler scheduler;
  RoundStreams streams(kDrawSeed);
  RoundRecord record;
  record.round = 2;
  const auto cohorts = draw_round_open(members, kClients, &population,
                                       scheduler, streams, kNow, 1, record);

  RoundStreams expected(kDrawSeed);
  std::vector<char> eligible(kClients, 0);
  for (const auto& edge : members)
    for (const std::size_t i : edge)
      eligible[i] = expected.eligibility.uniform() <
                    population.availability(i, kNow);
  ASSERT_NE(std::count(eligible.begin(), eligible.end(), 1), 0)
      << "the seeded draw should leave somebody eligible";
  EXPECT_EQ(eligible_from(record), eligible);
  EXPECT_TRUE(same_state(streams.eligibility, expected.eligibility));

  SchedulerPtr sampled = make_sampled_sync_scheduler(0.5);
  std::vector<std::size_t> pools;
  ASSERT_EQ(cohorts.size(), members.size());
  for (std::size_t e = 0; e < members.size(); ++e) {
    std::vector<std::size_t> pool;
    for (const std::size_t i : members[e])
      if (eligible[i]) pool.push_back(i);
    std::vector<std::size_t> cohort;
    if (!pool.empty()) {
      pools.push_back(pool.size());
      for (const std::size_t idx :
           sampled->cohort(record.round, pool.size(), expected.cohort))
        cohort.push_back(pool[idx]);
    }
    EXPECT_EQ(cohorts[e], cohort) << "edge " << e;
  }
  EXPECT_EQ(scheduler.pools, pools);
  EXPECT_TRUE(same_state(streams.cohort, expected.cohort));

  // Offline clients are traced in client order at their edge's node.
  std::size_t offline = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    if (eligible[i]) continue;
    ASSERT_LT(offline, record.clients.size());
    const ClientTraceEntry& t = record.clients[offline++];
    EXPECT_EQ(t.client, i);
    EXPECT_EQ(t.node, i == 4 || i == 1 || i == 5 ? 1u : 2u);
    EXPECT_EQ(t.status, DeliveryStatus::kIneligible);
    EXPECT_FALSE(t.eligible);
    EXPECT_EQ(t.dispatch_round, 2);
    EXPECT_EQ(t.arrival_seconds, kNow);
  }
  EXPECT_EQ(record.clients.size(), offline);
  EXPECT_EQ(record.ineligible_clients, offline);
  EXPECT_EQ(record.eligible_clients, kClients - offline);
}

// When every availability draw fails, the most-available client (lowest
// index on ties) wakes without touching the stream, and an edge left with
// no eligible member draws no cohort at all.
TEST(RoundOpenDraw, ZeroEligibleWakeIsFreeAndEmptyEdgesSkipTheirDraw) {
  const ClientPopulation population =
      draw_population("uniform:avail=flat:1e-9");
  // Client 0 — the wake's pick, since every client is equally available —
  // lives under the SECOND edge.
  const std::vector<std::vector<std::size_t>> members = {{3, 4, 5},
                                                         {0, 1, 2}};
  RecordingScheduler scheduler;
  RoundStreams streams(kDrawSeed);
  RoundRecord record;
  const auto cohorts = draw_round_open(members, kClients, &population,
                                       scheduler, streams, kNow, 1, record);

  RoundStreams expected(kDrawSeed);
  for (std::size_t k = 0; k < kClients; ++k)
    ASSERT_GE(expected.eligibility.uniform(), 1e-9)
        << "the seeded draw should leave everyone offline";
  EXPECT_TRUE(same_state(streams.eligibility, expected.eligibility));
  EXPECT_EQ(eligible_from(record), std::vector<char>({1, 0, 0, 0, 0, 0}));

  EXPECT_EQ(scheduler.pools, std::vector<std::size_t>({1}));
  EXPECT_TRUE(cohorts[0].empty());
  EXPECT_EQ(cohorts[1], std::vector<std::size_t>({0}));
  make_sampled_sync_scheduler(0.5)->cohort(0, 1, expected.cohort);
  EXPECT_TRUE(same_state(streams.cohort, expected.cohort));
  EXPECT_EQ(record.eligible_clients, 1u);
  EXPECT_EQ(record.ineligible_clients, kClients - 1);
}

// A flat run is one edge holding clients 0..n-1: with no population it is
// exactly one scheduler draw over the whole client range, every client
// eligible, nothing traced; with one, offline clients trace at the root.
TEST(RoundOpenDraw, FlatCallIsOneEdgeOfEveryClient) {
  std::vector<std::vector<std::size_t>> everyone(1);
  for (std::size_t i = 0; i < kClients; ++i) everyone[0].push_back(i);

  RecordingScheduler scheduler;
  RoundStreams streams(kDrawSeed);
  RoundRecord record;
  const auto cohorts = draw_round_open(everyone, kClients, nullptr,
                                       scheduler, streams, kNow, 0, record);
  RoundStreams expected(kDrawSeed);
  const std::vector<std::size_t> cohort =
      make_sampled_sync_scheduler(0.5)->cohort(0, kClients, expected.cohort);
  ASSERT_EQ(cohorts.size(), 1u);
  EXPECT_EQ(cohorts[0], cohort);
  EXPECT_EQ(scheduler.pools, std::vector<std::size_t>({kClients}));
  EXPECT_TRUE(same_state(streams.cohort, expected.cohort));
  EXPECT_TRUE(same_state(streams.eligibility, expected.eligibility));
  EXPECT_EQ(record.eligible_clients, kClients);
  EXPECT_EQ(record.ineligible_clients, 0u);
  EXPECT_TRUE(record.clients.empty());

  const ClientPopulation population =
      draw_population("mixed:avail=flat:0.5;seed=5");
  RoundStreams pop_streams(kDrawSeed);
  RoundRecord pop_record;
  draw_round_open(everyone, kClients, &population, scheduler, pop_streams,
                  kNow, 0, pop_record);
  EXPECT_GT(pop_record.ineligible_clients, 0u);
  EXPECT_EQ(pop_record.clients.size(), pop_record.ineligible_clients);
  for (const ClientTraceEntry& t : pop_record.clients) EXPECT_EQ(t.node, 0u);
}

// ---- coordinator eligibility ----

TEST(PopulationRun, DiurnalPopulationLeavesClientsOffline) {
  const FlRunResult result =
      run_spec("fedsz:eb=rel:1e-2,population=mixed:avail=flat:0.5;seed=11");
  ASSERT_EQ(result.rounds.size(), static_cast<std::size_t>(kRounds));
  std::size_t total_ineligible = 0;
  for (const RoundRecord& r : result.rounds) {
    EXPECT_EQ(r.eligible_clients + r.ineligible_clients, kClients);
    EXPECT_GE(r.eligible_clients, 1u);  // zero-eligible fallback floor
    EXPECT_LE(r.participants, r.eligible_clients);
    total_ineligible += r.ineligible_clients;
    std::size_t ineligible_traces = 0;
    for (const ClientTraceEntry& t : r.clients) {
      EXPECT_FALSE(t.device_class.empty());
      if (t.status == DeliveryStatus::kIneligible) {
        ++ineligible_traces;
        EXPECT_FALSE(t.eligible);
        EXPECT_EQ(t.weight, 0.0);
      } else {
        EXPECT_TRUE(t.eligible);
      }
    }
    EXPECT_EQ(ineligible_traces, r.ineligible_clients);
  }
  // Bernoulli(~0.5) over 6 clients x 3 rounds: somebody sat out. The run
  // is seeded, so this is a pin, not a coin flip.
  EXPECT_GT(total_ineligible, 0u);

  // The diurnal default exercises the sinusoid end to end as well.
  const FlRunResult diurnal =
      run_spec("fedsz:eb=rel:1e-2,population=mixed:period=10;seed=11");
  for (const RoundRecord& r : diurnal.rounds)
    EXPECT_EQ(r.eligible_clients + r.ineligible_clients, kClients);
}

TEST(PopulationRun, NoPopulationMeansEveryoneEligible) {
  const FlRunResult result = run_spec("fedsz:eb=rel:1e-2");
  for (const RoundRecord& r : result.rounds) {
    EXPECT_EQ(r.eligible_clients, kClients);
    EXPECT_EQ(r.ineligible_clients, 0u);
    for (const ClientTraceEntry& t : r.clients) {
      EXPECT_NE(t.status, DeliveryStatus::kIneligible);
      EXPECT_TRUE(t.eligible);
      EXPECT_TRUE(t.device_class.empty());
    }
  }
}

// The trace also records wall-clock timer measurements (local-training,
// encode/decode seconds and the Eqn (1) decision built on them), which
// legitimately vary run to run. Zero those so the dump compares every
// virtual-clock-deterministic field — times, bytes, weights, eligibility,
// device classes — at full precision.
util::JsonValue deterministic_trace(FlRunResult result) {
  result.total_wall_seconds = 0.0;
  for (RoundRecord& r : result.rounds) {
    r.train_seconds = r.compress_seconds = r.decompress_seconds = 0.0;
    r.eval_seconds = 0.0;
    r.downlink_encode_seconds = r.downlink_decode_seconds = 0.0;
    r.ef_decode_seconds = 0.0;
    r.backhaul_encode_seconds = r.backhaul_decode_seconds = 0.0;
    for (ClientTraceEntry& t : r.clients) t.decision = {};
    for (EdgeTraceEntry& e : r.edges)
      e.encode_seconds = e.decode_seconds = 0.0;
  }
  return trace_json(result);
}

TEST(PopulationRun, TrajectoryIsThreadCountInvariant) {
  const std::string spec =
      "fedsz:eb=rel:1e-2,population=mobile:avail=flat:0.7;seed=3,"
      "topology=hier:2";
  const FlRunResult one = run_spec(spec, 1);
  const FlRunResult four = run_spec(spec, 4);
  EXPECT_EQ(deterministic_trace(one).dump(), deterministic_trace(four).dump());
}

TEST(PopulationRun, MidRoundDropoutRidesDeliveryStatus) {
  const FlRunResult result = run_spec(
      "fedsz:eb=rel:1e-2,population=mixed:avail=always;drop=0.45;seed=2");
  std::size_t dropped = 0;
  for (const RoundRecord& r : result.rounds) {
    EXPECT_EQ(r.eligible_clients, kClients);  // always-on: nobody ineligible
    for (const ClientTraceEntry& t : r.clients)
      if (t.status == DeliveryStatus::kDropped) ++dropped;
  }
  EXPECT_GT(dropped, 0u);  // seeded pin: drop=0.45 over 18 dispatches
}

TEST(PopulationRun, PopulationRequiresBarrierScheduler) {
  const CodecSpec spec =
      parse_codec_spec("fedsz:eb=rel:1e-2,population=mixed");
  FlRunConfig config;
  config.apply_comm_spec(spec);
  config.clients = kClients;
  config.rounds = 1;
  config.seed = 1;
  auto [train, test] = data::make_dataset("cifar10");
  EXPECT_THROW(
      FlCoordinator(tiny_model(), data::take(train, kTake),
                    data::take(test, 64), config, make_codec(spec),
                    make_buffered_async_scheduler()),
      InvalidArgument);
}

TEST(PopulationRun, TraceJsonCarriesDeviceFields) {
  const FlRunResult result =
      run_spec("fedsz:eb=rel:1e-2,population=iot_fleet:avail=flat:0.5;seed=4");
  const std::string json = trace_json(result).dump();
  EXPECT_NE(json.find("\"device_class\""), std::string::npos);
  EXPECT_NE(json.find("\"eligible\""), std::string::npos);
  EXPECT_NE(json.find("\"eligible_clients\""), std::string::npos);
  EXPECT_NE(json.find("\"ineligible\""), std::string::npos);
  EXPECT_NE(json.find("\"iot\""), std::string::npos);
}

}  // namespace
}  // namespace fedsz::core
