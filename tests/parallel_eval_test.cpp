// Parallel evaluation: FlServer::evaluate over a ThreadPool must return the
// serial accuracy bit-for-bit, and eval forwards on one shared model from
// several threads must reproduce the serial logits exactly (an eval forward
// writes no module state). Build with -DFEDSZ_SANITIZE=thread to check the
// shared-model forwards for races.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/fl/server.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fedsz {
namespace {

class ParallelEval : public ::testing::TestWithParam<std::string> {};

nn::ModelConfig tiny(const std::string& arch) {
  nn::ModelConfig config;
  config.arch = arch;
  config.scale = nn::ModelScale::kTiny;
  config.seed = 7;
  return config;
}

/// A global state away from the initialization, so predictions spread over
/// the classes instead of collapsing onto one.
StateDict perturbed(const StateDict& state, std::uint64_t seed) {
  StateDict out = state;
  Rng rng(seed);
  for (const auto& [name, tensor] : state.entries()) {
    if (name.find("num_batches") != std::string::npos) continue;
    Tensor& t = out.get_mutable(name);
    for (std::size_t i = 0; i < t.numel(); ++i)
      t[i] += static_cast<float>(rng.normal(0.0, 0.05));
  }
  return out;
}

TEST_P(ParallelEval, PoolMatchesSerialBitForBit) {
  core::FlServer server(tiny(GetParam()));
  server.restore_global_state(perturbed(server.global_state(), 11));
  auto [train, test] = data::make_dataset("cifar10");
  ThreadPool pool(3);
  // None of the limits is a multiple of the 64-sample batch, and one batch
  // has fewer samples than the pool has workers.
  for (const std::size_t limit : {std::size_t{100}, std::size_t{2},
                                  std::size_t{130}}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    const double serial = server.evaluate(*test, limit);
    const double parallel = server.evaluate(*test, limit, &pool);
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << serial << " vs " << parallel;
    // Evaluating changes nothing: a second serial pass agrees as well.
    EXPECT_EQ(server.evaluate(*test, limit), serial);
  }
}

TEST_P(ParallelEval, ConcurrentForwardsMatchSerialLogits) {
  nn::BuiltModel built = nn::build_model(tiny(GetParam()));
  built.model.load_state_dict(perturbed(built.model.state_dict(), 13));
  constexpr int kThreads = 4;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(100 + t);
    Tensor x({5, 3, 32, 32});
    for (std::size_t i = 0; i < x.numel(); ++i)
      x[i] = static_cast<float>(rng.normal(0.0, 1.0));
    expected.push_back(built.model.forward(x, /*training=*/false));
    inputs.push_back(std::move(x));
  }
  std::vector<Tensor> got(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (int rep = 0; rep < 3; ++rep)
          got[t] = built.model.forward(inputs[t], /*training=*/false);
      });
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(got[t].same_shape(expected[t]));
    EXPECT_EQ(std::memcmp(got[t].data(), expected[t].data(),
                          got[t].numel() * sizeof(float)),
              0)
        << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, ParallelEval,
                         ::testing::Values("mobilenet_v2", "resnet",
                                           "alexnet"));

}  // namespace
}  // namespace fedsz
