#include "workloads.hpp"

#include <sys/resource.h>

#include <mutex>
#include <stdexcept>
#include <thread>

#include "data/synthetic.hpp"
#include "trace.hpp"

namespace roundbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& table() {
  static const std::vector<Workload> workloads = {
      {.name = "train_flat",
       .arch = "mobilenet_v2",
       .scale = nn::ModelScale::kTiny,
       .spec = "fedsz:eb=rel:1e-2",
       .clients = 8,
       .samples_per_client = 64,
       .batch = 16,
       .evaluate_every_round = true,
       .eval_limit = 256,
       .rounds = 1},
      {.name = "codec_flat",
       .arch = "alexnet",
       .scale = nn::ModelScale::kBench,
       .spec = "fedsz:eb=rel:1e-2",
       .clients = 64,
       .samples_per_client = 2,
       .batch = 2,
       .evaluate_every_round = false,
       .eval_limit = 64,
       .rounds = 2},
      // hier:8 is the fan-in: 32 clients make 4 edges, one per core.
      {.name = "tcp_hier",
       .arch = "alexnet",
       .scale = nn::ModelScale::kBench,
       .spec = "fedsz:eb=rel:1e-2,topology=hier:8",
       .clients = 32,
       .samples_per_client = 2,
       .batch = 2,
       .evaluate_every_round = false,
       .eval_limit = 64,
       .rounds = 3,
       .tcp = true},
  };
  return workloads;
}

/// Process CPU time (user + system, every thread) in seconds.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

class FlatSession final : public Session {
 public:
  FlatSession(const Inputs& inputs, const Hooks& hooks)
      : coordinator_(inputs.model, inputs.train, inputs.test, inputs.config,
                     wrap(core::make_codec(inputs.spec), hooks)) {}

  RunOutput run() override {
    RunOutput out;
    const double cpu0 = process_cpu_seconds();
    const double t0 = clock_seconds();
    out.result = coordinator_.run();
    out.wall_seconds = clock_seconds() - t0;
    out.cpu_seconds = process_cpu_seconds() - cpu0;
    return out;
  }

 private:
  static core::UpdateCodecPtr wrap(core::UpdateCodecPtr codec,
                                   const Hooks& hooks) {
    return hooks.wrap_codec ? hooks.wrap_codec(std::move(codec)) : codec;
  }

  core::FlCoordinator coordinator_;
};

/// The edge-worker threads of one TCP session. Stopping (explicitly or in
/// the destructor) first closes the listener and every root-side stream, so
/// a worker still in connect() or blocked on a read returns, then joins
/// every thread: no path leaves a joinable thread behind.
class WorkerGroup {
 public:
  WorkerGroup() = default;
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;
  ~WorkerGroup() { stop(); }

  void start(net::TcpListener& listener, std::size_t edges,
             const std::function<net::StreamPtr(net::StreamPtr, bool,
                                                std::size_t)>& wrap) {
    listener_ = &listener;
    const std::uint16_t port = listener.port();
    errors_.resize(edges);
    for (std::size_t e = 0; e < edges; ++e)
      threads_.emplace_back([this, e, port, wrap] {
        try {
          net::StreamPtr stream = net::tcp_connect("127.0.0.1", port);
          if (wrap) stream = wrap(std::move(stream), false, e);
          core::run_edge_worker(std::move(stream));
        } catch (const std::exception& error) {
          record(e, error.what());
        } catch (...) {
          record(e, "unknown exception");
        }
      });
  }

  void accept_all(std::size_t edges,
                  const std::function<net::StreamPtr(net::StreamPtr, bool,
                                                     std::size_t)>& wrap) {
    for (std::size_t e = 0; e < edges; ++e) {
      net::StreamPtr stream = listener_->accept();
      if (wrap) stream = wrap(std::move(stream), true, e);
      root_ends_.push_back(std::move(stream));
    }
  }

  const std::vector<net::StreamPtr>& root_ends() const { return root_ends_; }

  /// Idempotent. Returns every worker's error message (empty when none).
  std::vector<std::string> stop() {
    for (const net::StreamPtr& stream : root_ends_) stream->close();
    if (listener_) listener_->close();
    for (std::jthread& thread : threads_)
      if (thread.joinable()) thread.join();
    std::vector<std::string> errors;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t e = 0; e < errors_.size(); ++e)
      if (!errors_[e].empty())
        errors.push_back("edge worker " + std::to_string(e) + ": " +
                         errors_[e]);
    return errors;
  }

 private:
  void record(std::size_t edge, const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    errors_[edge] = what;
  }

  std::mutex mutex_;
  std::vector<std::string> errors_;  // guarded by mutex_
  net::TcpListener* listener_ = nullptr;
  std::vector<net::StreamPtr> root_ends_;
  std::vector<std::jthread> threads_;  // last: joined before the rest dies
};

class TcpSession final : public Session {
 public:
  TcpSession(const Inputs& inputs, const Hooks& hooks)
      : root_(inputs.model, inputs.dataset, inputs.test, inputs.config,
              inputs.spec),
        listener_(0) {
    // The listener is bound (constructor above) before any worker starts,
    // so tcp_connect never meets a refusal and its retry sleep stays out
    // of the set-up time.
    const std::size_t edges = root_.edge_count();
    workers_.start(listener_, edges, hooks.wrap_stream);
    workers_.accept_all(edges, hooks.wrap_stream);
  }

  RunOutput run() override {
    RunOutput out;
    std::string root_error;
    const double cpu0 = process_cpu_seconds();
    const double t0 = clock_seconds();
    try {
      out.result = root_.run_with_streams(workers_.root_ends());
    } catch (const std::exception& error) {
      root_error = error.what();
    }
    out.wall_seconds = clock_seconds() - t0;
    out.cpu_seconds = process_cpu_seconds() - cpu0;
    std::vector<std::string> errors = workers_.stop();
    if (!root_error.empty()) errors.insert(errors.begin(), "root: " + root_error);
    if (!errors.empty()) {
      std::string message = "tcp_hier run failed";
      for (const std::string& e : errors) message += "; " + e;
      throw std::runtime_error(message);
    }
    return out;
  }

 private:
  core::FederatedRoot root_;
  net::TcpListener listener_;
  WorkerGroup workers_;  // declared last: stops before the listener dies
};

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : table())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : table()) names.push_back(w.name);
  return names;
}

Inputs make_inputs(const Workload& workload, std::uint64_t seed) {
  Inputs in;
  in.model.arch = workload.arch;
  in.model.scale = workload.scale;
  in.model.seed = seed;
  in.spec = core::parse_codec_spec(workload.spec);
  in.config.apply_comm_spec(in.spec);
  in.config.clients = workload.clients;
  in.config.rounds = workload.rounds;
  in.config.seed = seed;
  in.config.client.batch_size = workload.batch;
  in.config.eval_limit = workload.eval_limit;
  in.config.threads = kThreads;
  in.config.evaluate_every_round = workload.evaluate_every_round;
  in.dataset.name = "cifar10";
  in.dataset.seed = seed;
  in.dataset.take = workload.clients * workload.samples_per_client;
  auto [train, test] = data::make_dataset(in.dataset.name, in.dataset.seed);
  in.train = data::take(train, in.dataset.take);
  in.test = test;
  return in;
}

std::unique_ptr<Session> setup(const Workload& workload, const Inputs& inputs,
                               const Hooks& hooks) {
  if (workload.tcp) return std::make_unique<TcpSession>(inputs, hooks);
  return std::make_unique<FlatSession>(inputs, hooks);
}

core::FlRunResult run_in_process(const Workload&, const Inputs& inputs) {
  core::FlCoordinator coordinator(inputs.model, inputs.train, inputs.test,
                                  inputs.config, core::make_codec(inputs.spec));
  return coordinator.run();
}

}  // namespace roundbench
