// FL server: holds the global model, performs aggregation through a
// pluggable Aggregator (default: FedAvg, McMahan et al. 2017) and evaluates
// global accuracy on held-out data. The event-driven coordinator uses the
// streaming begin_round / accumulate / finalize_round path so each decoded
// update is folded on arrival and freed immediately; the batch aggregate()
// remains for synchronous callers.
#pragma once

#include "core/fl/aggregator.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "util/thread_pool.hpp"

namespace fedsz::core {

class FlServer {
 public:
  explicit FlServer(const nn::ModelConfig& model_config);

  const StateDict& global_state() const { return global_state_; }

  /// Replace the aggregation rule (default: FedAvg, the paper's setting).
  void set_aggregator(AggregatorPtr aggregator);

  /// The active aggregation rule (checkpoint save/load goes through it).
  Aggregator& aggregator() { return *aggregator_; }
  const Aggregator& aggregator() const { return *aggregator_; }

  /// Overwrite the global model from a checkpoint. The restored state must
  /// match the configured model's structure (load_state_dict validates);
  /// only legal between rounds.
  void restore_global_state(StateDict state);

  // ---- streaming round (updates folded as they arrive) ----
  void begin_round();
  /// Fold one decoded update with aggregation weight `weight` (sample
  /// count, optionally staleness-scaled). The update is not retained.
  void accumulate(const StateDict& update, double weight);
  /// Hierarchical root path: fold one edge's decoded partial mean carrying
  /// total aggregation weight `weight` (Aggregator::merge_partial).
  void merge_partial(const StateDict& mean, double weight);
  /// Apply the accumulated mean to the global model and close the round.
  void finalize_round();
  /// Abandon the open round, leaving the global model untouched — how the
  /// coordinator closes a round that lost every participant to churn.
  void abort_round() { aggregator_->abort_round(); }
  bool round_open() const { return aggregator_->round_open(); }

  /// Fold a round of updates into the global state via the configured
  /// aggregation rule. Updates must share the global state's structure.
  void aggregate(const std::vector<std::pair<StateDict, std::size_t>>& updates);

  /// Top-1 accuracy of the global model on (up to `limit` samples of) a
  /// dataset; limit 0 = all. With a `pool`, each batch's samples are split
  /// over its workers, all running eval forwards on the one model (those are
  /// state-free); at most `batch_size` samples are in flight, and the
  /// per-batch correct counts combine in batch order, so the result is
  /// bit-identical to the serial run.
  double evaluate(const data::Dataset& test_set, std::size_t limit = 0,
                  ThreadPool* pool = nullptr, std::size_t batch_size = 64);

 private:
  nn::Model model_;
  StateDict global_state_;
  AggregatorPtr aggregator_;
};

}  // namespace fedsz::core
