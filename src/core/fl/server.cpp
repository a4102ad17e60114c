#include "core/fl/server.hpp"

#include <cstring>

#include "data/dataloader.hpp"
#include "nn/metrics.hpp"

namespace fedsz::core {

FlServer::FlServer(const nn::ModelConfig& model_config)
    : model_(nn::build_model(model_config).model),
      global_state_(model_.state_dict()),
      aggregator_(make_fedavg()) {}

void FlServer::set_aggregator(AggregatorPtr aggregator) {
  if (!aggregator) throw InvalidArgument("FlServer: null aggregator");
  aggregator_ = std::move(aggregator);
}

void FlServer::restore_global_state(StateDict state) {
  if (aggregator_->round_open())
    throw InvalidArgument("FlServer: restore_global_state mid-round");
  model_.load_state_dict(state);  // validates structure before we commit
  global_state_ = std::move(state);
}

void FlServer::begin_round() { aggregator_->begin_round(global_state_); }

void FlServer::accumulate(const StateDict& update, double weight) {
  aggregator_->accumulate(update, weight);
}

void FlServer::merge_partial(const StateDict& mean, double weight) {
  aggregator_->merge_partial(mean, weight);
}

void FlServer::finalize_round() {
  aggregator_->finalize(global_state_);
  model_.load_state_dict(global_state_);
}

void FlServer::aggregate(
    const std::vector<std::pair<StateDict, std::size_t>>& updates) {
  aggregator_->aggregate(global_state_, updates);
  model_.load_state_dict(global_state_);
}

double FlServer::evaluate(const data::Dataset& test_set, std::size_t limit,
                          ThreadPool* pool, std::size_t batch_size) {
  const std::size_t count =
      limit == 0 ? test_set.size() : std::min(limit, test_set.size());
  if (count == 0) return 0.0;
  // Every writer of global_state_ also loads it into model_, so the model
  // already holds the global state here.
  const Shape img = test_set.image_shape();
  const std::size_t sample_numel = shape_numel(img);
  // Correct predictions among samples [first, first + take).
  auto correct_in = [&](std::size_t first, std::size_t take) {
    Tensor images({static_cast<std::int64_t>(take), img[0], img[1], img[2]});
    std::vector<int> labels(take);
    for (std::size_t i = 0; i < take; ++i) {
      const data::Sample sample = test_set.get(first + i);
      std::memcpy(images.data() + i * sample_numel, sample.image.data(),
                  sample_numel * sizeof(float));
      labels[i] = sample.label;
    }
    const Tensor logits = model_.forward(images, /*training=*/false);
    return nn::top1_correct(logits, {labels.data(), labels.size()});
  };
  std::size_t done = 0;
  double correct_weighted = 0.0;
  while (done < count) {
    const std::size_t take = std::min(batch_size, count - done);
    const std::size_t parts = pool ? std::min(pool->size(), take) : 1;
    std::size_t correct = 0;
    if (parts <= 1) {
      correct = correct_in(done, take);
    } else {
      const std::size_t per_part = (take + parts - 1) / parts;
      std::vector<std::size_t> counts(parts, 0);
      pool->parallel_for(parts, [&](std::size_t p) {
        const std::size_t first = p * per_part;
        if (first < take)
          counts[p] =
              correct_in(done + first, std::min(per_part, take - first));
      });
      for (const std::size_t c : counts) correct += c;
    }
    correct_weighted += static_cast<double>(correct) /
                        static_cast<double>(take) * static_cast<double>(take);
    done += take;
  }
  return correct_weighted / static_cast<double>(count);
}

}  // namespace fedsz::core
