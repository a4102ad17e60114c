#include "core/fl/population.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/common.hpp"
#include "util/decimal.hpp"

namespace fedsz::core {

namespace {

constexpr double kPi = 3.14159265358979323846;
// Same physical clamp as net::HeterogeneousNetwork applies to its draws.
constexpr double kMinDrawMbps = 0.05;
constexpr double kMaxDrawMbps = 1e6;
constexpr double kDefaultPeriodSeconds = 86400.0;
constexpr double kDefaultPhaseJitter = 0.25;

double clamp_mbps(double mbps) {
  return std::min(kMaxDrawMbps, std::max(kMinDrawMbps, mbps));
}

[[noreturn]] void bad_population(const std::string& why) {
  throw InvalidArgument("population spec: " + why);
}

double parse_double(const std::string& text, const std::string& key) {
  if (text.empty()) bad_population("empty value for '" + key + "'");
  const std::optional<double> value = parse_decimal(text);
  if (!value) bad_population("invalid number '" + text + "' for '" + key + "'");
  return *value;
}

std::uint64_t parse_seed(const std::string& text) {
  if (text.empty()) bad_population("empty value for 'seed'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  // strtoull wraps a leading '-' and skips '+' and spaces; a seed is bare
  // digits.
  if (text.find_first_not_of("0123456789") != std::string::npos ||
      errno != 0 || end != text.c_str() + text.size())
    bad_population("invalid seed '" + text + "'");
  return static_cast<std::uint64_t>(value);
}

bool known_preset(const std::string& preset) {
  return preset == "mixed" || preset == "mobile" || preset == "iot_fleet" ||
         preset == "uniform" || preset == "custom";
}

std::vector<DeviceClassShare> parse_mix(const std::string& text) {
  std::vector<DeviceClassShare> mix;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t plus = text.find('+', start);
    const std::string part = text.substr(
        start, plus == std::string::npos ? std::string::npos : plus - start);
    const std::size_t star = part.find('*');
    if (part.empty() || star == std::string::npos || star == 0 ||
        star + 1 == part.size())
      bad_population("mix entries must look like CLASS*WEIGHT, got '" + part +
                     "'");
    DeviceClassShare share;
    share.name = part.substr(0, star);
    share.weight = parse_double(part.substr(star + 1), "mix");
    for (const DeviceClassShare& seen : mix)
      if (seen.name == share.name)
        bad_population("duplicate class '" + share.name + "' in mix");
    mix.push_back(std::move(share));
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  return mix;
}

std::string format_mix(const std::vector<DeviceClassShare>& mix) {
  std::string out;
  for (const DeviceClassShare& share : mix) {
    if (!out.empty()) out += '+';
    out += share.name + "*" + format_decimal(share.weight);
  }
  return out;
}

}  // namespace

const std::vector<DeviceClass>& device_class_table() {
  // Correlated on purpose: slower compute rides with slower links and
  // smaller local datasets (an LTE phone is weak on every axis; a laptop is
  // the laptop baseline the paper's homogeneous runs approximate). The iot
  // row is always-on but tiny and slow — the profile that makes compression
  // policy choices visible.
  static const std::vector<DeviceClass> kTable = {
      //            name      compute  bw_med  sigma  latency  data  avail  amp
      DeviceClass{"phone_lte", 2.5, 12.0, 0.5, 0.05, 0.35, 0.55, 0.35},
      DeviceClass{"phone_wifi", 2.0, 40.0, 0.4, 0.02, 0.5, 0.65, 0.30},
      DeviceClass{"laptop", 1.0, 100.0, 0.3, 0.005, 1.0, 0.8, 0.15},
      DeviceClass{"iot", 6.0, 2.0, 0.6, 0.1, 0.15, 0.9, 0.05},
  };
  return kTable;
}

const DeviceClass* find_device_class(const std::string& name) {
  for (const DeviceClass& device : device_class_table())
    if (device.name == name) return &device;
  return nullptr;
}

std::string availability_mode_name(AvailabilityMode mode) {
  switch (mode) {
    case AvailabilityMode::kDiurnal:
      return "diurnal";
    case AvailabilityMode::kFlat:
      return "flat";
    case AvailabilityMode::kAlways:
      return "always";
  }
  throw InvalidArgument("availability_mode_name: unknown mode");
}

void PopulationConfig::validate() const {
  if (preset.empty()) {
    if (!mix.empty())
      bad_population("class mix given without a preset");
    return;
  }
  if (!known_preset(preset))
    bad_population("unknown preset '" + preset +
                   "' (expected mixed, mobile, iot_fleet, uniform or custom)");
  if (preset == "custom") {
    if (mix.empty()) bad_population("preset 'custom' needs a non-empty mix=");
  } else if (!mix.empty()) {
    bad_population("mix= is only valid with preset 'custom'");
  }
  double total_weight = 0.0;
  for (const DeviceClassShare& share : mix) {
    if (!find_device_class(share.name))
      bad_population("unknown device class '" + share.name + "'");
    if (!std::isfinite(share.weight) || !(share.weight > 0.0))
      bad_population("class weight for '" + share.name + "' must be > 0");
    total_weight += share.weight;
  }
  if (preset == "custom" && !(total_weight > 0.0))
    bad_population("class mix has zero total weight");
  if (!std::isfinite(flat_availability) || !(flat_availability > 0.0) ||
      flat_availability > 1.0)
    bad_population("flat availability must be in (0, 1]");
  if (!std::isfinite(period_seconds) || !(period_seconds > 0.0))
    bad_population("period must be > 0 seconds");
  if (!std::isfinite(phase_jitter) || phase_jitter < 0.0 || phase_jitter > 1.0)
    bad_population("jitter must be in [0, 1]");
  if (!std::isfinite(dropout_rate) || dropout_rate < 0.0 ||
      dropout_rate >= 1.0)
    bad_population("drop must be in [0, 1)");
}

PopulationConfig parse_population_spec(const std::string& text) {
  PopulationConfig config;
  if (text.empty()) return config;
  const std::size_t colon = text.find(':');
  config.preset = text.substr(0, colon);
  if (colon != std::string::npos) {
    const std::string options = text.substr(colon + 1);
    std::size_t start = 0;
    while (start <= options.size()) {
      const std::size_t semi = options.find(';', start);
      const std::string option = options.substr(
          start, semi == std::string::npos ? std::string::npos : semi - start);
      const std::size_t eq = option.find('=');
      if (option.empty() || eq == std::string::npos)
        bad_population("options must look like key=value, got '" + option +
                       "'");
      const std::string key = option.substr(0, eq);
      const std::string value = option.substr(eq + 1);
      if (key == "mix") {
        config.mix = parse_mix(value);
      } else if (key == "avail") {
        // A later avail= replaces an earlier one outright, so the config
        // equals the one its canonical form parses to.
        config.flat_availability = PopulationConfig{}.flat_availability;
        if (value == "diurnal") {
          config.availability = AvailabilityMode::kDiurnal;
        } else if (value == "always") {
          config.availability = AvailabilityMode::kAlways;
        } else if (value.rfind("flat:", 0) == 0) {
          config.availability = AvailabilityMode::kFlat;
          config.flat_availability = parse_double(value.substr(5), "avail");
        } else {
          bad_population("avail must be diurnal, always or flat:P, got '" +
                         value + "'");
        }
      } else if (key == "period") {
        config.period_seconds = parse_double(value, "period");
      } else if (key == "jitter") {
        config.phase_jitter = parse_double(value, "jitter");
      } else if (key == "drop") {
        config.dropout_rate = parse_double(value, "drop");
        // drop=-0 is the omitted default, +0.
        if (config.dropout_rate == 0.0) config.dropout_rate = 0.0;
      } else if (key == "seed") {
        config.seed = parse_seed(value);
      } else {
        bad_population("unknown option '" + key +
                       "' (expected mix, avail, period, jitter, drop or "
                       "seed)");
      }
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  }
  config.validate();
  return config;
}

std::string format_population_spec(const PopulationConfig& config) {
  if (config.empty()) return "";
  config.validate();
  std::vector<std::string> options;
  if (!config.mix.empty()) options.push_back("mix=" + format_mix(config.mix));
  if (config.availability == AvailabilityMode::kFlat)
    options.push_back("avail=flat:" + format_decimal(config.flat_availability));
  else if (config.availability == AvailabilityMode::kAlways)
    options.push_back("avail=always");
  if (config.period_seconds != kDefaultPeriodSeconds)
    options.push_back("period=" + format_decimal(config.period_seconds));
  if (config.phase_jitter != kDefaultPhaseJitter)
    options.push_back("jitter=" + format_decimal(config.phase_jitter));
  if (config.dropout_rate > 0.0)
    options.push_back("drop=" + format_decimal(config.dropout_rate));
  if (config.seed != 0) options.push_back("seed=" + std::to_string(config.seed));
  std::string out = config.preset;
  for (std::size_t i = 0; i < options.size(); ++i)
    out += (i == 0 ? ":" : ";") + options[i];
  return out;
}

std::vector<DeviceClassShare> resolve_population_mix(
    const PopulationConfig& config) {
  config.validate();
  if (config.preset == "custom") return config.mix;
  if (config.preset == "mixed")
    return {{"phone_lte", 0.35}, {"phone_wifi", 0.3}, {"laptop", 0.2},
            {"iot", 0.15}};
  if (config.preset == "mobile")
    return {{"phone_lte", 0.55}, {"phone_wifi", 0.45}};
  if (config.preset == "iot_fleet") return {{"iot", 0.8}, {"phone_lte", 0.2}};
  if (config.preset == "uniform")
    return {{"phone_lte", 0.25}, {"phone_wifi", 0.25}, {"laptop", 0.25},
            {"iot", 0.25}};
  bad_population("unknown preset '" + config.preset + "'");
}

ClientPopulation::ClientPopulation(const PopulationConfig& config,
                                   std::size_t clients, std::uint64_t run_seed)
    : config_(config) {
  config_.validate();
  if (config_.empty())
    throw InvalidArgument("ClientPopulation: config must name a preset");
  if (clients == 0)
    throw InvalidArgument("ClientPopulation: need at least one client");

  const std::vector<DeviceClassShare> mix = resolve_population_mix(config_);
  double total_weight = 0.0;
  for (const DeviceClassShare& share : mix) total_weight += share.weight;

  // One dedicated stream, consumed in client-index order: class draw, phase
  // draw, bandwidth draw per client. Everything downstream (links, compute,
  // shard truncation) derives from these values, never from more RNG.
  Rng rng(config_.seed ? config_.seed : run_seed ^ 0xDEC1A55Eull);
  class_index_.reserve(clients);
  phase_.reserve(clients);
  link_profiles_.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    const double pick = rng.uniform() * total_weight;
    double cumulative = 0.0;
    std::size_t chosen = mix.size() - 1;
    for (std::size_t k = 0; k < mix.size(); ++k) {
      cumulative += mix[k].weight;
      if (pick < cumulative) {
        chosen = k;
        break;
      }
    }
    const DeviceClass* device = find_device_class(mix[chosen].name);
    std::size_t table_index = 0;
    for (std::size_t k = 0; k < device_class_table().size(); ++k)
      if (&device_class_table()[k] == device) table_index = k;
    class_index_.push_back(table_index);
    phase_.push_back(rng.uniform() * config_.phase_jitter);
    const double bandwidth =
        clamp_mbps(device->bandwidth_median_mbps *
                   std::exp(device->bandwidth_log_sigma * rng.normal()));
    link_profiles_.push_back(net::NetworkProfile{bandwidth, device->latency_s});
  }
}

const DeviceClass& ClientPopulation::device_class(std::size_t client) const {
  if (client >= class_index_.size())
    throw InvalidArgument("ClientPopulation: client index out of range");
  return device_class_table()[class_index_[client]];
}

const std::string& ClientPopulation::class_name(std::size_t client) const {
  return device_class(client).name;
}

double ClientPopulation::compute_multiplier(std::size_t client) const {
  return device_class(client).compute_multiplier;
}

double ClientPopulation::data_weight(std::size_t client) const {
  return device_class(client).data_weight;
}

double ClientPopulation::availability(std::size_t client,
                                      double virtual_seconds) const {
  const DeviceClass& device = device_class(client);
  switch (config_.availability) {
    case AvailabilityMode::kAlways:
      return 1.0;
    case AvailabilityMode::kFlat:
      return config_.flat_availability;
    case AvailabilityMode::kDiurnal: {
      const double phase =
          virtual_seconds / config_.period_seconds + phase_[client];
      const double p = device.availability_mean +
                       device.diurnal_amplitude * std::sin(2.0 * kPi * phase);
      return std::min(1.0, std::max(0.0, p));
    }
  }
  throw InvalidArgument("ClientPopulation: unknown availability mode");
}

}  // namespace fedsz::core
