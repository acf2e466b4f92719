// Reference runner for the streamed-world differentials: every shard
// materializes the FULL world and lets the prober's shard filter skip
// foreign targets, instead of building only its own slice from the target
// stream as core::run_sharded_experiment does.
#pragma once

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/spill.h"
#include "ditl/world.h"

namespace cd::testing {

/// Runs (spec, config) shard by shard on materialized worlds and merges the
/// parts with core::merge_results. With a non-empty `config.spill_dir`, each
/// part also round-trips through a spill file. Equal digests against
/// core::run_sharded_experiment prove streamed shard worlds invisible in the
/// evidence.
inline cd::core::ExperimentResults run_materialized(
    const cd::ditl::WorldSpec& spec, cd::core::ExperimentConfig config) {
  config.num_shards = std::max<std::size_t>(1, config.num_shards);
  std::vector<cd::core::ExperimentResults> parts;
  for (std::size_t shard = 0; shard < config.num_shards; ++shard) {
    const auto world = cd::ditl::generate_world(spec);
    config.shard_index = shard;
    cd::core::Experiment experiment(*world, config);
    cd::core::ExperimentResults part = experiment.run();
    if (!config.spill_dir.empty()) {
      std::filesystem::create_directories(config.spill_dir);
      const std::string path =
          (std::filesystem::path(config.spill_dir) /
           ("materialized_" + std::to_string(shard) + ".cdsp"))
              .string();
      cd::core::write_results(part, path);
      part = cd::core::read_results(path);
      std::filesystem::remove(path);
    }
    parts.push_back(std::move(part));
  }
  return cd::core::merge_results(std::move(parts));
}

}  // namespace cd::testing
