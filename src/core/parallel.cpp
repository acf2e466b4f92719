#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <optional>
#include <thread>

#include "core/spill.h"
#include "ditl/world.h"
#include "util/error.h"
#include "util/rss.h"

namespace cd::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct ShardOutcome {
  std::optional<ExperimentResults> results;
  std::string spill_path;  // non-empty: results live on disk, not in memory
  ShardTiming timing;
  std::exception_ptr error;
};

ShardOutcome run_one_shard(const cd::ditl::WorldSpec& spec,
                           ExperimentConfig config, std::size_t shard) {
  ShardOutcome out;
  out.timing.shard = shard;
  try {
    const auto gen_start = Clock::now();
    // Build only this shard's slice of the world from the target stream:
    // O(shard) memory, and the target list is exactly the shard's slice.
    auto world = cd::ditl::generate_world(spec, shard, config.num_shards);
    out.timing.gen_ms = ms_since(gen_start);
    out.timing.targets = world->targets.size();

    config.shard_index = shard;
    const auto run_start = Clock::now();
    Experiment experiment(*world, config);
    out.results = experiment.run();
    out.timing.run_ms = ms_since(run_start);

    if (!config.spill_dir.empty()) {
      const auto spill_start = Clock::now();
      // Recorded before writing, so a partial file from a failed write is
      // still cleaned up.
      out.spill_path = (std::filesystem::path(config.spill_dir) /
                        ("shard_" + std::to_string(shard) + ".cdsp"))
                           .string();
      write_results(*out.results, out.spill_path);
      out.results.reset();  // the whole point: free the shard's memory now
      out.timing.spill_ms = ms_since(spill_start);
    }
    out.timing.peak_rss_kb = cd::peak_rss_kb();
  } catch (...) {
    out.error = std::current_exception();
  }
  return out;
}

/// Deletes a shard's spill file if it is still on disk. Only regular files
/// are removed: whatever else sits at the path is not the runner's.
void remove_spill(ShardOutcome& out) {
  if (out.spill_path.empty()) return;
  std::error_code ec;
  if (std::filesystem::is_regular_file(out.spill_path, ec)) {
    std::filesystem::remove(out.spill_path, ec);
  }
  out.spill_path.clear();
}

/// Rethrows the in-flight exception with the failing shard named in its
/// message. Library error types are kept (a corrupted spill still surfaces
/// as a ParseError); anything else becomes a cd::Error.
[[noreturn]] void rethrow_naming_shard(std::size_t shard) {
  const std::string where =
      "run_sharded_experiment: shard " + std::to_string(shard) + ": ";
  try {
    throw;
  } catch (const cd::ParseError& e) {
    throw cd::ParseError(where + e.what());
  } catch (const cd::InvariantError& e) {
    throw cd::InvariantError(where + e.what());
  } catch (const std::exception& e) {
    throw cd::Error(where + e.what());
  }
}

}  // namespace

double ShardedResults::aggregate_ms() const {
  double total = 0.0;
  for (const ShardTiming& t : shards) total += t.gen_ms + t.run_ms + t.spill_ms;
  return total;
}

ShardedResults run_sharded_experiment(const cd::ditl::WorldSpec& spec,
                                      const ExperimentConfig& config) {
  const std::size_t n_shards = std::max<std::size_t>(1, config.num_shards);
  const std::size_t n_threads =
      std::min(std::max<std::size_t>(1, config.num_threads), n_shards);

  ExperimentConfig shard_config = config;
  shard_config.num_shards = n_shards;
  if (!shard_config.spill_dir.empty()) {
    std::filesystem::create_directories(shard_config.spill_dir);
  }

  const auto wall_start = Clock::now();
  std::vector<ShardOutcome> outcomes(n_shards);

  // Work pickup by atomic counter: workers claim the next unstarted shard,
  // so an uneven shard mix still balances across the pool. After the first
  // failure nobody claims another shard — the campaign is lost anyway.
  std::atomic<std::size_t> next_shard{0};
  std::atomic<bool> failed{false};
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t shard =
          next_shard.fetch_add(1, std::memory_order_relaxed);
      if (shard >= n_shards) return;
      outcomes[shard] = run_one_shard(spec, shard_config, shard);
      if (outcomes[shard].error) failed.store(true, std::memory_order_relaxed);
    }
  };
  if (n_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (std::size_t i = 0; i < n_threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  ShardedResults sharded;
  const auto merge_start = Clock::now();
  try {
    for (std::size_t shard = 0; shard < n_shards; ++shard) {
      if (!outcomes[shard].error) continue;
      try {
        std::rethrow_exception(outcomes[shard].error);
      } catch (...) {
        rethrow_naming_shard(shard);
      }
    }
    // Incremental fold in shard order: spilled shards are read back one at
    // a time, so the merge phase holds the accumulator plus one part — never
    // all parts — and produces bytes identical to the all-in-memory
    // merge_results (merge_into appends raw; one canonicalize pass at the
    // end).
    for (std::size_t shard = 0; shard < n_shards; ++shard) {
      ShardOutcome& out = outcomes[shard];
      ExperimentResults part;
      if (!out.spill_path.empty()) {
        try {
          part = read_results(out.spill_path);
        } catch (...) {
          rethrow_naming_shard(shard);
        }
        remove_spill(out);
      } else {
        CD_ENSURE(out.results.has_value(),
                  "run_sharded_experiment: missing shard");
        part = std::move(*out.results);
      }
      merge_into(sharded.merged, std::move(part), /*first=*/shard == 0);
      sharded.shards.push_back(out.timing);
    }
  } catch (...) {
    // No exit path leaves a spill behind: the merge removes each file as it
    // reads it back, and a failure removes the rest.
    for (ShardOutcome& out : outcomes) remove_spill(out);
    throw;
  }
  cd::pcap::canonicalize(sharded.merged.capture);
  sharded.merge_ms = ms_since(merge_start);
  sharded.peak_rss_kb = cd::peak_rss_kb();
  sharded.wall_ms = ms_since(wall_start);
  return sharded;
}

}  // namespace cd::core
