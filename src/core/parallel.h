// Sharded parallel campaign runner.
//
// The target list is partitioned into `config.num_shards` shards by
// destination AS (shard_of in scanner/prober.h), and each shard runs a
// complete, independently generated slice of the world — streamed from the
// campaign plan (ditl::generate_world(spec, shard, num_shards)) with its own
// event loop, prober, collector and follow-up engine — on a small
// std::thread pool. No shared mutable state, no locks on the hot path.
//
// Determinism contract: for a fixed spec and config, the merged results
// are identical for ANY (num_shards, num_threads) combination — shards
// merge in shard order, and every random decision a shard makes is derived
// from stable identities (shard index, target address, packet content),
// never from thread or arrival order. `results_digest` captures exactly
// the shard-count-invariant portion of the results; see its comment for
// what is excluded and why.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "ditl/world_spec.h"

namespace cd::core {

/// Wall-clock accounting for one shard, split by phase.
struct ShardTiming {
  std::size_t shard = 0;
  std::size_t targets = 0;   // targets assigned to this shard
  double gen_ms = 0.0;       // world generation
  double run_ms = 0.0;       // campaign (schedule + event loop drain)
  double spill_ms = 0.0;     // serialize + write of the shard spill (if any)
  /// Process-wide peak RSS (VmHWM, util/rss.h) sampled as the shard
  /// finished. The watermark is monotonic over the process lifetime, so
  /// per-shard values record when memory peaked, not independent footprints.
  std::size_t peak_rss_kb = 0;
};

struct ShardedResults {
  ExperimentResults merged;
  std::vector<ShardTiming> shards;  // indexed by shard
  double wall_ms = 0.0;             // end-to-end, including merge
  double merge_ms = 0.0;            // merge phase (spill read-back included)
  /// Process-wide peak RSS (VmHWM) after the merge — the campaign's
  /// high-water memory mark, the number the campaign-scale bench budgets.
  std::size_t peak_rss_kb = 0;
  /// Sum of per-shard gen+run+spill time: what a 1-thread execution of the
  /// same sharding costs, so aggregate/wall estimates the parallel speedup
  /// even on machines where the pool cannot actually run concurrently.
  [[nodiscard]] double aggregate_ms() const;
};

/// Runs the campaign described by (spec, config) across
/// `config.num_shards` shards on `config.num_threads` worker threads and
/// merges the per-shard results in shard order. `config.shard_index` is
/// ignored (the runner sets it per shard). Fails fast: after the first
/// shard error no worker starts another shard, and once the pool joins the
/// error is rethrown on the calling thread with the failing shard named in
/// its message (library error types are kept, so a spill that fails to
/// read back is still a ParseError). Spill files are removed on every exit
/// path, success or failure.
[[nodiscard]] ShardedResults run_sharded_experiment(
    const cd::ditl::WorldSpec& spec, const ExperimentConfig& config);

/// FNV-1a digest of the shard-count-invariant evidence: every field that
/// the field list in core/schema.cpp tags as evidence, records in target
/// order, each value widened to u64. That list is the one place that states
/// which fields are evidence and which are traffic volume (what shared
/// public-resolver cache warmness, and so the shard layout, legitimately
/// perturbs), and why.
[[nodiscard]] std::uint64_t results_digest(const ExperimentResults& results);

/// Digest of a capture's full serialized form (pcap bytes then sidecar
/// index bytes). Because Experiment/merge_results canonicalize record
/// order, a probe-plane capture's digest is invariant across
/// (num_shards, num_threads) — the wire-level analogue of results_digest,
/// checked by tests/test_core_parallel.cpp and regenerable externally from
/// the exported files themselves.
[[nodiscard]] std::uint64_t capture_digest(const cd::pcap::Capture& capture);

}  // namespace cd::core
