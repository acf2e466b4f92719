// Shared scaffolding for the reproduction benches: world/experiment setup,
// paper-vs-measured row helpers, CSV output.
#pragma once

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "analysis/classify.h"
#include "core/experiment.h"
#include "core/parallel.h"
#include "ditl/world.h"
#include "util/str.h"
#include "util/table.h"

namespace cd::bench {

/// Command-line knobs shared by the table/figure benches.
struct RunOptions {
  double scale = 1.0;  // multiplies the AS count
  bool wildcard_answers = false;
  std::uint64_t seed = 42;
  std::size_t shards = 1;   // AS-partitioned campaign shards
  std::size_t threads = 1;  // worker threads for the sharded runner
  /// When set, the campaign records its wire traffic (results->capture).
  std::optional<cd::core::CaptureSpec> capture;
};

/// Strict flag values: the whole value must parse, or the bench exits 2
/// naming the flag — a typo never falls back to a default silently.
[[noreturn]] inline void bad_flag_value(const char* flag, const char* value) {
  std::fprintf(stderr, "error: malformed value '%s' for %s\n", value, flag);
  std::exit(2);
}

/// Unsigned decimal value given for `flag` (e.g. "--threads"), at most `max`.
inline std::uint64_t flag_u64(
    const char* flag, const char* value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::optional<std::uint64_t> v = cd::parse_u64(value);
  if (!v || *v > max) bad_flag_value(flag, value);
  return *v;
}

/// Finite decimal value given for `flag` (e.g. "--scale").
inline double flag_double(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    bad_flag_value(flag, value);
  }
  return v;
}

/// A well-formed value outside the flag's range: exits 2 naming the flag.
[[noreturn]] inline void flag_out_of_range(const char* flag, const char* value,
                                           const char* bound) {
  std::fprintf(stderr, "error: value '%s' for %s must be %s\n", value, flag,
               bound);
  std::exit(2);
}

/// An argument no parser of the bench claims: exits 2 naming it.
[[noreturn]] inline void unknown_flag(const char* arg) {
  std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
  std::exit(2);
}

/// Parses --scale=X --seed=N --threads=N --shards=N --wildcard; malformed
/// values, --scale <= 0 and any other argument exit 2. `extra` names the
/// calling bench's own flags, which it parses itself: an entry ending in
/// '=' matches any value ("--out="), others match exactly ("--no-drops").
/// --threads alone implies one shard per thread.
inline RunOptions parse_run_options(
    int argc, char** argv, std::initializer_list<const char*> extra = {}) {
  RunOptions opt;
  bool shards_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      opt.scale = flag_double("--scale", arg + 8);
      if (opt.scale <= 0) flag_out_of_range("--scale", arg + 8, "> 0");
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = flag_u64("--seed", arg + 7);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opt.threads = flag_u64("--threads", arg + 10);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      opt.shards = flag_u64("--shards", arg + 9);
      shards_given = true;
    } else if (std::strcmp(arg, "--wildcard") == 0) {
      opt.wildcard_answers = true;
    } else {
      bool claimed = false;
      for (const char* name : extra) {
        const std::size_t n = std::strlen(name);
        claimed = claimed || (n > 0 && name[n - 1] == '='
                                  ? std::strncmp(arg, name, n) == 0
                                  : std::strcmp(arg, name) == 0);
      }
      if (!claimed) unknown_flag(arg);
    }
  }
  if (opt.threads == 0) opt.threads = 1;
  if (!shards_given) opt.shards = opt.threads;
  if (opt.shards == 0) opt.shards = 1;
  return opt;
}

/// A generated world plus completed experiment results. In sharded mode
/// (`options.threads > 1` or `options.shards > 1`) the campaign runs via
/// core::run_sharded_experiment; `world` is then the reference world —
/// identical to every shard's, used for target lists, geo and ground truth —
/// and `experiment` is null.
struct Run {
  std::unique_ptr<cd::ditl::World> world;
  std::unique_ptr<cd::core::Experiment> experiment;
  const cd::core::ExperimentResults* results = nullptr;
  cd::core::ExperimentResults merged;  // storage for the sharded path
};

inline Run run_standard_experiment(const RunOptions& options) {
  using clock = std::chrono::steady_clock;

  cd::ditl::WorldSpec spec = cd::ditl::bench_world_spec();
  spec.n_asns = static_cast<int>(spec.n_asns * options.scale);
  spec.wildcard_answers = options.wildcard_answers;
  spec.seed = options.seed;

  cd::core::ExperimentConfig config;
  config.analyst = cd::scanner::AnalystConfig{};
  config.capture = options.capture;

  const auto t0 = clock::now();
  Run run;
  run.world = cd::ditl::generate_world(spec);
  const auto t1 = clock::now();

  const auto ms = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
  };

  const bool sharded = options.threads > 1 || options.shards > 1;
  long long campaign_ms = 0;
  if (sharded) {
    config.num_shards = options.shards;
    config.num_threads = options.threads;
    cd::core::ShardedResults out = cd::core::run_sharded_experiment(spec, config);
    campaign_ms = static_cast<long long>(out.wall_ms);
    std::printf("# shards: %zu on %zu threads\n", options.shards,
                options.threads);
    for (const cd::core::ShardTiming& s : out.shards) {
      std::printf("#   shard %zu: %zu targets, gen %.0fms, run %.0fms",
                  s.shard, s.targets, s.gen_ms, s.run_ms);
      if (s.spill_ms > 0) std::printf(", spill %.0fms", s.spill_ms);
      std::printf(", peak RSS %zu KiB\n", s.peak_rss_kb);
    }
    std::printf("# wall %.0fms, merge %.0fms, aggregate shard time %.0fms "
                "(parallel speedup est. %.2fx), peak RSS %zu KiB\n",
                out.wall_ms, out.merge_ms, out.aggregate_ms(),
                out.wall_ms > 0 ? out.aggregate_ms() / out.wall_ms : 0.0,
                out.peak_rss_kb);
    run.merged = std::move(out.merged);
    run.results = &run.merged;
  } else {
    run.experiment = std::make_unique<cd::core::Experiment>(*run.world, config);
    run.results = &run.experiment->run();
    campaign_ms = ms(t1, clock::now());
  }

  std::printf(
      "# world: %zu ASes, %zu resolvers, %zu targets (gen %lldms)\n"
      "# campaign: %llu probes, %llu auth log entries (run %lldms), "
      "digest %016llx\n\n",
      run.world->topology.as_count(), run.world->resolvers.size(),
      run.world->targets.size(), static_cast<long long>(ms(t0, t1)),
      static_cast<unsigned long long>(run.results->queries_sent),
      static_cast<unsigned long long>(run.results->collector_stats.entries_seen),
      campaign_ms,
      static_cast<unsigned long long>(cd::core::results_digest(*run.results)));
  return run;
}

/// Legacy entry point used by benches without campaign-shaping flags.
inline Run run_standard_experiment(double scale = 1.0,
                                   bool wildcard_answers = false,
                                   std::uint64_t seed = 42) {
  RunOptions options;
  options.scale = scale;
  options.wildcard_answers = wildcard_answers;
  options.seed = seed;
  return run_standard_experiment(options);
}

/// "measured (paper: X)" cell helper.
inline std::string vs_paper(const std::string& measured,
                            const std::string& paper) {
  return measured + "  (paper: " + paper + ")";
}

inline std::string count_pct(std::uint64_t part, std::uint64_t whole,
                             int digits = 1) {
  return cd::with_commas(part) + " (" +
         cd::percent(static_cast<double>(part), static_cast<double>(whole),
                     digits) +
         ")";
}

}  // namespace cd::bench
