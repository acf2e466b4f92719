// Campaign benchmark binary: one campaign per process, driven by run.py.
//
// Untraced mode (--trace 0) measures what a user of the library pays: the
// set-up (ditl::build_campaign_plan), then core::run_sharded_experiment end
// to end (merge included), then peak RSS at exit.
//
// Traced mode (--trace 1) drives each shard itself through the same public
// calls the runner makes — ditl::generate_world(spec, shard, n),
// core::Experiment::run, core::write_results / read_results / merge_into —
// on the same kind of thread pool, and records a span around each call. It
// reads per-layer counts from public getters, replays a sample of the
// workload's own captured probe traffic through the net::Packet and
// dns::DnsMessage codecs, and times analysis::render_report on the merged
// records. Its merged digest must equal the untraced run's.
//
// Both modes print one JSON object as the last line of stdout. The CLI is
// strict: an unknown flag, a missing value or a malformed number exits 2.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/report.h"
#include "core/experiment.h"
#include "core/parallel.h"
#include "core/spill.h"
#include "ditl/plan.h"
#include "ditl/world.h"
#include "dns/message.h"
#include "net/packet.h"
#include "util/rss.h"

// --- allocation counter -----------------------------------------------------
// Counts operator-new calls per thread while g_count_allocs is set. The flag
// is written only before any worker thread starts, and the counter is
// thread-local, so counting adds no shared cache line to the hot path.
namespace {
bool g_count_allocs = false;
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  if (g_count_allocs) ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_process_start = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- strict CLI ---------------------------------------------------------------

struct Options {
  int asns = 0;
  double mean = 0.0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::uint64_t seed = 0;
  std::string spill_dir;
  std::uint32_t crosscheck_window = 0;
  std::uint32_t poison_window = 0;
  std::string followup = "udp";  // udp | tcp-persistent
  bool trace = false;
  bool setup_only = false;  // time the set-up alone, run no campaign
  std::string trace_out;  // traced mode: where the spans are written
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "campaign_bench: %s\n", msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    usage_error(flag + ": not a whole number: '" + text + "'");
  std::uint64_t v = 0;
  try {
    v = std::stoull(text);
  } catch (const std::exception&) {
    usage_error(flag + ": out of range: '" + text + "'");
  }
  if (v < lo || v > hi) usage_error(flag + ": out of range: '" + text + "'");
  return v;
}

double parse_positive(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    usage_error(flag + ": not a number: '" + text + "'");
  }
  if (used != text.size() || !(v > 0.0) || v > 64.0)
    usage_error(flag + ": not a number in (0, 64]: '" + text + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> given;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) usage_error("unexpected argument: " + flag);
    if (i + 1 >= argc) usage_error(flag + ": missing value");
    if (!given.emplace(flag, argv[i + 1]).second)
      usage_error(flag + ": given twice");
  }
  const auto take = [&given](const std::string& flag) -> std::optional<std::string> {
    const auto it = given.find(flag);
    if (it == given.end()) return std::nullopt;
    std::string v = it->second;
    given.erase(it);
    return v;
  };
  const auto need = [&take](const std::string& flag) {
    auto v = take(flag);
    if (!v) usage_error(flag + ": required");
    return *v;
  };
  opt.asns = static_cast<int>(parse_uint("--asns", need("--asns"), 1, 1'000'000));
  opt.mean = parse_positive("--mean", need("--mean"));
  opt.shards = parse_uint("--shards", need("--shards"), 1, 100'000);
  opt.threads = parse_uint("--threads", need("--threads"), 1, 1024);
  opt.seed = parse_uint("--seed", need("--seed"), 0,
                        std::numeric_limits<std::uint64_t>::max());
  opt.spill_dir = need("--spill-dir");
  if (auto v = take("--crosscheck-window"))
    opt.crosscheck_window =
        static_cast<std::uint32_t>(parse_uint("--crosscheck-window", *v, 0, 245));
  if (auto v = take("--poison-window"))
    opt.poison_window =
        static_cast<std::uint32_t>(parse_uint("--poison-window", *v, 0, 1000));
  if (auto v = take("--followup")) {
    if (*v != "udp" && *v != "tcp-persistent")
      usage_error("--followup: expected udp or tcp-persistent, got '" + *v + "'");
    opt.followup = *v;
  }
  if (auto v = take("--trace")) opt.trace = parse_uint("--trace", *v, 0, 1) == 1;
  if (auto v = take("--trace-out")) opt.trace_out = *v;
  if (auto v = take("--setup-only"))
    opt.setup_only = parse_uint("--setup-only", *v, 0, 1) == 1;
  if (opt.setup_only && opt.trace) usage_error("--setup-only: untraced only");
  if (!given.empty()) usage_error("unknown flag: " + given.begin()->first);
  return opt;
}

cd::ditl::WorldSpec make_spec(const Options& opt) {
  cd::ditl::WorldSpec spec = cd::ditl::bench_world_spec();
  spec.n_asns = opt.asns;
  spec.resolvers_per_as_mean = opt.mean;
  spec.seed = opt.seed;
  return spec;
}

cd::core::ExperimentConfig make_config(const Options& opt) {
  cd::core::ExperimentConfig config;
  config.num_shards = opt.shards;
  config.num_threads = opt.threads;
  config.spill_dir = opt.spill_dir;
  if (opt.crosscheck_window > 0) {
    cd::scanner::CrossCheckConfig cc;
    cc.host_lo = 10;  // resolver v4 addressing starts at offset 10
    cc.host_hi = 10 + opt.crosscheck_window;
    config.crosscheck = cc;
  }
  if (opt.poison_window > 0) {
    cd::attack::PoisonConfig poison;
    poison.rounds = static_cast<int>(opt.poison_window);
    config.poison = poison;
  }
  if (opt.followup == "tcp-persistent") {
    config.followup.transport = cd::scanner::FollowupTransport::kTcp;
    config.persistent_tcp = true;
  }
  return config;
}

std::uint64_t scanner_probes(const cd::core::ExperimentResults& r) {
  return r.queries_sent + r.crosscheck_probes;
}

// --- spans ----------------------------------------------------------------------

constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

struct Span {
  const char* name = "";  // a string literal: recording allocates nothing
  double start_ms = 0.0;  // since process start
  double end_ms = 0.0;
  std::size_t parent = kNoParent;
  long shard = -1;  // -1: not shard work
};

/// In-memory span store; shared by the worker threads, written at exit.
class Trace {
 public:
  /// Makes room for `n` more spans, so that recording them allocates
  /// nothing and the tracer stays out of alloc.per_probe.
  void reserve(std::size_t n) {
    std::lock_guard lock(mu_);
    spans_.reserve(spans_.size() + n);
  }
  std::size_t begin(const char* name, std::size_t parent, long shard) {
    const double now = ms_between(g_process_start, Clock::now());
    std::lock_guard lock(mu_);
    spans_.push_back({name, now, now, parent, shard});
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    const double now = ms_between(g_process_start, Clock::now());
    std::lock_guard lock(mu_);
    spans_[id].end_ms = now;
  }
  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::lock_guard lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end_ms - s.start_ms);
    }
    return out;
  }
  void write(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write trace file " + path);
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.4f,"
                   "\"end_ms\":%.4f,\"parent\":%lld,\"shard\":%ld}%s\n",
                   i, s.name, s.start_ms, s.end_ms,
                   s.parent == kNoParent ? -1LL : (long long)s.parent, s.shard,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records one span for the lifetime of the object.
class Scoped {
 public:
  Scoped(Trace& trace, const char* name, std::size_t parent = kNoParent,
         long shard = -1)
      : trace_(trace), id_(trace.begin(name, parent, shard)) {}
  ~Scoped() { trace_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  Trace& trace_;
  std::size_t id_;
};

// --- set-up -------------------------------------------------------------------

/// Builds the campaign plan repeatedly — at least kSetupMinReps times and
/// for at least kSetupMinMs — and returns the median wall (s). One plan
/// build is too short to time steadily on small workloads.
double run_setup(const cd::ditl::WorldSpec& spec, Trace* trace) {
  constexpr int kSetupMinReps = 5;
  constexpr int kSetupMaxReps = 2000;
  constexpr double kSetupMinMs = 50.0;
  std::vector<double> walls;
  const auto first = Clock::now();
  while (static_cast<int>(walls.size()) < kSetupMinReps ||
         (ms_between(first, Clock::now()) < kSetupMinMs &&
          static_cast<int>(walls.size()) < kSetupMaxReps)) {
    std::optional<Scoped> span;
    if (trace) span.emplace(*trace, "ditl.build_campaign_plan");
    const auto start = Clock::now();
    const auto plan = cd::ditl::build_campaign_plan(spec);
    walls.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  return median(walls);
}

// --- traced campaign ------------------------------------------------------------

/// Per-shard counts read from public getters after the shard ran.
struct ShardCounts {
  std::uint64_t events = 0;
  std::uint64_t spill_bytes = 0;
  bool failed = false;
  std::string error;
  std::string spill_path;
};

struct TracedCampaign {
  cd::core::ExperimentResults merged;
  double wall_ms = 0.0;
  double pool_ms = 0.0;
  std::size_t threads = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t spill_bytes = 0;
  std::size_t failed_shards = 0;
};

void run_traced_shard(const cd::ditl::WorldSpec& spec,
                      cd::core::ExperimentConfig config, std::size_t shard,
                      Trace& trace, std::size_t parent, ShardCounts& out) {
  const long id = static_cast<long>(shard);
  Scoped shard_span(trace, "core.shard", parent, id);
  try {
    std::unique_ptr<cd::ditl::World> world;
    {
      Scoped s(trace, "ditl.generate_world", shard_span.id(), id);
      world = cd::ditl::generate_world(spec, shard, config.num_shards);
    }
    config.shard_index = shard;
    cd::core::ExperimentResults results;
    {
      Scoped s(trace, "core.experiment_run", shard_span.id(), id);
      cd::core::Experiment experiment(*world, config);
      results = experiment.run();  // the copy the runner makes too
    }
    out.events = world->loop.executed();
    Scoped s(trace, "core.write_results", shard_span.id(), id);
    out.spill_path = (std::filesystem::path(config.spill_dir) /
                      ("shard_" + std::to_string(shard) + ".cdsp"))
                         .string();
    cd::core::write_results(results, out.spill_path);
    out.spill_bytes = std::filesystem::file_size(out.spill_path);
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
}

TracedCampaign run_traced_campaign(const cd::ditl::WorldSpec& spec,
                                   const cd::core::ExperimentConfig& config,
                                   Trace& trace) {
  TracedCampaign tc;
  const std::size_t n_shards = config.num_shards;
  tc.threads = std::min(config.num_threads, n_shards);
  std::filesystem::create_directories(config.spill_dir);
  // Six spans per shard (shard, generate, run, write, read, merge_into) plus
  // campaign, pool and merge.
  trace.reserve(6 * n_shards + 3);

  const auto wall_start = Clock::now();
  Scoped campaign_span(trace, "core.campaign");
  std::vector<ShardCounts> shards(n_shards);
  // Allocations are counted by the thread that makes them: each worker's
  // total over its shards, then the main thread's over the merge.
  std::atomic<std::uint64_t> worker_allocs{0};
  {
    Scoped pool_span(trace, "core.pool", campaign_span.id());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      const std::uint64_t before = t_allocs;
      for (;;) {
        const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
        if (shard >= n_shards) break;
        run_traced_shard(spec, config, shard, trace, pool_span.id(),
                         shards[shard]);
      }
      worker_allocs += t_allocs - before;
    };
    if (tc.threads == 1) {
      worker();
    } else {
      std::vector<std::jthread> pool;
      for (std::size_t i = 0; i < tc.threads; ++i) pool.emplace_back(worker);
    }
  }
  tc.pool_ms = ms_between(wall_start, Clock::now());

  const std::uint64_t merge_allocs_before = t_allocs;
  {
    Scoped merge_span(trace, "core.merge", campaign_span.id());
    bool first = true;
    for (std::size_t shard = 0; shard < n_shards; ++shard) {
      ShardCounts& sc = shards[shard];
      tc.events += sc.events;
      tc.spill_bytes += sc.spill_bytes;
      if (sc.failed) {
        std::fprintf(stderr, "campaign_bench: shard %zu failed: %s\n", shard,
                     sc.error.c_str());
        ++tc.failed_shards;
        continue;
      }
      cd::core::ExperimentResults part;
      {
        Scoped s(trace, "core.read_results", merge_span.id(),
                 static_cast<long>(shard));
        part = cd::core::read_results(sc.spill_path);
        std::remove(sc.spill_path.c_str());
      }
      Scoped s(trace, "core.merge_into", merge_span.id(),
               static_cast<long>(shard));
      cd::core::merge_into(tc.merged, std::move(part), first);
      first = false;
    }
    cd::pcap::canonicalize(tc.merged.capture);
  }
  tc.wall_ms = ms_between(wall_start, Clock::now());
  tc.allocs = worker_allocs + (t_allocs - merge_allocs_before);
  return tc;
}

// --- codec replay ----------------------------------------------------------------

struct CodecTimes {
  double parse_ns = 0, serialize_ns = 0, decode_ns = 0, encode_ns = 0;
};

/// Times `op` over `n` items, repeating whole passes until at least
/// `min_ms` have elapsed, and returns ns per item.
template <typename Op>
double ns_per_item(std::size_t n, double min_ms, Op op) {
  if (n == 0) return 0.0;
  std::size_t passes = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < n; ++i) op(i);
    ++passes;
    elapsed = ms_between(start, Clock::now());
  } while (elapsed < min_ms);
  return elapsed * 1e6 / static_cast<double>(passes * n);
}

/// Captures the probe-plane traffic of the first shard that sends any
/// (shard 0, except in tiny worlds) and replays a fixed sample of it through
/// the public codecs. Throws if any captured probe fails to parse.
CodecTimes replay_codecs(const cd::ditl::WorldSpec& spec,
                         cd::core::ExperimentConfig config, Trace& trace) {
  constexpr std::size_t kSample = 4096;
  constexpr double kMinMs = 40.0;
  Scoped span(trace, "codec.replay");
  cd::core::CaptureSpec capture;
  capture.probes_only = true;
  capture.include_drops = false;
  config.capture = capture;
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::size_t shard = 0; shard < config.num_shards && wires.empty();
       ++shard) {
    Scoped s(trace, "codec.capture", span.id(), static_cast<long>(shard));
    auto world = cd::ditl::generate_world(spec, shard, config.num_shards);
    config.shard_index = shard;
    cd::core::Experiment experiment(*world, config);
    const auto& records = experiment.run().capture.records;
    const std::size_t stride = std::max<std::size_t>(1, records.size() / kSample);
    for (std::size_t i = 0; i < records.size() && wires.size() < kSample;
         i += stride) {
      wires.push_back(records[i].bytes);
    }
  }
  std::vector<cd::net::Packet> packets;
  std::vector<cd::dns::DnsMessage> messages;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const auto& w : wires) {
    packets.push_back(cd::net::Packet::parse(w));
    const cd::net::Packet& p = packets.back();
    if (p.proto == cd::net::IpProto::kUdp && !p.payload.empty()) {
      payloads.push_back(p.payload);
      messages.push_back(cd::dns::DnsMessage::decode(payloads.back()));
    }
  }
  CodecTimes t;
  std::size_t sink = 0;
  {
    Scoped s(trace, "net.packet_parse", span.id());
    t.parse_ns = ns_per_item(wires.size(), kMinMs, [&](std::size_t i) {
      sink += cd::net::Packet::parse(wires[i]).payload.size();
    });
  }
  {
    Scoped s(trace, "net.packet_serialize", span.id());
    t.serialize_ns = ns_per_item(packets.size(), kMinMs, [&](std::size_t i) {
      sink += packets[i].serialize().size();
    });
  }
  {
    Scoped s(trace, "dns.message_decode", span.id());
    t.decode_ns = ns_per_item(payloads.size(), kMinMs, [&](std::size_t i) {
      sink += cd::dns::DnsMessage::decode(payloads[i]).questions.size();
    });
  }
  {
    Scoped s(trace, "dns.message_encode", span.id());
    t.encode_ns = ns_per_item(messages.size(), kMinMs, [&](std::size_t i) {
      sink += messages[i].encode().size();
    });
  }
  if (sink == 0) throw std::runtime_error("codec replay produced no bytes");
  return t;
}

// --- output -------------------------------------------------------------------------

/// Appends `"key":value` pairs to one JSON object line.
class JsonLine {
 public:
  void num(const char* key, double v) { add(key, fmt("%.9g", v)); }
  void count(const char* key, std::uint64_t v) {
    add(key, fmt("%llu", (unsigned long long)v));
  }
  void str(const char* key, const std::string& v) { add(key, "\"" + v + "\""); }
  void raw(const char* key, const std::string& v) { add(key, v); }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string fmt(const char* f, auto v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
  }
  void add(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + std::string(key) + "\":" + v;
  }
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

void add_build_info(JsonLine& j) {
  j.str("build_type", CD_BUILD_TYPE);
  j.str("compiler", CD_COMPILER);
}

std::uint64_t poison_successes(const cd::core::ExperimentResults& r) {
  std::uint64_t n = 0;
  for (const auto& [addr, rec] : r.poison_records) n += rec.success ? 1 : 0;
  return n;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int run_plain(const Options& opt) {
  const cd::ditl::WorldSpec spec = make_spec(opt);
  const cd::core::ExperimentConfig config = make_config(opt);
  const double setup_s = run_setup(spec, nullptr);

  JsonLine j;
  j.str("mode", "plain");
  j.count("seed", opt.seed);
  add_build_info(j);
  j.num("setup_s", setup_s);
  j.count("shards", opt.shards);
  if (opt.setup_only) {
    std::printf("%s\n", j.text().c_str());
    return 0;
  }
  const auto start = Clock::now();
  try {
    const cd::core::ShardedResults out =
        cd::core::run_sharded_experiment(spec, config);
    const double campaign_s = ms_between(start, Clock::now()) / 1000.0;
    j.num("campaign_s", campaign_s);
    j.count("probes", scanner_probes(out.merged));
    j.count("crosscheck_probes", out.merged.crosscheck_probes);
    j.count("records", out.merged.records.size());
    j.str("digest", hex64(cd::core::results_digest(out.merged)));
    j.count("failed_shards", 0);
  } catch (const std::exception& e) {
    // The runner rethrows the first shard failure after the pool joins and
    // does not say how many failed: count the whole campaign as failed.
    std::fprintf(stderr, "campaign_bench: campaign failed: %s\n", e.what());
    j.count("failed_shards", opt.shards);
  }
  j.num("peak_rss_mib", cd::peak_rss_kb() / 1024.0);
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int run_traced(const Options& opt) {
  const cd::ditl::WorldSpec spec = make_spec(opt);
  const cd::core::ExperimentConfig config = make_config(opt);
  Trace trace;
  const double setup_s = run_setup(spec, &trace);

  g_count_allocs = true;  // before any worker thread starts
  TracedCampaign tc = run_traced_campaign(spec, config, trace);
  g_count_allocs = false;

  const cd::core::ExperimentResults& m = tc.merged;
  const std::uint64_t probes = scanner_probes(m);
  const auto sum = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  };
  const std::vector<double> gen = trace.durations("ditl.generate_world");
  const std::vector<double> run = trace.durations("core.experiment_run");
  const double busy_ms = sum(trace.durations("core.shard"));
  const double gen_sum = sum(gen), run_sum = sum(run);

  JsonLine layers;
  layers.num("ditl.plan_ms", 1000.0 * setup_s);
  layers.num("ditl.gen_ms_sum", gen_sum);
  layers.num("ditl.gen_share", ratio(gen_sum, gen_sum + run_sum));
  layers.num("core.shard_run_ms.p50", median(run));
  layers.num("core.shard_run_ms.max",
             run.empty() ? 0.0 : *std::max_element(run.begin(), run.end()));
  layers.num("core.pool_efficiency",
             ratio(busy_ms, static_cast<double>(tc.threads) * tc.pool_ms));
  layers.num("core.spill_ms_sum", sum(trace.durations("core.write_results")));
  layers.count("core.spill_bytes", tc.spill_bytes);
  const std::vector<double> merge = trace.durations("core.merge");
  layers.num("core.merge_ms", merge.empty() ? 0.0 : merge.front());
  layers.num("alloc.per_probe", ratio((double)tc.allocs, (double)probes));
  const cd::sim::NetworkStats& ns = m.network_stats;
  const std::uint64_t drops = ns.dropped_osav + ns.dropped_dsav +
                              ns.dropped_martian + ns.dropped_urpf +
                              ns.dropped_unrouted + ns.dropped_no_host +
                              ns.dropped_stack;
  layers.num("sim.events_per_probe", ratio((double)tc.events, (double)probes));
  layers.count("sim.delivered", ns.delivered);
  layers.num("sim.delivery_batch_mean",
             ratio((double)ns.delivered, (double)ns.delivery_batches));
  layers.num("sim.drop_share", ratio((double)drops, (double)ns.sent));
  layers.count("sim.tcp_dials", m.transport.dials);
  layers.num("sim.session_reuse_share",
             ratio((double)m.transport.session_reuses,
                   (double)(m.transport.session_reuses + m.transport.dials)));
  layers.count("scanner.probes", probes);
  layers.count("scanner.collector_entries", m.collector_stats.entries_seen);
  layers.num("scanner.records_per_kprobe",
             ratio(1000.0 * (double)m.records.size(), (double)probes));
  layers.num("attack.forged_per_success",
             ratio((double)m.poison_forged, (double)poison_successes(m)));

  const CodecTimes codec = replay_codecs(spec, config, trace);
  layers.num("net.packet_parse_ns", codec.parse_ns);
  layers.num("net.packet_serialize_ns", codec.serialize_ns);
  layers.num("dns.message_decode_ns", codec.decode_ns);
  layers.num("dns.message_encode_ns", codec.encode_ns);

  {
    std::unique_ptr<cd::ditl::World> world;
    {
      Scoped s(trace, "ditl.generate_world_full");
      world = cd::ditl::generate_world(spec);
    }
    std::vector<double> report_ms;
    std::size_t report_bytes = 0;
    for (int r = 0; r < 3; ++r) {
      Scoped s(trace, "analysis.render_report");
      const auto start = Clock::now();
      report_bytes = cd::analysis::render_report(
                         m.records, world->targets, world->geo,
                         world->passive_capture, world->public_dns_addrs)
                         .size();
      report_ms.push_back(ms_between(start, Clock::now()));
    }
    if (report_bytes == 0) throw std::runtime_error("empty report");
    layers.num("analysis.report_ms", median(report_ms));
  }

  JsonLine j;
  j.str("mode", "traced");
  j.count("seed", opt.seed);
  add_build_info(j);
  j.num("setup_s", setup_s);
  j.count("shards", opt.shards);
  j.num("campaign_s", tc.wall_ms / 1000.0);
  j.count("probes", probes);
  j.count("crosscheck_probes", m.crosscheck_probes);
  j.count("records", m.records.size());
  j.str("digest", hex64(cd::core::results_digest(m)));
  j.count("failed_shards", tc.failed_shards);
  j.num("peak_rss_mib", cd::peak_rss_kb() / 1024.0);
  j.raw("layers", layers.text());
  if (!opt.trace_out.empty()) trace.write(opt.trace_out);
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return opt.trace ? run_traced(opt) : run_plain(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
