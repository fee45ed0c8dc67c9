// lsa_perfbench: the repository benchmark driver.
//
// Runs one named workload against the real sharded server::AggregationServer
// (or, for uds_relay, the transport/socket hub), checks every output, and
// prints one JSON result line last on stdout. perfbench/README.md says why
// each workload exists and which per-layer metric should move which
// end-to-end metric.
//
//   lsa_perfbench --workload <sync_fresh|sync_steady|async_buffered|uds_relay>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>] [--source-digest <hex>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics: a second session at the same seed replays every step through the
// layers' public calls with spans recorded here (nothing inside src/ is
// instrumented), interleaved with the untraced session's steps (uds_relay:
// every other burst is traced). Every input (models, crash sets, arrival
// lists, relay payloads) is a pure function of --seed and is generated
// outside the timed window. Every workload is a closed loop: one coordinator
// starts the next step only after the previous one returned.
//
// Exit status: 0 when every output checked out; 1 on any failed or wrong
// step (the result line then reads "correct": false); 2 on bad usage or a
// non-Release build, without a result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "coding/mask_codec.h"
#include "common/rng.h"
#include "crypto/prg.h"
#include "field/flat_matrix.h"
#include "field/random_field.h"
#include "field/simd/dispatch.h"
#include "field/simd/simd_policy.h"
#include "protocol/params.h"
#include "quant/staleness.h"
#include "runtime/arrival_scheduler.h"
#include "runtime/async_machines.h"
#include "server/aggregation_server.h"
#include "sys/exec_policy.h"
#include "sys/thread_pool.h"
#include "transport/socket/socket_addr.h"
#include "transport/socket/socket_transport.h"
#include "transport/stats.h"

namespace {

using Clock = std::chrono::steady_clock;
using Fp = lsa::field::Fp32;
using rep = Fp::rep;
using Models = std::vector<std::vector<rep>>;

// ------------------------------------------------------------------ shape

// Paper shape for p <= 0.3 (So et al. §7.2): T = N/2, U = 0.7N.
constexpr std::size_t kUsers = 100;
constexpr std::size_t kPrivacy = 50;
constexpr std::size_t kSurvivors = 70;
constexpr std::size_t kDim = 60000;
constexpr std::size_t kFreshCrashes = 30;   // sync_fresh: per round
constexpr std::size_t kSteadyOffline = 10;  // sync_steady: whole run
constexpr std::size_t kAsyncBuffer = 20;    // K
constexpr std::uint64_t kAsyncTauMax = 3;
constexpr std::uint64_t kAsyncWeightScale = 64;  // c_g
// uds_relay step: two rounds' offline share exchanges routed through the
// hub, 2 N (N - 1) frames of one segment (seg_len = d / (U - T) = 3000 words
// at the sync shape), streamed by one sender connection. With one round per
// step, scheduler hiccups set round_s_tail: its run-to-run spread reached
// 29% over 10 runs.
constexpr std::size_t kRelayFrames = 2 * kUsers * (kUsers - 1);
constexpr std::size_t kRelayWords = kDim / (kSurvivors - kPrivacy);
constexpr std::size_t kRelayPayloads = 16;
constexpr int kRelayWaitMs = 10'000;

// Thread budget, the same for every workload: 2 pool workers plus the
// driving thread (uds_relay: hub, receiver and sender threads) — nproc - 1
// on a 4-core host, which keeps run-to-run spread at a few percent.
constexpr std::size_t kPoolWorkers = 2;
constexpr std::size_t kThreads = kPoolWorkers + 1;

constexpr int kSetupReps = 3;
constexpr int kRelaySetupReps = 25;
// round_s_tail needs at least 10 samples beyond its percentile.
constexpr std::size_t kMinSteps = 12;
constexpr int kPrimitiveReps = 7;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  lsa::common::SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ull) ^
                             (b * 0xc2b2ae3d27d4eb4full));
  return sm.next();
}

// ------------------------------------------------------------- statistics

// Linear-interpolation quantile (the "inclusive" method).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// a / b, or 0 when nothing was measured (a failed run still prints JSON).
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// The highest whole percentile with at least 10 samples beyond it
// (nearest-rank), so the tail is never read off fewer than 10 steps.
struct Tail {
  double value = 0.0;
  int percentile = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.percentile = static_cast<int>(100 * (n - 10) / n);
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(t.percentile) * static_cast<double>(n) /
                100.0));
  t.value = v[std::max<std::size_t>(rank, 1) - 1];
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class Report {
 public:
  void add(std::string name, std::string unit, double value) {
    metrics_.push_back({std::move(name), std::move(unit), value});
  }
  void note_step(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void note_steps(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
    invariant_broken_ = true;
  }
  [[nodiscard]] bool correct() const {
    return failed_ == 0 && !invariant_broken_ && attempted_ > 0;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  // Human-readable lines first, the contract's JSON object last.
  void print(const char* workload) const {
    for (const auto& m : metrics_) {
      std::printf("%-16s %-34s %.6g %s\n", workload, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool invariant_broken_ = false;
};

// Informational lines (step distribution, tail percentile, failed_ratio).
void info(const char* workload, const char* what, double value,
          const char* unit) {
  std::printf("%-16s %-34s %.6g %s\n", workload, what, value, unit);
}

void print_distribution(const char* workload, const char* name,
                        const std::vector<double>& v, const char* unit) {
  const std::string base(name);
  info(workload, (base + ".q1").c_str(), quantile(v, 0.25), unit);
  info(workload, (base + ".median").c_str(), median(v), unit);
  info(workload, (base + ".q3").c_str(), quantile(v, 0.75), unit);
  info(workload, (base + ".samples").c_str(), static_cast<double>(v.size()),
       "count");
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: lsa_perfbench --workload "
               "<sync_fresh|sync_steady|async_buffered|uds_relay> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--source-digest") {
      o.source_digest = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

void print_fingerprint(const Options& o) {
  namespace simd = lsa::field::simd;
  std::printf(
      "{\"fingerprint\": {\"simd_isa\": \"%s\", \"nproc\": %ld, "
      "\"pool_workers\": %zu, \"threads\": %zu, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"commit\": \"%s\", "
      "\"source_digest\": \"%s\"}}\n",
      simd::level_name(simd::active_level()), sysconf(_SC_NPROCESSORS_ONLN),
      kPoolWorkers, kThreads, LSA_PERFBENCH_COMPILER,
      LSA_PERFBENCH_BUILD_TYPE, o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      o.commit.c_str(), o.source_digest.c_str());
}

// ------------------------------------------------------------------ inputs

// `count` distinct users out of kUsers, sorted, drawn from (seed, tag).
std::vector<std::size_t> pick_users(std::uint64_t seed, std::uint64_t tag,
                                    std::size_t count) {
  lsa::common::Xoshiro256ss rng(mix(seed, 0xc7a5, tag));
  std::vector<std::size_t> ids(kUsers);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = k + rng.next_below(kUsers - k);
    std::swap(ids[k], ids[j]);
  }
  ids.resize(count);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Plain scalar field sum — independent of the library's SIMD kernels.
void accumulate(std::vector<rep>& acc, std::span<const rep> x, rep w = 1) {
  for (std::size_t k = 0; k < acc.size(); ++k) {
    acc[k] = Fp::add(acc[k], w == 1 ? x[k] : Fp::mul(w, x[k]));
  }
}

// ------------------------------------------------------------ layer spans

// Spans of one traced step, recorded around public calls into each layer.
struct StepTrace {
  double wall = 0.0;
  double offline = 0.0, offline_busy = 0.0;  // sync: start_round_offline
  double submit = 0.0, submit_busy = 0.0;    // async: submit_update
  double upload = 0.0;                       // sync: upload_masked
  double fanin = 0.0;                        // pump after uploads
  double crash = 0.0;                        // router().crash
  double recovery = 0.0;                     // begin_recovery + pump
  double finish = 0.0;                       // finish_round / finish_cycle
  double result = 0.0;                       // final pump
  lsa::coding::MaskCodec<Fp>::DecodeStats decode{};
  std::uint64_t encodes = 0;
  std::uint64_t frames_dropped = 0;
  lsa::transport::CountersSnapshot transport{};

  [[nodiscard]] double accounted() const {
    return offline + submit + upload + fanin + crash + recovery + finish +
           result;
  }
};

lsa::transport::CountersSnapshot delta(
    const lsa::transport::CountersSnapshot& a,
    const lsa::transport::CountersSnapshot& b) {
  return {b.frames_built - a.frames_built,
          b.payload_bytes_framed - a.payload_bytes_framed,
          b.payload_copies - a.payload_copies,
          b.payload_bytes_copied - a.payload_bytes_copied,
          b.pool_allocs - a.pool_allocs, b.pool_reuses - a.pool_reuses};
}

// Every per-layer metric, in one fixed order; workloads that do not touch a
// layer report 0 for it.
struct LayerMetrics {
  double offline_s = 0, offline_busy_s = 0, offline_lane_util = 0;
  double submit_s = 0, upload_s = 0, fanin_pump_s = 0, recovery_s = 0;
  double finish_s = 0, result_pump_s = 0;
  double step_s = 0, unaccounted_s = 0, accounted_ratio = 0;
  double overhead_ratio = 0;
  double mask_expand_s = 0, encode_s = 0, encode_gmac_per_s = 0;
  double decode_setup_s = 0, decode_stream_s = 0;
  double plan_builds = 0, plan_patches = 0, plan_hit_ratio = 0;
  double offline_encodes_per_step = 0;
  double frames_per_step = 0, payload_mb_per_step = 0;
  double frames_dropped_per_step = 0, pool_reuse_ratio = 0;
  double send_payload_copies = 0;
  double socket_send_s = 0, socket_frames_relayed = 0;
  double socket_frames_dropped = 0, socket_protocol_errors = 0;

  void emit(Report& r) const {
    r.add("runtime.offline_s", "s", offline_s);
    r.add("runtime.offline_busy_s", "s", offline_busy_s);
    r.add("sys.offline_lane_util", "ratio", offline_lane_util);
    r.add("runtime.submit_s", "s", submit_s);
    r.add("runtime.upload_s", "s", upload_s);
    r.add("transport.fanin_pump_s", "s", fanin_pump_s);
    r.add("runtime.recovery_s", "s", recovery_s);
    r.add("runtime.finish_s", "s", finish_s);
    r.add("transport.result_pump_s", "s", result_pump_s);
    r.add("trace.step_s", "s", step_s);
    r.add("trace.unaccounted_s", "s", unaccounted_s);
    r.add("trace.accounted_ratio", "ratio", accounted_ratio);
    r.add("trace.overhead_ratio", "ratio", overhead_ratio);
    r.add("crypto.mask_expand_s", "s", mask_expand_s);
    r.add("coding.encode_s", "s", encode_s);
    r.add("coding.encode_gmac_per_s", "GMAC/s", encode_gmac_per_s);
    r.add("coding.decode_setup_s", "s", decode_setup_s);
    r.add("coding.decode_stream_s", "s", decode_stream_s);
    r.add("coding.plan_builds", "count", plan_builds);
    r.add("coding.plan_patches", "count", plan_patches);
    r.add("coding.plan_hit_ratio", "ratio", plan_hit_ratio);
    r.add("runtime.offline_encodes_per_step", "count",
          offline_encodes_per_step);
    r.add("transport.frames_per_step", "count", frames_per_step);
    r.add("transport.payload_mb_per_step", "MB", payload_mb_per_step);
    r.add("transport.frames_dropped_per_step", "count",
          frames_dropped_per_step);
    r.add("transport.pool_reuse_ratio", "ratio", pool_reuse_ratio);
    r.add("transport.send_payload_copies", "count", send_payload_copies);
    r.add("socket.send_s", "s", socket_send_s);
    r.add("socket.frames_relayed", "count", socket_frames_relayed);
    r.add("socket.frames_dropped", "count", socket_frames_dropped);
    r.add("socket.protocol_errors", "count", socket_protocol_errors);
  }
};

// Folds the traced steps into the per-layer metrics (medians per step for
// spans, totals or per-step means for counts).
void fold_traces(const std::vector<StepTrace>& steps, LayerMetrics& m) {
  std::vector<double> wall, offline, offline_busy, submit, upload, fanin;
  std::vector<double> recovery, finish, result, unaccounted, setup, stream;
  double fan_busy = 0.0, fan_wall = 0.0, accounted = 0.0, total_wall = 0.0;
  double builds = 0, patches = 0, reuses = 0, encodes = 0, frames = 0;
  double bytes = 0, dropped = 0, allocs = 0, pool_reuses = 0, copies = 0;
  for (const auto& s : steps) {
    wall.push_back(s.wall);
    offline.push_back(s.offline);
    offline_busy.push_back(s.offline_busy);
    submit.push_back(s.submit);
    upload.push_back(s.upload);
    fanin.push_back(s.fanin);
    recovery.push_back(s.recovery);
    finish.push_back(s.finish);
    result.push_back(s.result);
    unaccounted.push_back(s.wall - s.accounted());
    setup.push_back(s.decode.setup_s);
    stream.push_back(s.decode.stream_s);
    fan_busy += s.offline_busy + s.submit_busy;
    fan_wall += s.offline + s.submit;
    accounted += s.accounted();
    total_wall += s.wall;
    if (s.decode.plan_patched) {
      ++patches;
    } else if (s.decode.plan_reused) {
      ++reuses;
    } else {
      ++builds;
    }
    encodes += static_cast<double>(s.encodes);
    frames += static_cast<double>(s.transport.frames_built);
    bytes += static_cast<double>(s.transport.payload_bytes_framed);
    dropped += static_cast<double>(s.frames_dropped);
    allocs += static_cast<double>(s.transport.pool_allocs);
    pool_reuses += static_cast<double>(s.transport.pool_reuses);
    copies += static_cast<double>(s.transport.payload_copies);
  }
  const double n = static_cast<double>(steps.size());
  m.offline_s = median(offline);
  m.offline_busy_s = median(offline_busy);
  m.offline_lane_util =
      ratio(fan_busy, fan_wall * static_cast<double>(kThreads));
  m.submit_s = median(submit);
  m.upload_s = median(upload);
  m.fanin_pump_s = median(fanin);
  m.recovery_s = median(recovery);
  m.finish_s = median(finish);
  m.result_pump_s = median(result);
  m.step_s = median(wall);
  m.unaccounted_s = median(unaccounted);
  m.accounted_ratio = ratio(accounted, total_wall);
  m.decode_setup_s = median(setup);
  m.decode_stream_s = median(stream);
  m.plan_builds = builds;
  m.plan_patches = patches;
  m.plan_hit_ratio = ratio(reuses + patches, n);
  m.offline_encodes_per_step = ratio(encodes, n);
  m.frames_per_step = ratio(frames, n);
  m.payload_mb_per_step = ratio(bytes / 1e6, n);
  m.frames_dropped_per_step = ratio(dropped, n);
  m.pool_reuse_ratio = ratio(pool_reuses, allocs + pool_reuses);
  m.send_payload_copies = copies;
}

// Primitive replays of one user's offline work at the workload shape: the
// PRG mask expansion and the N-share encode, each the median of a few reps.
void time_primitives(std::uint64_t seed, lsa::sys::ExecPolicy pol,
                     LayerMetrics& m) {
  lsa::coding::MaskCodec<Fp> codec(kUsers, kSurvivors, kPrivacy, kDim);
  lsa::field::FlatMatrix<Fp> arena;
  std::vector<double> expand, encode;
  std::vector<rep> mask;
  for (int r = 0; r < kPrimitiveReps; ++r) {
    auto t0 = Clock::now();
    lsa::crypto::Prg prg(lsa::crypto::derive_subseed(
        lsa::crypto::seed_from_u64(mix(seed, 0x9a5c, 0)),
        static_cast<std::uint64_t>(r)));
    mask = lsa::field::uniform_vector<Fp>(kDim, prg);
    expand.push_back(seconds_since(t0));
    t0 = Clock::now();
    arena.reset_for_overwrite(kUsers, codec.segment_len());
    codec.encode_into(std::span<const rep>(mask), prg, arena, 0, 1,
                      pol.chunk_reps);
    encode.push_back(seconds_since(t0));
  }
  m.mask_expand_s = median(expand);
  m.encode_s = median(encode);
  const double macs = static_cast<double>(kUsers) *
                      static_cast<double>(kSurvivors) *
                      static_cast<double>(codec.segment_len());
  m.encode_gmac_per_s = ratio(macs / 1e9, m.encode_s);
}

// ------------------------------------------------------------ sync rounds

lsa::protocol::Params paper_params(lsa::sys::ThreadPool& pool) {
  lsa::protocol::Params p;
  p.num_users = kUsers;
  p.privacy = kPrivacy;
  p.dropout = kUsers - kSurvivors;
  p.target_survivors = kSurvivors;
  p.model_dim = kDim;
  p.exec.pool = &pool;
  return p;
}

// sync_fresh (persistent = false): per-round masks; a fresh seeded 30% of
// users crash after upload each round and are revived before the next.
// sync_steady (persistent = true): one cohort epoch; a fixed seeded 10% of
// users are offline from before the epoch-setup round to the end.
class SyncWorkload {
 public:
  using Output = std::vector<rep>;

  SyncWorkload(bool persistent, std::uint64_t seed, lsa::sys::ThreadPool& pool)
      : persistent_(persistent), seed_(seed), pool_(pool) {
    if (persistent_) offline_ = pick_users(seed_, 0x0ff, kSteadyOffline);
  }

  // Fresh server + session at the same seed. The session is in steady
  // state once the first round (the epoch setup, in persistent mode) ran.
  void open() {
    server_.reset();  // one session's arenas alive at a time
    server_ = std::make_unique<lsa::server::AggregationServer>(&pool_, 1);
    lsa::server::SessionConfig cfg;
    cfg.params = paper_params(pool_);
    cfg.params.persistent_cohort = persistent_;
    cfg.seed = mix(seed_, 0x5e55, 0);
    sid_ = server_->open_session(std::move(cfg));
    for (const auto i : offline_) session().router().crash(i);
  }

  void close() { server_.reset(); }

  struct Input {
    std::uint64_t round = 0;
    Models models;                   // one per user
    std::vector<std::size_t> crash;  // crash after upload
    std::vector<rep> expected;       // field sum of the uploaded models
  };

  [[nodiscard]] Input make_input(std::uint64_t round) const {
    Input in;
    in.round = round;
    if (!persistent_) in.crash = pick_users(seed_, round, kFreshCrashes);
    in.expected.assign(kDim, Fp::zero);
    std::vector<char> uploads(kUsers, 1);
    for (const auto i : offline_) uploads[i] = 0;
    in.models.resize(kUsers);
    for (std::size_t i = 0; i < kUsers; ++i) {
      lsa::common::Xoshiro256ss rng(mix(seed_, 0x30de1 + round, i));
      in.models[i] = lsa::field::uniform_vector<Fp>(kDim, rng);
      if (uploads[i] != 0) {
        accumulate(in.expected, std::span<const rep>(in.models[i]));
      }
    }
    return in;
  }

  Output run(Input& in) {
    auto out = server_->run_rounds({{sid_, in.round, &in.models, in.crash}});
    return std::move(out.at(0));
  }

  // The same round replayed phase by phase through public calls — the
  // order Session::run_round / online_tail execute.
  Output run_traced(const Input& in, StepTrace& tr) {
    auto& s = session();
    const lsa::field::simd::ScopedSimdPolicy simd_guard(s.params().simd);
    const auto& pol = s.params().exec;
    const std::size_t n = s.params().num_users;
    std::vector<double> busy(n, 0.0);
    // The step's wall span also covers the counter reads, so their cost
    // shows up as unaccounted time.
    const auto w0 = Clock::now();
    const auto before = lsa::transport::snapshot();
    const std::uint64_t encodes0 = encodes();
    const std::uint64_t dropped0 = s.router().frames_dropped();

    const auto t0 = Clock::now();
    pol.run(n, [&](std::size_t i) {
      const auto c0 = Clock::now();
      s.user(i).start_round_offline(in.round);
      busy[i] = seconds_since(c0);
    });
    const auto t1 = Clock::now();
    pol.run(n, [&](std::size_t i) {
      s.user(i).upload_masked(in.round, std::span<const rep>(in.models[i]));
    });
    const auto t2 = Clock::now();
    s.pump();
    const auto t3 = Clock::now();
    for (const auto i : in.crash) s.router().crash(i);
    const auto t4 = Clock::now();
    s.server().begin_recovery(in.round);
    s.pump();
    const auto t5 = Clock::now();
    Output out = s.server().finish_round(in.round);
    const auto t6 = Clock::now();
    s.pump();
    const auto t7 = Clock::now();

    tr.offline = seconds_between(t0, t1);
    tr.offline_busy = sum(busy);
    tr.upload = seconds_between(t1, t2);
    tr.fanin = seconds_between(t2, t3);
    tr.crash = seconds_between(t3, t4);
    tr.recovery = seconds_between(t4, t5);
    tr.finish = seconds_between(t5, t6);
    tr.result = seconds_between(t6, t7);
    tr.decode = s.server().codec().last_decode_stats();
    tr.encodes = encodes() - encodes0;
    tr.frames_dropped = s.router().frames_dropped() - dropped0;
    tr.transport = delta(before, lsa::transport::snapshot());
    tr.wall = seconds_since(w0);
    return out;
  }

  bool check(const Input& in, const Output& out) const {
    return out == in.expected;
  }

  // Crash-after-upload users come back before the next round.
  void after(const Input& in) {
    for (const auto i : in.crash) session().router().revive(i);
  }

  [[nodiscard]] lsa::sys::ExecPolicy exec() const {
    return paper_params(pool_).exec;
  }

 private:
  lsa::server::Session& session() { return server_->session(sid_); }

  std::uint64_t encodes() {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kUsers; ++i) {
      total += session().user(i).offline_encodes();
    }
    return total;
  }

  bool persistent_;
  std::uint64_t seed_;
  lsa::sys::ThreadPool& pool_;
  std::vector<std::size_t> offline_;
  std::unique_ptr<lsa::server::AggregationServer> server_;
  std::uint64_t sid_ = 0;
};

// ----------------------------------------------------------- async cycles

lsa::quant::StalenessPolicy async_staleness() {
  return {lsa::quant::StalenessKind::kPolynomial, 0.5};
}

lsa::runtime::ArrivalSchedule async_schedule(std::uint64_t seed) {
  lsa::runtime::ArrivalSchedule s;
  s.seed = mix(seed, 0xa5c, 0);
  s.arrivals_per_cycle = kAsyncBuffer;
  s.tau_max = kAsyncTauMax;
  return s;
}

// async_buffered: per-update masks; each buffer cycle has K distinct
// arrivals with staleness uniform in [0, tau_max].
class AsyncWorkload {
 public:
  using Output = lsa::server::AsyncSession::Output;

  AsyncWorkload(std::uint64_t seed, lsa::sys::ThreadPool& pool)
      : seed_(seed),
        pool_(pool),
        scheduler_(async_schedule(seed), kUsers, kDim, kAsyncBuffer) {}

  [[nodiscard]] lsa::server::AsyncSessionConfig config() const {
    lsa::server::AsyncSessionConfig cfg;
    cfg.params = paper_params(pool_);
    cfg.seed = mix(seed_, 0x5e55, 1);
    cfg.buffer_k = kAsyncBuffer;
    cfg.staleness = async_staleness();
    cfg.c_g = kAsyncWeightScale;
    cfg.schedule = async_schedule(seed_);
    return cfg;
  }

  void open() {
    server_.reset();  // one session's arenas alive at a time
    server_ = std::make_unique<lsa::server::AggregationServer>(&pool_, 1);
    sid_ = server_->open_async_session(config());
  }

  void close() { server_.reset(); }

  struct Input {
    std::uint64_t cycle = 0;
    std::uint64_t now = 0;
    std::vector<lsa::runtime::Arrival> arrivals;
    Output expected;
  };

  Input make_input(std::uint64_t cycle) const {
    Input in;
    in.cycle = cycle;
    in.now = scheduler_.now_for_cycle(cycle);
    in.arrivals = scheduler_.arrivals_for_cycle(cycle);
    in.expected.weighted_sum.assign(kDim, Fp::zero);
    for (const auto& a : in.arrivals) {
      const std::uint64_t w = lsa::quant::quantized_staleness_weight(
          async_staleness(), in.now - a.born_round, kAsyncWeightScale);
      in.expected.weight_sum += w;
      accumulate(in.expected.weighted_sum, std::span<const rep>(a.update),
                 Fp::from_u64(w));
    }
    return in;
  }

  // Moves the arrivals into the session queue; the timed step is the drive.
  void enqueue(Input& in) {
    session().enqueue_cycle({in.now, std::move(in.arrivals), {}});
  }
  Output run_enqueued() {
    server_->drive();
    return session().outputs().back();
  }

  // The same cycle replayed phase by phase through public calls — the
  // order AsyncSession::run_cycle executes.
  Output run_traced(const Input& in, StepTrace& tr) {
    auto& s = session();
    const lsa::field::simd::ScopedSimdPolicy simd_guard(s.params().simd);
    const auto& pol = s.params().exec;
    const auto& arr = in.arrivals;
    std::vector<double> busy(arr.size(), 0.0);
    const auto w0 = Clock::now();
    const auto before = lsa::transport::snapshot();
    const std::uint64_t encodes0 = encodes();
    const std::uint64_t dropped0 = s.router().frames_dropped();

    const auto t0 = Clock::now();
    pol.run(arr.size(), [&](std::size_t a) {
      const auto c0 = Clock::now();
      s.user(arr[a].user)
          .submit_update(arr[a].born_round,
                         std::span<const rep>(arr[a].update));
      busy[a] = seconds_since(c0);
    });
    const auto t1 = Clock::now();
    s.pump();
    const auto t2 = Clock::now();
    s.server().begin_recovery(in.now);
    s.pump();
    const auto t3 = Clock::now();
    Output out = s.server().finish_cycle(in.now);
    const auto t4 = Clock::now();
    s.pump();
    const auto t5 = Clock::now();

    tr.submit = seconds_between(t0, t1);
    tr.submit_busy = sum(busy);
    tr.fanin = seconds_between(t1, t2);
    tr.recovery = seconds_between(t2, t3);
    tr.finish = seconds_between(t3, t4);
    tr.result = seconds_between(t4, t5);
    tr.decode = s.server().codec().last_decode_stats();
    tr.encodes = encodes() - encodes0;
    tr.frames_dropped = s.router().frames_dropped() - dropped0;
    tr.transport = delta(before, lsa::transport::snapshot());
    tr.wall = seconds_since(w0);
    return out;
  }

  static bool same(const Output& a, const Output& b) {
    return a.weight_sum == b.weight_sum && a.weighted_sum == b.weighted_sum;
  }
  bool check(const Input& in, const Output& out) const {
    return same(out, in.expected);
  }
  void after(const Input&) {}

  [[nodiscard]] lsa::sys::ExecPolicy exec() const {
    return paper_params(pool_).exec;
  }

  // Serial reference: runtime::AsyncNetwork driven over the same cycles at
  // the same seed must reproduce every output bit for bit.
  std::uint64_t reference_mismatches(const std::vector<std::uint64_t>& cycles,
                                     const std::vector<Output>& outputs) const {
    auto cfg = config();
    cfg.params.exec = {};
    lsa::runtime::AsyncNetwork ref(cfg.params, cfg.buffer_k, cfg.staleness,
                                   cfg.c_g, cfg.seed);
    std::uint64_t bad = 0;
    for (std::size_t k = 0; k < cycles.size(); ++k) {
      const auto now = scheduler_.now_for_cycle(cycles[k]);
      const auto arrivals = scheduler_.arrivals_for_cycle(cycles[k]);
      if (!same(ref.run_cycle(now, arrivals), outputs[k])) ++bad;
    }
    return bad;
  }

 private:
  lsa::server::AsyncSession& session() {
    return server_->async_session(sid_);
  }

  std::uint64_t encodes() {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kUsers; ++i) {
      total += session().user(i).offline_encodes();
    }
    return total;
  }

  std::uint64_t seed_;
  lsa::sys::ThreadPool& pool_;
  lsa::runtime::ArrivalScheduler scheduler_;
  std::unique_ptr<lsa::server::AggregationServer> server_;
  std::uint64_t sid_ = 0;
};

// ------------------------------------------------- session workload driver

std::uint64_t step_id(const SyncWorkload::Input& in) { return in.round; }
std::uint64_t step_id(const AsyncWorkload::Input& in) { return in.cycle; }

// Runs one step guarded: a throw or a wrong output is a failed step.
template <class W, class Fn>
bool guarded(Report& report, const W& w, const typename W::Input& in,
             Fn&& fn, typename W::Output* keep = nullptr) {
  bool ok = false;
  try {
    auto out = fn();
    ok = w.check(in, out);
    if (!ok) {
      report.fail("wrong aggregate at step " + std::to_string(step_id(in)));
    }
    if (keep != nullptr) *keep = std::move(out);
  } catch (const std::exception& e) {
    report.fail(std::string("step threw: ") + e.what());
  }
  report.note_step(ok);
  return ok;
}

// One untraced step through the server's own driver; `seconds` is its
// wall time. Async arrivals are moved into the session queue first (an
// input hand-off, not part of the step).
template <class W>
typename W::Output timed_run(W& w, typename W::Input& in, double& seconds) {
  if constexpr (std::is_same_v<W, AsyncWorkload>) {
    w.enqueue(in);
    const auto t0 = Clock::now();
    auto out = w.run_enqueued();
    seconds = seconds_since(t0);
    return out;
  } else {
    const auto t0 = Clock::now();
    auto out = w.run(in);
    seconds = seconds_since(t0);
    return out;
  }
}

// Opens a fresh session and runs step 0; returns the wall time of both.
template <class W>
double open_to_steady(W& w, Report& report) {
  auto in = w.make_input(0);
  const auto t0 = Clock::now();
  w.open();
  double unused = 0.0;
  const bool ok =
      guarded(report, w, in, [&] { return timed_run(w, in, unused); });
  const double s = seconds_since(t0);
  w.after(in);
  if (!ok) throw std::runtime_error("setup step failed");
  return s;
}

// Cycles replayed through the serial AsyncNetwork reference per run (each
// costs about three parallel cycles); every cycle is also checked against
// the plain staleness-weighted sum.
constexpr std::size_t kReferenceCycles = 3;

template <class W>
void run_untraced(W& w, const Options& o, Report& report) {
  const char* name = o.workload.c_str();
  std::vector<double> setups;
  for (int r = 0; r < kSetupReps; ++r) {
    setups.push_back(open_to_steady(w, report));
  }
  // Closed loop on the last session from step 1 until `seconds` of step
  // time and kMinSteps are measured.
  std::vector<double> latency;
  std::vector<std::uint64_t> kept_ids;
  std::vector<typename W::Output> kept;
  lsa::transport::CountersSnapshot moved{};
  double window = 0.0;
  for (std::uint64_t id = 1; window < o.seconds || latency.size() < kMinSteps;
       ++id) {
    auto in = w.make_input(id);
    double dt = 0.0;
    typename W::Output out;
    const auto before = lsa::transport::snapshot();
    const bool ok = guarded(report, w, in,
                            [&] { return timed_run(w, in, dt); }, &out);
    const auto d = delta(before, lsa::transport::snapshot());
    moved.payload_bytes_framed += d.payload_bytes_framed;
    moved.payload_copies += d.payload_copies;
    w.after(in);
    if (!ok) break;
    window += dt;
    latency.push_back(dt);
    if constexpr (std::is_same_v<W, AsyncWorkload>) {
      if (kept.size() < kReferenceCycles) {
        kept_ids.push_back(id);
        kept.push_back(std::move(out));
      }
    }
  }
  const double rss = peak_rss_mb();
  if (moved.payload_copies != 0) {
    report.fail("send-side payload copies in the timed window");
  }
  w.close();
  if constexpr (std::is_same_v<W, AsyncWorkload>) {
    const auto bad = w.reference_mismatches(kept_ids, kept);
    if (bad != 0) {
      report.fail(std::to_string(bad) +
                  " cycles differ from the serial AsyncNetwork drive");
      report.note_steps(0, bad);
    }
  }
  const Tail tail = tail_of(latency);
  report.add("setup_s", "s", median(setups));
  report.add("round_s_p50", "s", median(latency));
  report.add("round_s_tail", "s", tail.value);
  report.add("rounds_per_s", "1/s",
             ratio(static_cast<double>(latency.size()), window));
  report.add("peak_rss_mb", "MB", rss);
  report.add("payload_mb_per_s", "MB/s",
             ratio(static_cast<double>(moved.payload_bytes_framed) / 1e6,
                   window));
  print_distribution(name, "setup_s", setups, "s");
  print_distribution(name, "round_s", latency, "s");
  info(name, "round_s_tail.percentile", tail.percentile, "pct");
  info(name, "failed_ratio",
       ratio(static_cast<double>(report.failed()),
             static_cast<double>(report.attempted())),
       "ratio");
  info(name, "send_payload_copies", static_cast<double>(moved.payload_copies),
       "count");
}

// Traced run: two sessions at the same seed step through the same inputs,
// `plain` through the server's driver and `traced` replayed through public
// calls with spans, alternating which goes first. Both outputs are checked
// against the same expected value, so a passing step is bit-identical in the
// two; the paired step times give the tracing overhead.
template <class W>
void run_traced(W& plain, W& traced, const Options& o, Report& report) {
  (void)open_to_steady(plain, report);
  (void)open_to_steady(traced, report);
  std::vector<double> untraced_latency;
  std::vector<StepTrace> traces;
  double window = 0.0;
  for (std::uint64_t id = 1;
       window < o.seconds || traces.size() < kMinSteps; ++id) {
    auto in = traced.make_input(id);
    auto in_plain = in;  // the plain step consumes its copy
    double dt = 0.0;
    StepTrace tr;
    auto step_plain = [&] {
      return guarded(report, plain, in_plain,
                     [&] { return timed_run(plain, in_plain, dt); });
    };
    auto step_traced = [&] {
      return guarded(report, traced, in,
                     [&] { return traced.run_traced(in, tr); });
    };
    bool ok = false;
    if (id % 2 == 1) {
      ok = step_plain() && step_traced();
    } else {
      ok = step_traced() && step_plain();
    }
    plain.after(in);
    traced.after(in);
    if (!ok) break;
    window += dt + tr.wall;
    untraced_latency.push_back(dt);
    traces.push_back(tr);
  }
  plain.close();
  traced.close();
  LayerMetrics m;
  fold_traces(traces, m);
  m.overhead_ratio = ratio(m.step_s, median(untraced_latency));
  time_primitives(o.seed, traced.exec(), m);
  if (m.send_payload_copies != 0) {
    report.fail("send-side payload copies in a traced step");
  }
  if (m.accounted_ratio < 0.95) {
    std::fprintf(stderr,
                 "perfbench: warning: phases cover %.3f of the traced step "
                 "wall time\n",
                 m.accounted_ratio);
  }
  m.emit(report);
}

// --------------------------------------------------------------- uds relay

namespace sock = lsa::transport::socket;

// One hub, one sender client, one receiver client over UDS, each endpoint
// on its own thread (hub and receiver threads here; the sender is the
// caller). The receiver checks every frame's sequence number (the wire
// round field) and payload as it arrives.
class Relay {
 public:
  Relay(const std::string& path,
        const std::vector<std::vector<rep>>& payloads, std::uint64_t seed)
      : payloads_(payloads), seed_(seed) {
    const auto t0 = Clock::now();
    const auto addr = sock::SocketAddr::parse("uds://" + path);
    hub_ = sock::SocketTransport::listen(addr);
    sock::SessionHooks hooks;
    hooks.on_frame = [](const sock::Inbound&) {};
    hooks.on_bind = [](std::uint32_t, bool) {};
    hooks.on_disconnect = [](std::uint32_t) {};
    (void)hub_->register_session(0, 2, std::move(hooks));
    try {
      hub_thread_ = std::thread([this] {
        try {
          while (!stop_.load(std::memory_order_acquire)) hub_->poll(2);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: hub: %s\n", e.what());
          thread_error_.store(true);
          wake();
        }
      });
      receiver_thread_ = std::thread([this, addr] { receive(addr); });
      sender_ = sock::SocketTransport::connect(addr, 0, 0, 2);
      sender_->wait_handshake(kRelayWaitMs);
      while (!receiver_ready_.load(std::memory_order_acquire)) {
        if (thread_error_.load()) {
          throw std::runtime_error("relay receiver failed to connect");
        }
        std::this_thread::yield();
      }
    } catch (...) {
      stop_threads();
      throw;
    }
    setup_s_ = seconds_since(t0);
  }

  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  ~Relay() { stop_threads(); }

  [[nodiscard]] double setup_s() const { return setup_s_; }

  // Payload of frame `seq`: one of the seeded payloads, picked by (seed, seq).
  [[nodiscard]] std::size_t payload_of(std::uint64_t seq) const {
    return static_cast<std::size_t>(mix(seed_, 0xf4a3, seq) % kRelayPayloads);
  }

  struct Burst {
    double wall = 0.0;
    double send = 0.0;  // traced: busy in send_row + flush_pending
    double wait = 0.0;  // traced: waiting for the receiver's last frame
    bool ok = false;
  };

  // One step: kRelayFrames frames out, then wait until the receiver has
  // taken (and checked) every one.
  Burst burst(bool traced) {
    Burst b;
    const auto t0 = Clock::now();
    target_.store(next_seq_ + kRelayFrames);
    for (std::size_t f = 0; f < kRelayFrames; ++f) {
      const std::uint64_t seq = next_seq_++;
      sender_->send_row(lsa::runtime::MsgType::kEncodedMaskShare, 0, 1, seq,
                        std::span<const rep>(payloads_[payload_of(seq)]));
    }
    sender_->flush_pending(kRelayWaitMs);
    Clock::time_point t1{};
    if (traced) {
      b.send = seconds_since(t0);
      t1 = Clock::now();
    }
    bool done = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      done = landed_.wait_until(
          lk, t0 + std::chrono::milliseconds(kRelayWaitMs), [&] {
            return received_.load() >= next_seq_ || bad_.load() != 0 ||
                   thread_error_.load();
          });
    }
    if (traced) b.wait = seconds_since(t1);
    b.wall = seconds_since(t0);
    b.ok = done && received_.load() == next_seq_ && bad_.load() == 0 &&
           !thread_error_.load();
    return b;
  }

  [[nodiscard]] std::uint64_t sent() const { return next_seq_; }
  [[nodiscard]] std::uint64_t received() const { return received_.load(); }
  [[nodiscard]] std::uint64_t bad() const { return bad_.load(); }
  [[nodiscard]] bool thread_error() const { return thread_error_.load(); }

  // Hub counters; the hub thread is stopped first (the stats are its own).
  sock::SocketStats stop_and_hub_stats() {
    stop_threads();
    return hub_->stats();
  }

 private:
  void stop_threads() {
    stop_.store(true, std::memory_order_release);
    if (receiver_thread_.joinable()) receiver_thread_.join();
    if (hub_thread_.joinable()) hub_thread_.join();
  }

  void receive(const sock::SocketAddr& addr) {
    try {
      auto t = sock::SocketTransport::connect(addr, 0, 1, 2);
      std::uint64_t expect = 0;
      t->set_sink([&](const sock::Inbound& in) {
        const auto& want = payloads_[payload_of(expect)];
        const bool good =
            in.view.round == expect && in.view.payload.size() == want.size() &&
            std::memcmp(in.view.payload.data(), want.data(),
                        4 * want.size()) == 0;
        if (!good) bad_.fetch_add(1);
        ++expect;
        received_.store(expect);
        if (expect == target_.load() || !good) wake();
      });
      t->wait_handshake(kRelayWaitMs);
      receiver_ready_.store(true, std::memory_order_release);
      while (!stop_.load(std::memory_order_acquire)) t->poll(2);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: receiver: %s\n", e.what());
      thread_error_.store(true);
      wake();
    }
  }

  // The sender sleeps on landed_ until the burst's last frame is checked.
  void wake() {
    std::lock_guard<std::mutex> lk(mu_);
    landed_.notify_all();
  }

  const std::vector<std::vector<rep>>& payloads_;
  std::uint64_t seed_;
  std::unique_ptr<sock::SocketTransport> hub_;
  std::unique_ptr<sock::SocketTransport> sender_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> receiver_ready_{false};
  std::atomic<bool> thread_error_{false};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> target_{0};
  std::atomic<std::uint64_t> bad_{0};
  std::mutex mu_;
  std::condition_variable landed_;
  // Last: the threads use every member above.
  std::thread hub_thread_;
  std::thread receiver_thread_;
  std::uint64_t next_seq_ = 0;
  double setup_s_ = 0.0;
};

// Relay bursts until `seconds` of burst time and kMinSteps are measured.
// With `trace` set, bursts alternate untraced and traced.
struct RelaySteps {
  std::vector<double> wall;
  std::vector<Relay::Burst> traced;
  bool ok = true;
};

RelaySteps relay_loop(Relay& relay, double seconds, bool trace) {
  RelaySteps r;
  double window = 0.0;
  for (std::uint64_t k = 0; window < seconds || r.wall.size() < kMinSteps;
       ++k) {
    const bool traced = trace && k % 2 == 1;
    const auto b = relay.burst(traced);
    if (!b.ok) {
      r.ok = false;
      break;
    }
    window += b.wall;
    if (traced) {
      r.traced.push_back(b);
    } else {
      r.wall.push_back(b.wall);
    }
  }
  return r;
}

void run_relay(const Options& o, Report& report) {
  const char* name = o.workload.c_str();
  std::vector<std::vector<rep>> payloads(kRelayPayloads);
  for (std::size_t p = 0; p < kRelayPayloads; ++p) {
    lsa::common::Xoshiro256ss rng(mix(o.seed, 0x9a710ad, p));
    payloads[p] = lsa::field::uniform_vector<Fp>(kRelayWords, rng);
  }
  // The socket file lives in the build directory of the checkout.
  const std::string path =
      ".bench_build/relay-" + std::to_string(getpid()) + ".sock";
  const double frame_mb = 4.0 * kRelayWords / 1e6;

  std::vector<double> setups;
  const int reps = o.trace ? 1 : kRelaySetupReps;
  for (int r = 0; r + 1 < reps; ++r) {
    Relay warm(path, payloads, o.seed);
    setups.push_back(warm.setup_s());
  }
  Relay relay(path, payloads, o.seed);
  setups.push_back(relay.setup_s());

  const auto before = lsa::transport::snapshot();
  const auto steps = relay_loop(relay, o.seconds, o.trace);
  const double rss = peak_rss_mb();
  const auto d = delta(before, lsa::transport::snapshot());
  const auto hub = relay.stop_and_hub_stats();

  const std::uint64_t lost = relay.sent() - relay.received();
  report.note_steps(relay.sent(), lost + relay.bad());
  if (!steps.ok || relay.thread_error()) {
    report.fail("relay frames lost, corrupt or out of order");
  }
  if (d.payload_copies != 0) report.fail("send-side payload copies");
  if (hub.protocol_errors != 0) report.fail("hub protocol errors");

  if (!o.trace) {
    const double window = sum(steps.wall);
    const Tail tail = tail_of(steps.wall);
    const double frames = static_cast<double>(steps.wall.size()) *
                          static_cast<double>(kRelayFrames);
    report.add("setup_s", "s", median(setups));
    report.add("round_s_p50", "s", median(steps.wall));
    report.add("round_s_tail", "s", tail.value);
    report.add("rounds_per_s", "1/s",
               ratio(static_cast<double>(steps.wall.size()), window));
    report.add("peak_rss_mb", "MB", rss);
    report.add("payload_mb_per_s", "MB/s", ratio(frames * frame_mb, window));
    print_distribution(name, "setup_s", setups, "s");
    print_distribution(name, "round_s", steps.wall, "s");
    info(name, "round_s_tail.percentile", tail.percentile, "pct");
    info(name, "relay_mb_per_s", ratio(frames * frame_mb, window), "MB/s");
    info(name, "failed_ratio",
         ratio(static_cast<double>(report.failed()),
               static_cast<double>(report.attempted())),
         "ratio");
    return;
  }
  // The relay step has two phases: sending (send_row + flush_pending) and
  // waiting for the receiver to take the last frame.
  std::vector<double> wall, send, unaccounted;
  double accounted = 0.0, total = 0.0;
  for (const auto& b : steps.traced) {
    wall.push_back(b.wall);
    send.push_back(b.send);
    unaccounted.push_back(b.wall - b.send - b.wait);
    accounted += b.send + b.wait;
    total += b.wall;
  }
  const double bursts =
      static_cast<double>(steps.wall.size() + steps.traced.size());
  LayerMetrics m;
  m.step_s = median(wall);
  m.socket_send_s = median(send);
  m.unaccounted_s = median(unaccounted);
  m.accounted_ratio = ratio(accounted, total);
  m.overhead_ratio = ratio(m.step_s, median(steps.wall));
  m.frames_per_step = ratio(static_cast<double>(d.frames_built), bursts);
  m.payload_mb_per_step =
      ratio(static_cast<double>(d.payload_bytes_framed) / 1e6, bursts);
  m.pool_reuse_ratio =
      ratio(static_cast<double>(d.pool_reuses),
            static_cast<double>(d.pool_allocs + d.pool_reuses));
  m.send_payload_copies = static_cast<double>(d.payload_copies);
  m.socket_frames_relayed = static_cast<double>(hub.frames_relayed);
  m.socket_frames_dropped = static_cast<double>(hub.frames_dropped);
  m.socket_protocol_errors = static_cast<double>(hub.protocol_errors);
  m.emit(report);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
#ifndef NDEBUG
  constexpr bool kOptimized = false;
#else
  constexpr bool kOptimized = true;
#endif
  if (!kOptimized || std::strcmp(LSA_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 LSA_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const bool known = o.workload == "sync_fresh" ||
                     o.workload == "sync_steady" ||
                     o.workload == "async_buffered" ||
                     o.workload == "uds_relay";
  if (!known) usage(("unknown workload " + o.workload).c_str());
  print_fingerprint(o);

  Report report;
  try {
    if (o.workload == "uds_relay") {
      run_relay(o, report);
    } else {
      lsa::sys::ThreadPool pool(kPoolWorkers);
      auto run = [&](auto make) {
        auto w = make();
        if (!o.trace) {
          run_untraced(w, o, report);
        } else {
          auto replay = make();
          run_traced(w, replay, o, report);
        }
      };
      if (o.workload == "async_buffered") {
        run([&] { return AsyncWorkload(o.seed, pool); });
      } else {
        run([&] {
          return SyncWorkload(o.workload == "sync_steady", o.seed, pool);
        });
      }
    }
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
    report.note_step(false);
  }
  report.print(o.workload.c_str());
  return report.correct() ? 0 : 1;
}
