// End-to-end request-path benchmark (README.md has the workloads and
// the metric dictionary).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   e2e_bench --selftest [--out-dir DIR]
//
// Prints each metric as "workload name value unit", then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits non-zero when an output check fails or a request failed.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.hpp"

namespace e2e {
namespace {

constexpr double kWarmupS = 2.0;
/// Each run sets the cluster up this many times and reports the median
/// set-up time; the last set-up is measured.
constexpr int kSetups = 5;
constexpr double kEchoS = 3.0;
/// The --seconds budget splits 12:5 between the nominal and peak phases.
constexpr double kNominalShare = 12.0 / 17.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 17;
  bool trace = false;
  bool selftest = false;
  std::string out_dir = "build/e2e-bench";
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return std::nullopt;
    }
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (!a.selftest && (find_workload(a.workload) == nullptr || a.seconds <= 0)) {
    return std::nullopt;
  }
  return a;
}

/// Nearest-rank percentile (p in (0, 100]) of ns samples, in us.
double percentile_us(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  const auto rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(idx), v.end());
  // A failed request counts as the timeout.
  const std::int64_t x = std::min(v[idx], kTimeoutNs);
  return double(x) * 1e-3;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

double cpu_us_per_op(const PhaseResult& r) {
  return per(r.node_cpu_s * 1e6, double(r.acked));
}

// The gated CPU metrics are medians over the phase's one-second
// windows, so a stall or steal burst inside a run moves them little.
// With `step` 2, only every other window from `first` counts.
double window_cpu_us_per_op(const PhaseResult& r, std::size_t first = 0,
                            std::size_t step = 1) {
  std::vector<double> v;
  for (std::size_t i = first; i < r.windows.size(); i += step) {
    const auto& w = r.windows[i];
    if (w.acked > 0) v.push_back(w.node_cpu_s * 1e6 / double(w.acked));
  }
  return v.empty() ? 0 : median(v);
}

std::string data_dir(const Args& a, const std::string& what) {
  return a.out_dir + "/" + what + "-" + std::to_string(::getpid());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct LiveRun {
  std::vector<double> setup_s;
  PhaseResult nominal;
  PhaseResult peak;
  Counters nominal_c;
  Counters peak_c;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t nominal_first = 0;
  std::vector<ClientSpan> spans;

  void tally(const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  }
};

/// Set up (`setups` times), warm up, then the nominal and peak phases,
/// then the output checks.
LiveRun run_live(const Workload& w, const Args& a, int setups,
                 bool record_spans) {
  LiveRun run;
  const double nominal_s = a.seconds * kNominalShare;
  const double peak_s = a.seconds - nominal_s;
  Pool pool;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Generator> gen;
  for (int k = 0; k < setups; ++k) {
    gen.reset();
    cluster.reset();
    const std::int64_t t0 = now_ns();
    pool = make_pool(w, a.seed, make_ring());
    cluster = std::make_unique<Cluster>(
        w, data_dir(a, "data" + std::to_string(k)));
    gen = std::make_unique<Generator>(cluster->endpoints(), pool);
    run.tally(gen->populate(w.peak_window));
    run.setup_s.push_back(double(now_ns() - t0) * 1e-9);
  }
  std::uint64_t first = 0;
  run.tally(gen->open_loop(kWarmup, a.seed, w.nominal_rate, kWarmupS, first));
  const Counters c0 = cluster->counters();
  run.nominal_first = first;
  if (record_spans) gen->record_spans(&run.spans);
  run.nominal =
      gen->open_loop(kNominal, a.seed, w.nominal_rate, nominal_s, first);
  gen->record_spans(nullptr);
  run.tally(run.nominal);
  const Counters c1 = cluster->counters();
  run.peak = gen->closed_window(w.peak_window, peak_s);
  run.tally(run.peak);
  const Counters c2 = cluster->counters();
  run.nominal_c = c1.since(c0);
  run.peak_c = c2.since(c1);
  run.violations = cluster->check(w.population);
  return run;
}

std::vector<Metric> client_metrics(const LiveRun& run) {
  const PhaseResult& n = run.nominal;
  const std::size_t samples = n.latency_ns.size();
  return {
      {"client.p50_us", percentile_us(n.latency_ns, 50), "us"},
      {"client.p99_us", percentile_us(n.latency_ns, 99), "us"},
      // p99.9 needs ten samples beyond it; 0 marks "not supported".
      {"client.p999_us",
       samples >= 10'000 ? percentile_us(n.latency_ns, 99.9) : 0, "us"},
      {"client.samples", double(samples), "count"},
      {"client.peak_ops_per_s", per(double(run.peak.acked), run.peak.wall_s),
       "1/s"},
      {"client.gen_late_p99_us", percentile_us(n.late_ns, 99), "us"},
      {"client.steal_frac",
       per(double(n.steal_ticks + run.peak.steal_ticks),
           double(n.total_ticks + run.peak.total_ticks)),
       "ratio"},
      {"client.backlog_max", double(n.backlog_max), "count"},
  };
}

void print_metrics(const Workload& w, const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("%-14s %-28s %16.4f %s\n", std::string(w.name).c_str(),
                m.name.c_str(), m.value, m.unit);
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

bool report_violations(const Workload& w, const LiveRun& run) {
  for (const auto& v : run.violations) {
    std::printf("%-14s CHECK FAILED: %s\n", std::string(w.name).c_str(),
                v.c_str());
  }
  return run.violations.empty() && run.failed == 0;
}

/// Chrome trace_event JSON: the nominal phase's request spans (pid 1,
/// one thread per node) and the replay's timed calls (pid 2).
void write_trace(const std::string& path, const std::vector<ClientSpan>& client,
                 const std::vector<ReplaySpan>& replayed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\":[", f);
  const std::int64_t origin = client.empty() ? 0 : client.front().due;
  std::size_t events = 0;
  for (const auto& s : client) {
    std::fprintf(f,
                 "%s{\"name\":\"request\",\"cat\":\"client\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"late_us\":%.3f,\"ok\":%s}}",
                 events++ == 0 ? "" : ",", unsigned(s.node),
                 double(s.due - origin) * 1e-3,
                 double(s.replied - s.due) * 1e-3, s.id,
                 double(s.sent - s.due) * 1e-3, s.ok ? "true" : "false");
  }
  for (const auto& s : replayed) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"replay\",\"ph\":\"X\","
                 "\"pid\":2,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}",
                 events++ == 0 ? "" : ",", layer_metric(s.layer),
                 double(s.start) * 1e-3, double(s.dur) * 1e-3);
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

int run_untraced(const Workload& w, const Args& a) {
  const LiveRun run = run_live(w, a, kSetups, false);
  const std::vector<Metric> e2e = {
      {"cpu_us_per_op", window_cpu_us_per_op(run.nominal), "us"},
      {"peak_cpu_us_per_op", window_cpu_us_per_op(run.peak), "us"},
      {"setup_s", median(run.setup_s), "s"},
  };
  print_metrics(w, e2e);
  print_metrics(w, {{"fail_ratio", per(double(run.failed),
                                       double(run.attempted)),
                     "ratio"}});
  print_metrics(w, client_metrics(run));
  const bool correct = report_violations(w, run);
  print_json(correct, run.attempted, run.failed, e2e);
  return correct ? 0 : 1;
}

int run_traced(const Workload& w, const Args& a) {
  const double nominal_s = a.seconds * kNominalShare;
  const LiveRun traced = run_live(w, a, 1, true);
  const Pool pool = make_pool(w, a.seed, make_ring());

  // The transport alone: the same frames at the same rate to one echo
  // server per node, each on its node's CPU.
  PhaseResult echo;
  {
    std::vector<std::unique_ptr<EchoServer>> servers;
    std::vector<net::Endpoint> endpoints;
    for (std::size_t i = 0; i < kNodes; ++i) {
      servers.push_back(std::make_unique<EchoServer>(1 + i));
      endpoints.push_back(servers.back()->endpoint());
    }
    Generator gen(endpoints, pool);
    std::uint64_t first = 0;
    echo = gen.open_loop(kEcho, a.seed, w.nominal_rate, kEchoS, first);
  }
  const double peak_ops_per_tick =
      per(double(traced.peak.acked), double(traced.peak_c.tick.count));
  const ReplayResult rep =
      replay(w, pool, a.seed, traced.nominal_first, nominal_s,
             peak_ops_per_tick, data_dir(a, "replay"));
  const std::string trace_path =
      a.out_dir + "/trace-" + std::string(w.name) + ".json";
  write_trace(trace_path, traced.spans, rep.spans);

  const double ops = double(rep.requests);
  const auto layer_us = [&](Layer l) { return per(rep.layer_ns[l], ops) * 1e-3; };
  const Counters& nc = traced.nominal_c;
  const double acked = double(traced.nominal.acked);
  const double frames_per_op = per(double(nc.frames), acked);
  const double echo_cpu = cpu_us_per_op(echo);
  const double cpu = cpu_us_per_op(traced.nominal);
  const double replay_us = per(rep.wall_ns, ops) * 1e-3;

  std::vector<Metric> ms = client_metrics(traced);
  const std::vector<Metric> rest = {
      {"net.frames_per_op", frames_per_op, "count"},
      {"net.bytes_per_op", per(double(nc.bytes), acked), "B"},
      {"net.frames_per_flush",
       per(double(traced.peak_c.frames_sent), double(traced.peak_c.flushes)),
       "count"},
      {"net.ops_per_tick", peak_ops_per_tick, "count"},
      {"net.loop_tick_p50_us", nc.tick.percentile(50), "us"},
      {"net.echo_cpu_us_per_op", echo_cpu, "us"},
      {"wire.decode_request_us", layer_us(kDecodeRequest), "us"},
      {"wire.encode_reply_us", layer_us(kEncodeReply), "us"},
      {"wire.encode_peer_us", layer_us(kEncodePeer), "us"},
      {"wire.decode_peer_us", layer_us(kDecodePeer), "us"},
      {"clash.handle_self_us", layer_us(kHandleSelf), "us"},
      {"clash.table_lookup_us", rep.table_lookup_ns * 1e-3, "us"},
      {"repl.flush_self_us", layer_us(kFlushSelf), "us"},
      {"repl.apply_us", layer_us(kApply), "us"},
      {"repl.ack_us", layer_us(kAck), "us"},
      {"repl.snapshot_us", layer_us(kSnapshot), "us"},
      {"repl.entries_per_append", rep.peak_entries_per_append, "count"},
      {"repl.snapshot_objects_per_op", per(double(rep.snapshot_objects), ops),
       "count"},
      {"repl.commit_p50_us", nc.commit.percentile(50), "us"},
      {"storage.append_us", layer_us(kAppend), "us"},
      {"storage.fsync_us", layer_us(kFsync), "us"},
      {"storage.snapshot_write_us", layer_us(kSnapshotWrite), "us"},
      {"storage.fsyncs_per_op", per(double(rep.syncs), ops), "count"},
      {"storage.wal_bytes_per_op", per(double(rep.wal_bytes), ops), "B"},
      {"storage.snapshot_bytes_per_op", per(double(rep.snapshot_bytes), ops),
       "B"},
      {"obs.span_record_ns", rep.span_record_ns, "ns"},
      {"obs.counter_inc_ns", rep.counter_inc_ns, "ns"},
      {"obs.histogram_record_ns", rep.histogram_record_ns, "ns"},
      {"trace.replay_us_per_op", replay_us, "us"},
      {"trace.glue_frac", per(rep.wall_ns - rep.timed_ns, rep.wall_ns),
       "ratio"},
      // The echo prices one frame in and one out per request.
      {"trace.attributed_frac",
       per(replay_us + echo_cpu * frames_per_op / 2, cpu), "ratio"},
      // Spans are recorded in the even nominal windows only; the odd
      // ones are the same run untraced.
      {"trace.overhead_frac",
       per(window_cpu_us_per_op(traced.nominal, 0, 2),
           window_cpu_us_per_op(traced.nominal, 1, 2)) - 1,
       "ratio"},
  };
  ms.insert(ms.end(), rest.begin(), rest.end());
  print_metrics(w, ms);
  std::printf("%-14s trace written to %s\n", std::string(w.name).c_str(),
              trace_path.c_str());
  const bool correct = report_violations(w, traced) && echo.failed == 0;
  print_json(correct, traced.attempted + echo.attempted,
             traced.failed + echo.failed, ms);
  return correct ? 0 : 1;
}

/// Inject one wrong-depth request and one request to a non-owner into
/// a short run; both must be counted as failures, nothing else.
int run_selftest(const Args& a) {
  Workload w = *find_workload("put_rf0");
  w.population = 1024;
  constexpr double kRate = 500;
  Pool pool = make_pool(w, a.seed, make_ring());
  pool.requests[3].depth = kDepth - 1;
  encode_request(pool, 3);
  pool.requests[4].node = std::uint8_t((pool.requests[4].node + 1) % kNodes);
  Cluster cluster(w, data_dir(a, "selftest"));
  Generator gen(cluster.endpoints(), pool);
  const PhaseResult setup = gen.populate(w.peak_window);
  std::uint64_t first = 0;
  const PhaseResult r = gen.open_loop(kNominal, a.seed, kRate, 1.0, first);
  const auto violations = cluster.check(w.population);
  for (const auto& v : violations) std::printf("CHECK FAILED: %s\n", v.c_str());
  const std::uint64_t attempted = setup.attempted + r.attempted;
  const std::uint64_t failed = setup.failed + r.failed;
  const bool pass = violations.empty() && setup.failed == 0 && r.failed == 2 &&
                    r.attempted > 4;
  std::printf("selftest: %llu of %llu requests failed (2 injected), "
              "fail_ratio %.6f -> %s\n",
              (unsigned long long)failed, (unsigned long long)attempted,
              per(double(failed), double(attempted)), pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  std::optional<e2e::Args> args;
  try {
    args = e2e::parse(argc, argv);
  } catch (const std::exception&) {  // a number that does not parse
  }
  if (!args) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] | --selftest\n");
    return 2;
  }
  // Connection flushes with writev(2), which raises SIGPIPE when the
  // peer has gone; nodes stopping one after another at teardown would
  // otherwise kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  e2e::pin_thread(0);
  try {
    std::filesystem::create_directories(args->out_dir);
    if (args->selftest) return e2e::run_selftest(*args);
    const e2e::Workload& w = *e2e::find_workload(args->workload);
    return args->trace ? e2e::run_traced(w, *args)
                       : e2e::run_untraced(w, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
