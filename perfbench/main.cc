// perfbench_tool: the compiled half of the daemon benchmark (run.py is the
// other half: it builds this tool and cliffhangerd, spawns and pins the
// daemon, and turns these JSON lines into the benchmark's metrics).
//
//   perfbench_tool selfcheck
//   perfbench_tool daemon-args --workload W
//   perfbench_tool load --workload W --seed N --port P [--pid PID]
//                       [--seconds S] [--slices K] [--client-cpus 2,3]
//                       [--setup-only]
//   perfbench_tool layers --workload W --seed N [--seconds S]
//                         [--server-cpus 0,1] [--client-cpus 2]
//                         [--spans FILE]
//
// Every subcommand prints one JSON object on stdout; diagnostics go to
// stderr. Exit code 0 means the tool ran; correctness is in the JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "loadgen.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::map<std::string, std::string> values;
  bool Has(const std::string& k) const { return values.count(k) != 0; }
  std::string Get(const std::string& k, const std::string& def = "") const {
    const auto it = values.find(k);
    return it == values.end() ? def : it->second;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return false;
    if (flag == "--setup-only") {
      args->values[flag] = "1";
    } else if (i + 1 < argc) {
      args->values[flag] = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

std::vector<int> ParseCpus(const std::string& list) {
  std::vector<int> cpus;
  size_t pos = 0;
  while (pos < list.size()) {
    const size_t comma = list.find(',', pos);
    cpus.push_back(std::atoi(list.substr(pos, comma - pos).c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return cpus;
}

std::string JsonList(const std::vector<double>& values) {
  std::string list = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", values[i]);
    list += buf;
  }
  return list + "]";
}

class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const char* key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Raw(const std::string& key, const std::string& v) {
    text_ += text_.empty() ? "{" : ", ";
    text_ += "\"" + key + "\": " + v;
    return *this;
  }
  void Print() const { std::printf("%s}\n", text_.empty() ? "{" : text_.c_str()); }

 private:
  std::string text_;
};

int Load(const Args& args, Workload w) {
  const uint64_t seed = std::strtoull(args.Get("--seed", "1").c_str(), nullptr, 10);
  const auto port = static_cast<uint16_t>(std::atoi(args.Get("--port").c_str()));
  const int pid = std::atoi(args.Get("--pid", "0").c_str());
  const double seconds = std::atof(args.Get("--seconds", "10").c_str());
  const auto slices = static_cast<size_t>(
      std::max(1, std::atoi(args.Get("--slices", "1").c_str())));

  LoadGen gen(w, seed, PinEventLoop(ParseCpus(args.Get("--client-cpus"))));
  std::string error;
  if (port == 0 || !gen.Connect(port, &error)) {
    std::fprintf(stderr, "perfbench: cannot reach port %u: %s\n", port,
                 error.c_str());
    return 1;
  }
  ErrorCounts setup_errors;
  const double setup_s = gen.Setup(&setup_errors);
  Json json;
  json.Num("setup_s", setup_s).Int("setup_errors", setup_errors.total());
  if (args.Has("--setup-only")) {
    json.Print();
    return 0;
  }
  const WindowResult r = gen.Measure(seconds, slices, pid);
  // Throughput and the p99s are medians of per-slice figures, so a stall
  // of the shared host during one slice does not swing a whole run. The
  // p50s and server CPU pool the whole window: the host drifts between
  // fast and slow spells lasting seconds, and a median of slices jumps
  // between them where a pooled figure moves with their share.
  std::vector<double> thr, get50, get99, set50, set99, all50, cpu;
  std::vector<uint32_t> all, all_get, all_set;
  const double slice_s = r.seconds / static_cast<double>(r.slices.size());
  for (const WindowResult::Slice& sl : r.slices) {
    std::vector<uint32_t> ops(sl.get_ns);
    ops.insert(ops.end(), sl.set_ns.begin(), sl.set_ns.end());
    all.insert(all.end(), ops.begin(), ops.end());
    all_get.insert(all_get.end(), sl.get_ns.begin(), sl.get_ns.end());
    all_set.insert(all_set.end(), sl.set_ns.begin(), sl.set_ns.end());
    thr.push_back(static_cast<double>(sl.completed) / slice_s);
    get50.push_back(PercentileUs(sl.get_ns, 0.50));
    get99.push_back(PercentileUs(sl.get_ns, 0.99));
    set50.push_back(PercentileUs(sl.set_ns, 0.50));
    set99.push_back(PercentileUs(sl.set_ns, 0.99));
    all50.push_back(PercentileUs(ops, 0.50));
    cpu.push_back(sl.server_cpu_s * 1e6 /
                  static_cast<double>(std::max<uint64_t>(1, sl.completed)));
  }
  json.Num("seconds", r.seconds)
      .Int("attempted", r.attempted)
      .Int("completed", r.completed)
      .Int("errors", r.errors.total())
      .Int("mismatch", r.errors.mismatch)
      .Int("unexpected", r.errors.unexpected)
      .Int("timeouts", r.errors.timeouts)
      .Int("dropped", r.errors.dropped)
      .Int("gets", r.gets)
      .Int("get_hits", r.get_hits)
      .Int("sets", r.sets)
      .Int("slices", r.slices.size())
      .Int("stream_first", r.stream_first)
      .Int("stream_end", r.stream_end)
      .Num("throughput_ops_s", Median(thr))
      .Num("get_p50_us", PercentileUs(all_get, 0.50))
      .Num("get_p99_us", Median(get99))
      .Num("set_p50_us", PercentileUs(all_set, 0.50))
      .Num("set_p99_us", Median(set99))
      .Num("server_cpu_us_per_op",
           r.server_cpu_s * 1e6 /
               static_cast<double>(std::max<uint64_t>(1, r.completed)))
      .Num("all_p50_us", PercentileUs(all, 0.50))
      .Num("lag_p99_us", PercentileUs(r.lag_ns, 0.99))
      .Num("client_cpu_s", r.client_cpu_s)
      .Num("server_cpu_s", r.server_cpu_s)
      .Int("server_ctx_switches", r.server_ctx_switches)
      .Raw("slice_all_p50_us", JsonList(all50))
      .Raw("slice_throughput_ops_s", JsonList(thr))
      .Raw("slice_get_p50_us", JsonList(get50))
      .Raw("slice_set_p50_us", JsonList(set50))
      .Raw("slice_server_cpu_us_per_op", JsonList(cpu))
      .Print();
  return 0;
}

int Layers(const Args& args, Workload w) {
  LayersConfig config;
  config.workload = w;
  config.seed = std::strtoull(args.Get("--seed", "1").c_str(), nullptr, 10);
  config.socket_seconds = std::atof(args.Get("--seconds", "4").c_str());
  config.server_cpus = ParseCpus(args.Get("--server-cpus"));
  config.client_cpus = ParseCpus(args.Get("--client-cpus"));
  config.spans_path = args.Get("--spans");
  const LayersResult res = RunLayers(config);
  Json json;
  json.Int("errors", res.errors);
  for (const auto& [name, value] : res.metrics) json.Num(name.c_str(), value);
  json.Print();
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s selfcheck | daemon-args | load | layers ...\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }
  if (cmd == "selfcheck") {
    std::string why;
    const bool ok = SelfCheckVerification(&why);
    if (!ok) std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    Json().Raw("ok", ok ? "true" : "false").Print();
    return 0;
  }
  Workload w;
  if (!ParseWorkload(args.Get("--workload"), &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.Get("--workload").c_str());
    return 2;
  }
  if (cmd == "daemon-args") {
    std::string list = "[";
    for (const std::string& a : DaemonArgs(w)) {
      list += (list.size() > 1 ? ", \"" : "\"") + a + "\"";
    }
    Json().Raw("args", list + "]").Print();
    return 0;
  }
  if (cmd == "load") return Load(args, w);
  if (cmd == "layers") return Layers(args, w);
  std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
