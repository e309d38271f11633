#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "core/cache_server.h"
#include "core/sharded_server.h"
#include "loadgen.h"
#include "net/ascii_protocol.h"
#include "net/cache_adapter.h"
#include "net/socket_server.h"
#include "sim/experiment.h"
#include "util/hashing.h"

namespace perfbench {

namespace {

using cliffhanger::CacheServer;
using cliffhanger::ItemMeta;
using cliffhanger::ServerConfig;
using cliffhanger::ShardedCacheServer;
using cliffhanger::ShardedServerConfig;
using cliffhanger::ValueOutcome;
using cliffhanger::ValueView;
namespace net = cliffhanger::net;

constexpr size_t kReplayOps = 200000;
constexpr size_t kSpansPerLog = 32768;

// ---------------------------------------------------------------------------
// Spans: one log per thread, kept in memory, written out at exit. A span id
// is its 1-based position in its log; parent 0 means a root span.
// ---------------------------------------------------------------------------
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t parent;
  uint64_t request_id;
};

class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) {
    spans_.reserve(kSpansPerLog);
  }
  uint64_t Add(const char* name, uint64_t start, uint64_t end,
               uint64_t parent, uint64_t request_id) {
    if (spans_.size() >= kSpansPerLog) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{name, start, end, parent, request_id});
    return spans_.size();
  }
  // A root span whose end is filled in by Close once its children ran.
  uint64_t Open(const char* name) { return Add(name, NowNs(), 0, 0, 0); }
  void Close(uint64_t id) {
    if (id != 0) spans_[id - 1].end_ns = NowNs();
  }
  void Write(std::ofstream& out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << thread_ << ',' << (i + 1) << ',' << s.name << ',' << s.start_ns
          << ',' << s.end_ns << ',' << s.parent << ',' << s.request_id
          << '\n';
    }
  }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

class SpanSink {
 public:
  SpanLog* NewLog(const std::string& thread) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<SpanLog>(
        thread + "-" + std::to_string(logs_.size())));
    return logs_.back().get();
  }
  void Write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return;
    out << "thread,span_id,name,start_ns,end_ns,parent,request_id\n";
    uint64_t dropped = 0;
    for (const auto& log : logs_) {
      log->Write(out);
      dropped += log->dropped();
    }
    std::fprintf(stderr, "perfbench: spans written to %s (%llu not kept)\n",
                 path.c_str(), static_cast<unsigned long long>(dropped));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

SpanSink& Sink() {
  static SpanSink sink;
  return sink;
}

// ---------------------------------------------------------------------------
// The replayed op stream, with the key identity the adapter would derive
// from the wire key (Fnv1a64 of the full key, app 1 for unprefixed keys).
// ---------------------------------------------------------------------------
struct ReplayOp {
  Op op;
  uint32_t app_id = 1;
  uint64_t key_id = 0;
  uint32_t key_size = 0;
};

ReplayOp ToReplay(const Op& op) {
  const std::string key = WireKey(op);
  return ReplayOp{op, op.app_id != 0 ? op.app_id : 1,
                  cliffhanger::Fnv1a64(key),
                  static_cast<uint32_t>(key.size())};
}

struct Replay {
  std::vector<Op> setup;
  std::vector<Op> measured;
};

Replay MakeReplay(Workload w, uint64_t seed) {
  OpStream stream(w, seed);
  Replay r;
  r.setup = stream.SetupOps();
  r.measured.reserve(kReplayOps);
  for (size_t i = 0; i < kReplayOps; ++i) r.measured.push_back(stream.Next());
  return r;
}

std::vector<ReplayOp> ToReplay(const std::vector<Op>& ops) {
  std::vector<ReplayOp> out;
  out.reserve(ops.size());
  for (const Op& op : ops) out.push_back(ToReplay(op));
  return out;
}

ServerConfig DaemonServerConfig() {
  // cliffhangerd's defaults: cliffhanger mode, LRU, values in the arenas.
  ServerConfig config = cliffhanger::CliffhangerServerConfig();
  config.eviction = cliffhanger::EvictionScheme::kLru;
  config.store_values = true;
  return config;
}

ShardedServerConfig DaemonShardedConfig() {
  ShardedServerConfig config;
  config.server = DaemonServerConfig();
  config.num_shards = 4;
  config.rebalance_interval_ops = 100000;
  return config;
}

template <typename Server>
void AddTenants(Server* server, Workload w) {
  for (const Tenant& t : TenantsOf(w)) {
    server->AddApp(t.app_id, t.reservation_mb << 20);
  }
}

// First-to-third quartile distance, linear interpolation (the same rule
// as Python's statistics.quantiles with method="exclusive").
double Iqr(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const auto q = [&](double p) {
    const double pos = p * static_cast<double>(v.size() + 1) - 1.0;
    const double lo = std::clamp(pos, 0.0, static_cast<double>(v.size() - 1));
    const auto i = static_cast<size_t>(lo);
    const double frac = lo - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
  };
  return q(0.75) - q(0.25);
}

// ---------------------------------------------------------------------------
// L0 / L1: value verbs. The in-process verb replays stamp the key id into
// a fixed pattern, so making and checking a payload costs a memcmp rather
// than a ReplayValueBytes call per op.
// ---------------------------------------------------------------------------
class Payloads {
 public:
  Payloads() : buf_(kMaxValue, '\0'), pattern_(kMaxValue, '\0') {
    for (size_t i = 0; i < kMaxValue; ++i) {
      pattern_[i] = static_cast<char>('a' + (i * 7) % 26);
    }
    buf_ = pattern_;
  }
  const char* For(const ReplayOp& r) {
    std::memcpy(buf_.data(), &r.key_id, std::min<size_t>(8, r.op.value_size));
    return buf_.data();
  }
  [[nodiscard]] bool Matches(const ReplayOp& r, const ValueView& v) const {
    const size_t stamp = std::min<size_t>(8, r.op.value_size);
    return v.size == r.op.value_size &&
           std::memcmp(v.data, &r.key_id, stamp) == 0 &&
           std::memcmp(v.data + stamp, pattern_.data() + stamp,
                       v.size - stamp) == 0;
  }

 private:
  static constexpr size_t kMaxValue = 1 << 16;
  std::string buf_;
  std::string pattern_;
};

struct VerbStats {
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t errors = 0;
  uint64_t hit_ns = 0;
  uint64_t miss_ns = 0;
  uint64_t set_ns = 0;
  uint64_t sets = 0;
  [[nodiscard]] uint64_t busy_ns() const { return hit_ns + miss_ns + set_ns; }
  void Merge(const VerbStats& o) {
    ops += o.ops;
    gets += o.gets;
    hits += o.hits;
    errors += o.errors;
    hit_ns += o.hit_ns;
    miss_ns += o.miss_ns;
    set_ns += o.set_ns;
    sets += o.sets;
  }
};

// Replays ops[begin], ops[begin + step], ... through `get` and `set`, each
// returning the nanoseconds spent inside the layer. A GET miss is followed
// by a demand-fill SET.
template <typename GetFn, typename SetFn>
VerbStats ReplayVerbs(const std::vector<ReplayOp>& ops, size_t begin,
                      size_t step, const char* get_name, const char* set_name,
                      SpanLog* log, GetFn get, SetFn set) {
  VerbStats st;
  const uint64_t root = log != nullptr ? log->Open(get_name) : 0;
  for (size_t i = begin; i < ops.size(); i += step) {
    const ReplayOp& r = ops[i];
    bool fill = !r.op.is_get;
    uint64_t start = NowNs();
    if (r.op.is_get) {
      bool hit = false, ok = true;
      const uint64_t ns = get(r, &hit, &ok);
      if (log != nullptr) log->Add(get_name, start, start + ns, root, i);
      ++st.ops;
      ++st.gets;
      st.errors += ok ? 0 : 1;
      if (hit) {
        ++st.hits;
        st.hit_ns += ns;
      } else {
        st.miss_ns += ns;
        fill = true;
      }
      start = NowNs();
    }
    if (fill) {
      const uint64_t ns = set(r);
      if (log != nullptr) log->Add(set_name, start, start + ns, root, i);
      ++st.ops;
      ++st.sets;
      st.set_ns += ns;
    }
  }
  if (log != nullptr) log->Close(root);
  return st;
}

uint32_t NowSeconds() { return static_cast<uint32_t>(std::time(nullptr)); }

struct CacheServerResult {
  VerbStats st;
  cliffhanger::ClassStats delta;
  uint64_t shadow_overhead_bytes = 0;
  uint64_t value_bytes = 0;
};

CacheServerResult RunCacheServer(Workload w, const std::vector<ReplayOp>& setup,
                                 const std::vector<ReplayOp>& measured) {
  CacheServer server(DaemonServerConfig());
  AddTenants(&server, w);
  Payloads payloads;
  const uint32_t now_s = NowSeconds();
  uint64_t cas = 0;
  const auto get = [&](const ReplayOp& r, bool* hit, bool* ok) {
    const uint64_t s = NowNs();
    const ValueOutcome vo =
        server.GetByKey(r.app_id, r.key_id, r.key_size, now_s, 0);
    const uint64_t ns = NowNs() - s;
    *hit = vo.valid;
    *ok = !vo.valid || payloads.Matches(r, vo.view);
    return ns;
  };
  const auto set = [&](const ReplayOp& r) {
    const ItemMeta item{r.key_id, r.key_size, r.op.value_size, 0, now_s};
    const char* data = payloads.For(r);
    const uint64_t s = NowNs();
    server.SetValue(r.app_id, item, data, 0, ++cas);
    return NowNs() - s;
  };
  CacheServerResult res;
  res.st = ReplayVerbs(setup, 0, 1, "", "", nullptr, get, set);
  const cliffhanger::ClassStats before = server.TotalStats();
  SpanLog* log = Sink().NewLog("cache_server");
  res.st = ReplayVerbs(measured, 0, 1, "cache_server.GetByKey",
                       "cache_server.SetValue", log, get, set);
  const cliffhanger::ClassStats after = server.TotalStats();
  res.delta.hill_shadow_hits = after.hill_shadow_hits - before.hill_shadow_hits;
  res.delta.cliff_shadow_hits =
      after.cliff_shadow_hits - before.cliff_shadow_hits;
  for (const uint32_t id : server.app_ids()) {
    const cliffhanger::AppCache* app = server.app(id);
    res.shadow_overhead_bytes += app->shadow_overhead_bytes();
    res.value_bytes += app->value_store()->value_bytes();
  }
  return res;
}

struct ShardedResult {
  VerbStats st;
  double wall_ns = 0.0;
  uint64_t rebalances = 0;
};

// Replays `measured` into a fresh sharded server from `threads` threads
// (thread j takes every threads-th op starting at j), after a
// single-threaded set-up.
ShardedResult RunSharded(Workload w, const std::vector<ReplayOp>& setup,
                         const std::vector<ReplayOp>& measured, size_t threads,
                         const std::vector<int>& cpus) {
  ShardedCacheServer server(DaemonShardedConfig());
  AddTenants(&server, w);
  const uint32_t now_s = NowSeconds();
  std::atomic<uint64_t> cas{0};
  const auto run = [&](const std::vector<ReplayOp>& ops, size_t begin,
                       size_t step, SpanLog* log) {
    Payloads payloads;
    const auto get = [&](const ReplayOp& r, bool* hit, bool* ok) {
      const uint64_t s = NowNs();
      uint64_t verify_ns = 0;
      {
        ShardedCacheServer::ShardBatch batch =
            server.BeginBatch(server.ShardForKey(r.key_id));
        const ValueOutcome vo =
            batch.GetValue(r.app_id, r.key_id, r.key_size, now_s, 0);
        const uint64_t v0 = NowNs();
        *hit = vo.valid;
        *ok = !vo.valid || payloads.Matches(r, vo.view);
        verify_ns = NowNs() - v0;
      }
      return NowNs() - s - verify_ns;
    };
    const auto set = [&](const ReplayOp& r) {
      const ItemMeta item{r.key_id, r.key_size, r.op.value_size, 0, now_s};
      const char* data = payloads.For(r);
      const uint64_t next_cas = cas.fetch_add(1, std::memory_order_relaxed) + 1;
      const uint64_t s = NowNs();
      {
        ShardedCacheServer::ShardBatch batch =
            server.BeginBatch(server.ShardForKey(r.key_id));
        batch.SetValue(r.app_id, item, data, 0, next_cas);
      }
      return NowNs() - s;
    };
    return ReplayVerbs(ops, begin, step, "sharded_server.GetValue",
                       "sharded_server.SetValue", log, get, set);
  };
  run(setup, 0, 1, nullptr);

  ShardedResult res;
  std::vector<VerbStats> per_thread(threads);
  std::vector<SpanLog*> logs;
  for (size_t j = 0; j < threads; ++j) {
    logs.push_back(Sink().NewLog("sharded_t" + std::to_string(threads)));
  }
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (size_t j = 0; j < threads; ++j) {
    pool.emplace_back([&, j] {
      if (!cpus.empty()) PinThread({cpus[j % cpus.size()]});
      ready.fetch_add(1);
      while (!go.load()) {
      }
      per_thread[j] = run(measured, j, threads, logs[j]);
    });
  }
  while (ready.load() < threads) {
  }
  const uint64_t start = NowNs();
  go.store(true);
  for (std::thread& t : pool) t.join();
  res.wall_ns = static_cast<double>(NowNs() - start);
  for (const VerbStats& st : per_thread) res.st.Merge(st);
  res.rebalances = server.rebalance_count();
  return res;
}

// ---------------------------------------------------------------------------
// L2: parser + adapter over pre-encoded bytes.
// ---------------------------------------------------------------------------
std::string Encode(const std::vector<Op>& ops) {
  std::string bytes;
  for (const Op& op : ops) {
    AppendRequest(&bytes, op, WireKey(op),
                  op.is_get ? std::string() : ExpectedValue(op));
  }
  return bytes;
}

class AdapterReplay {
 public:
  AdapterReplay(net::CacheAdapter* adapter, size_t burst,
                const Expectations* expect, SpanLog* log)
      : adapter_(adapter), burst_(burst), expect_(expect), log_(log) {
    cmds_.resize(burst);
  }

  // Frames in `bytes` correspond one to one with `ops`. Misses of each
  // burst are filled, in bursts of the same size, before the next burst.
  void Feed(std::string_view bytes, const std::vector<Op>& ops) {
    size_t pos = 0;
    for (size_t i = 0; i < ops.size(); i += burst_) {
      RunBurst(bytes, &pos, &ops[i], std::min(burst_, ops.size() - i));
      if (fills_.empty()) continue;
      std::vector<Op> fills;
      fills.swap(fills_);
      const std::string fill_bytes = Encode(fills);
      size_t fill_pos = 0;
      for (size_t j = 0; j < fills.size(); j += burst_) {
        RunBurst(fill_bytes, &fill_pos, &fills[j],
                 std::min(burst_, fills.size() - j));
      }
    }
  }

  uint64_t ops = 0;
  uint64_t busy_ns = 0;
  uint64_t errors = 0;

 private:
  void RunBurst(std::string_view bytes, size_t* pos, const Op* ops_in,
                size_t n) {
    for (size_t k = 0; k < n; ++k) {
      size_t consumed = 0;
      if (parser_.Next(bytes.substr(*pos), &consumed, &cmds_[k]) !=
          net::ParseStatus::kCommand) {
        ++errors;
        return;
      }
      *pos += consumed;
    }
    for (net::ResponseSegment& seg : segments_) seg.Reset();
    const uint64_t s = NowNs();
    adapter_->HandleBatch(cmds_.data(), n, &segments_);
    const uint64_t m = NowNs();
    // Flatten while the pinned payload spans are still valid.
    response_.clear();
    for (const net::ResponseSegment& seg : segments_) {
      response_ += seg.text;
      if (seg.payload != nullptr) response_.append(seg.payload, seg.payload_size);
      response_ += seg.trailer;
    }
    const uint64_t m2 = NowNs();
    adapter_->ReleaseBurstPins();
    const uint64_t e = NowNs();
    busy_ns += (m - s) + (e - m2);
    if (log_ != nullptr) {
      log_->Add("cache_adapter.HandleBatch", s, m, 0, ops);
      log_->Add("cache_adapter.ReleaseBurstPins", m2, e, 0, ops);
    }
    size_t rpos = 0;
    for (size_t k = 0; k < n; ++k) {
      bool hit = false, ok = false;
      PreparedOp req;
      expect_->Prepare(ops_in[k], &req);
      if (ParseReply(response_, &rpos, ops_in[k], req.key(), req.value(),
                     &hit, &ok) !=
              ReplyStatus::kReply ||
          !ok) {
        ++errors;
        continue;
      }
      if (ops_in[k].is_get && !hit) {
        Op fill = ops_in[k];
        fill.is_get = false;
        fills_.push_back(fill);
      }
    }
    ops += n;
  }

  net::CacheAdapter* adapter_;
  size_t burst_;
  const Expectations* expect_;
  SpanLog* log_;
  net::AsciiParser parser_;
  std::vector<net::Command> cmds_;
  std::vector<net::ResponseSegment> segments_;
  std::string response_;
  std::vector<Op> fills_;
};

struct AdapterResult {
  double ns_per_op = 0.0;
  uint64_t errors = 0;
  uint64_t protocol_errors = 0;
};

AdapterResult RunAdapter(Workload w, const Replay& replay,
                         const std::string& setup_bytes,
                         const std::string& measured_bytes, size_t burst,
                         const Expectations& expect) {
  ShardedCacheServer server(DaemonShardedConfig());
  AddTenants(&server, w);
  net::CacheAdapterConfig config;
  config.default_app_id = TenantsOf(w).front().app_id;
  net::CacheAdapter adapter(&server, config);
  AdapterReplay setup(&adapter, kPipelineDepth, &expect, nullptr);
  setup.Feed(setup_bytes, replay.setup);
  AdapterReplay measured(&adapter, burst, &expect,
                         Sink().NewLog("adapter_b" + std::to_string(burst)));
  measured.Feed(measured_bytes, replay.measured);
  AdapterResult res;
  res.ns_per_op = measured.ops == 0 ? 0.0
                                    : static_cast<double>(measured.busy_ns) /
                                          static_cast<double>(measured.ops);
  res.errors = setup.errors + measured.errors;
  res.protocol_errors = adapter.counters().protocol_errors;
  return res;
}

double ParseNsPerFrame(const std::string& bytes) {
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    net::AsciiParser parser;
    net::Command cmd;
    size_t pos = 0;
    uint64_t frames = 0;
    const uint64_t s = NowNs();
    while (pos < bytes.size()) {
      size_t consumed = 0;
      if (parser.Next(std::string_view(bytes).substr(pos), &consumed, &cmd) !=
          net::ParseStatus::kCommand) {
        break;
      }
      pos += consumed;
      ++frames;
    }
    passes.push_back(static_cast<double>(NowNs() - s) /
                     static_cast<double>(std::max<uint64_t>(1, frames)));
  }
  return Median(passes);
}

// ---------------------------------------------------------------------------
// L3: in-process socket server behind a span-recording handler.
// ---------------------------------------------------------------------------
class TracingHandler final : public net::CommandHandler {
 public:
  explicit TracingHandler(net::CommandHandler* inner) : inner_(inner) {}

  bool Handle(const net::Command& cmd, std::string* out) override {
    if (!tracing_.load(std::memory_order_relaxed)) {
      return inner_->Handle(cmd, out);
    }
    const uint64_t s = NowNs();
    const bool keep = inner_->Handle(cmd, out);
    Record("cache_adapter.Handle", s, 1);
    handle_calls_.fetch_add(1, std::memory_order_relaxed);
    return keep;
  }
  bool HandleBatch(const net::Command* cmds, size_t count,
                   std::vector<net::ResponseSegment>* segments) override {
    if (!tracing_.load(std::memory_order_relaxed)) {
      return inner_->HandleBatch(cmds, count, segments);
    }
    const uint64_t s = NowNs();
    const bool keep = inner_->HandleBatch(cmds, count, segments);
    Record("cache_adapter.HandleBatch", s, count);
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    return keep;
  }
  void ReleaseBurstPins() override {
    if (!tracing_.load(std::memory_order_relaxed)) {
      inner_->ReleaseBurstPins();
      return;
    }
    const uint64_t s = NowNs();
    inner_->ReleaseBurstPins();
    Record("cache_adapter.ReleaseBurstPins", s, 0);
  }

  void set_tracing(bool on) { tracing_.store(on); }
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> handle_calls_{0};
  std::atomic<uint64_t> batch_calls_{0};

 private:
  void Record(const char* name, uint64_t start, size_t frames) {
    const uint64_t end = NowNs();
    busy_ns_.fetch_add(end - start, std::memory_order_relaxed);
    frames_.fetch_add(frames, std::memory_order_relaxed);
    // One log per connection worker thread; the handler sees no client
    // request ids, so a span's request id is the burst's sequence number.
    thread_local SpanLog* log = nullptr;
    if (log == nullptr) log = Sink().NewLog("socket_worker");
    log->Add(name, start, end, 0,
             burst_seq_.fetch_add(1, std::memory_order_relaxed));
  }

  net::CommandHandler* inner_;
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> burst_seq_{0};
};

struct SocketResult {
  double traced_median_us = 0.0;
  double untraced_median_us = 0.0;
  double handler_ns_per_op = 0.0;
  double frames_per_burst = 1.0;
  double handle_calls_per_op = 0.0;
  double spread_us = 0.0;
  uint64_t errors = 0;
  bool started = false;
};

SocketResult RunSocket(const LayersConfig& config) {
  SocketResult res;
  ShardedCacheServer server(DaemonShardedConfig());
  AddTenants(&server, config.workload);
  net::CacheAdapterConfig adapter_config;
  adapter_config.default_app_id = TenantsOf(config.workload).front().app_id;
  net::CacheAdapter adapter(&server, adapter_config);
  TracingHandler handler(&adapter);
  net::SocketServerConfig net_config;  // port 0, 2 workers, epoll
  PinThread(config.server_cpus);       // the workers inherit this mask
  net::SocketServer socket_server(net_config, &handler);
  std::string error;
  if (!socket_server.Start(&error)) {
    std::fprintf(stderr, "perfbench: in-process server: %s\n", error.c_str());
    return res;
  }
  res.started = true;
  {
    LoadGen gen(config.workload, config.seed,
                PinEventLoop(config.client_cpus));
    if (!gen.Connect(socket_server.port(), &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      res.errors = 1;
    } else {
      ErrorCounts setup_errors;
      gen.Setup(&setup_errors);
      res.errors += setup_errors.total();
      // Windows alternate traced / untraced so drift hits both alike.
      std::vector<uint32_t> traced_ns, plain_ns;
      std::vector<double> traced_slices;
      uint64_t traced_ops = 0;
      for (int k = 0; k < 4; ++k) {
        const bool traced = k % 2 == 0;
        handler.set_tracing(traced);
        const WindowResult r = gen.Measure(config.socket_seconds / 4, 8, 0);
        res.errors += r.errors.total();
        for (const WindowResult::Slice& sl : r.slices) {
          std::vector<uint32_t>& all = traced ? traced_ns : plain_ns;
          all.insert(all.end(), sl.get_ns.begin(), sl.get_ns.end());
          all.insert(all.end(), sl.set_ns.begin(), sl.set_ns.end());
          if (!traced) continue;
          std::vector<uint32_t> ops(sl.get_ns);
          ops.insert(ops.end(), sl.set_ns.begin(), sl.set_ns.end());
          traced_slices.push_back(PercentileUs(ops, 0.50));
        }
        if (traced) traced_ops += r.completed;
      }
      handler.set_tracing(false);
      res.traced_median_us = PercentileUs(traced_ns, 0.50);
      res.untraced_median_us = PercentileUs(plain_ns, 0.50);
      const double ops = static_cast<double>(std::max<uint64_t>(1, traced_ops));
      res.handler_ns_per_op = static_cast<double>(handler.busy_ns_) / ops;
      const uint64_t batches = handler.batch_calls_;
      res.frames_per_burst =
          batches == 0 ? 1.0
                       : static_cast<double>(handler.frames_.load() -
                                             handler.handle_calls_.load()) /
                             static_cast<double>(batches);
      res.handle_calls_per_op =
          static_cast<double>(handler.handle_calls_ + batches) / ops;
      res.spread_us = Iqr(traced_slices);
    }
  }
  socket_server.Stop();
  PinThread(config.server_cpus);
  return res;
}

}  // namespace

LayersResult RunLayers(const LayersConfig& config) {
  const Workload w = config.workload;
  const Replay replay = MakeReplay(w, config.seed);
  const std::vector<ReplayOp> setup = ToReplay(replay.setup);
  const std::vector<ReplayOp> measured = ToReplay(replay.measured);
  const Expectations expect(w);
  LayersResult out;
  auto& m = out.metrics;

  // L3 first: its frames-per-burst sizes the L2 burstN replay.
  const SocketResult sock = RunSocket(config);
  out.errors += sock.started ? sock.errors : 1;
  const size_t burst_n = std::max<size_t>(
      1, static_cast<size_t>(sock.frames_per_burst + 0.5));

  PinThread({config.server_cpus.empty() ? 0 : config.server_cpus.front()});
  const std::string setup_bytes = Encode(replay.setup);
  const std::string measured_bytes = Encode(replay.measured);
  const double ns_per_frame = ParseNsPerFrame(measured_bytes);
  const AdapterResult b1 =
      RunAdapter(w, replay, setup_bytes, measured_bytes, 1, expect);
  const AdapterResult bn =
      RunAdapter(w, replay, setup_bytes, measured_bytes, burst_n, expect);
  out.errors += b1.errors + bn.errors;

  const ShardedResult t1 = RunSharded(w, setup, measured, 1, config.server_cpus);
  const ShardedResult t2 = RunSharded(w, setup, measured, 2, config.server_cpus);
  out.errors += t1.st.errors + t2.st.errors;

  PinThread({config.server_cpus.empty() ? 0 : config.server_cpus.front()});
  const CacheServerResult l0 = RunCacheServer(w, setup, measured);
  out.errors += l0.st.errors;

  const auto per = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const double l0_ns = per(static_cast<double>(l0.st.busy_ns()), l0.st.ops);
  const double t1_span_ns = per(static_cast<double>(t1.st.busy_ns()), t1.st.ops);

  m["cache_server.ns_per_op"] = l0_ns;
  m["cache_server.ns_per_get_hit"] =
      per(static_cast<double>(l0.st.hit_ns), l0.st.hits);
  m["cache_server.ns_per_get_miss"] =
      per(static_cast<double>(l0.st.miss_ns), l0.st.gets - l0.st.hits);
  m["cache_server.ns_per_set"] =
      per(static_cast<double>(l0.st.set_ns), l0.st.sets);
  m["cache_server.hit_rate"] = per(static_cast<double>(l0.st.hits), l0.st.gets);
  m["cache_server.hill_shadow_hits"] =
      static_cast<double>(l0.delta.hill_shadow_hits);
  m["cache_server.cliff_shadow_hits"] =
      static_cast<double>(l0.delta.cliff_shadow_hits);
  m["cache_server.shadow_overhead_bytes"] =
      static_cast<double>(l0.shadow_overhead_bytes);
  m["cache_server.value_bytes"] = static_cast<double>(l0.value_bytes);

  m["sharded_server.ns_per_op.t1"] = per(t1.wall_ns, t1.st.ops);
  m["sharded_server.ns_per_op.t2"] = per(t2.wall_ns, t2.st.ops);
  m["sharded_server.scaling.t2_over_t1"] =
      m["sharded_server.ns_per_op.t2"] > 0
          ? m["sharded_server.ns_per_op.t1"] / m["sharded_server.ns_per_op.t2"]
          : 0.0;
  m["sharded_server.self_ns_per_op"] = t1_span_ns - l0_ns;
  m["sharded_server.rebalances"] = static_cast<double>(t1.rebalances);

  m["ascii_protocol.ns_per_frame"] = ns_per_frame;
  m["cache_adapter.ns_per_op.burst1"] = b1.ns_per_op;
  m["cache_adapter.ns_per_op.burstN"] = bn.ns_per_op;
  m["cache_adapter.self_ns_per_op"] = bn.ns_per_op - t1_span_ns;
  m["cache_adapter.protocol_errors"] =
      static_cast<double>(b1.protocol_errors + bn.protocol_errors);

  m["socket_server.self_us_per_op"] =
      sock.traced_median_us - sock.handler_ns_per_op / 1000.0;
  m["socket_server.frames_per_burst"] = sock.frames_per_burst;
  m["socket_server.handle_calls_per_op"] = sock.handle_calls_per_op;
  m["trace.overhead_pct"] =
      sock.untraced_median_us > 0
          ? (sock.traced_median_us - sock.untraced_median_us) /
                sock.untraced_median_us * 100.0
          : 0.0;
  // Telescoping sum of the layer self times: socket (client-observed op
  // time in process minus handler time) + adapter + shard + core.
  m["ledger.layer_sum_us"] =
      m["socket_server.self_us_per_op"] +
      (m["cache_adapter.self_ns_per_op"] + m["sharded_server.self_ns_per_op"] +
       l0_ns) /
          1000.0;
  m["ledger.spread_us"] = sock.spread_us;

  if (!config.spans_path.empty()) Sink().Write(config.spans_path);
  return out;
}

}  // namespace perfbench
