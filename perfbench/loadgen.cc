#include "loadgen.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "util/hashing.h"

namespace perfbench {

namespace {

constexpr uint64_t kReplyTimeoutNs = 2'000'000'000;
constexpr uint64_t kDrainNs = 3'000'000'000;
constexpr size_t kMaxLine = 2048;

double ThreadCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// utime + stime of the whole process (all threads), /proc/<pid>/stat
// fields 14 and 15.
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Field 3 (state) is the first after the command name.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Voluntary plus involuntary context switches summed over every thread.
uint64_t ProcessCtxSwitches(int pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        total += std::stoull(line.substr(line.find(':') + 1));
      }
    }
  }
  closedir(d);
  return total;
}

// Strict decimal, no sign, no leading junk; false on overflow.
bool ParseDecimal(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  uint64_t v = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<uint64_t>(ch - '0');
  }
  *out = v;
  return true;
}

}  // namespace

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PercentileUs(std::vector<uint32_t> ns, double p) {
  if (ns.empty()) return 0.0;
  const auto rank = static_cast<size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(ns.size()))));
  auto it = ns.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(ns.begin(), it, ns.end());
  return *it / 1000.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void AppendRequest(std::string* out, const Op& op, std::string_view key,
                   std::string_view value) {
  if (op.is_get) {
    out->append("get ");
    out->append(key);
    out->append("\r\n");
    return;
  }
  out->append("set ");
  out->append(key);
  out->append(" 0 0 ");
  out->append(std::to_string(value.size()));
  out->append("\r\n");
  out->append(value);
  out->append("\r\n");
}

Expectations::Expectations(Workload w) {
  if (w == Workload::kCliffTenants) return;
  const uint64_t universe = EtcSpec().universe;
  keys_.reserve(universe);
  values_.reserve(universe);
  for (uint64_t k = 0; k < universe; ++k) {
    const Op op{k, 0, EtcValueSize(k), false};
    keys_.push_back(WireKey(op));
    values_.push_back(ExpectedValue(op));
  }
}

void Expectations::Prepare(const Op& op, PreparedOp* out) const {
  out->op = op;
  const bool cached = op.app_id == 0 && op.key_id < values_.size() &&
                      values_[op.key_id].size() == op.value_size;
  out->table_key = cached ? &keys_[op.key_id] : nullptr;
  out->table_value = cached ? &values_[op.key_id] : nullptr;
  out->own_key = cached ? std::string() : WireKey(op);
  out->own_value = cached ? std::string() : ExpectedValue(op);
}

Lookahead::Lookahead(Workload w, uint64_t seed)
    : stream_(w, seed), expect_(w), slots_(kSlots) {}

Lookahead::~Lookahead() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

size_t Lookahead::Start(int cpu) {
  std::vector<Op> setup = stream_.SetupOps();
  const size_t n = setup.size();
  thread_ = std::thread([this, cpu, ops = std::move(setup)]() mutable {
    if (cpu >= 0) PinThread({cpu});
    Produce(std::move(ops));
  });
  return n;
}

void Lookahead::Produce(std::vector<Op> setup) {
  for (uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
    const Op op = i < setup.size() ? setup[i] : stream_.Next();
    // A full ring holds kSlots ops: tens of milliseconds at any rate the
    // event loop sustains, so a millisecond's sleep never starves it.
    while (i - consumed_.load(std::memory_order_acquire) >= kSlots) {
      if (stop_.load(std::memory_order_relaxed)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    PreparedOp& slot = slots_[i % kSlots];
    expect_.Prepare(op, &slot);
    slot.stream_end = stream_.position();
    produced_.store(i + 1, std::memory_order_release);
  }
}

void Lookahead::Next(PreparedOp* out) {
  const uint64_t i = consumed_.load(std::memory_order_relaxed);
  while (produced_.load(std::memory_order_acquire) == i) {
    // Spin: the ring runs dry only while the lookahead is behind.
  }
  *out = std::move(slots_[i % kSlots]);
  position_ = out->stream_end;
  consumed_.store(i + 1, std::memory_order_release);
}

void PinThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

int PinEventLoop(const std::vector<int>& cpus) {
  if (cpus.empty()) return -1;
  PinThread({cpus.front()});
  return cpus.back();
}

ReplyStatus ParseReply(std::string_view buf, size_t* pos, const Op& op,
                       std::string_view key, std::string_view value,
                       bool* hit, bool* ok) {
  *hit = false;
  *ok = false;
  const size_t eol = buf.find("\r\n", *pos);
  if (eol == std::string_view::npos) {
    return buf.size() - *pos > kMaxLine ? ReplyStatus::kBroken
                                        : ReplyStatus::kNeedMore;
  }
  const std::string_view line = buf.substr(*pos, eol - *pos);
  if (!op.is_get) {
    *ok = line == "STORED";
    *pos = eol + 2;
    return ReplyStatus::kReply;
  }
  if (line == "END") {
    *ok = true;
    *pos = eol + 2;
    return ReplyStatus::kReply;
  }
  if (line.rfind("VALUE ", 0) != 0) {
    *pos = eol + 2;  // one unexpected line: counted, stream still framed
    return ReplyStatus::kReply;
  }
  // VALUE <key> <flags> <bytes>
  std::string_view rest = line.substr(6);
  std::string_view tok[3];
  for (int i = 0; i < 3; ++i) {
    const size_t sp = rest.find(' ');
    tok[i] = rest.substr(0, sp);
    rest = sp == std::string_view::npos ? std::string_view{}
                                        : rest.substr(sp + 1);
    if (tok[i].empty()) return ReplyStatus::kBroken;
  }
  uint64_t flags = 0, bytes = 0;
  if (!rest.empty() || !ParseDecimal(tok[1], &flags) ||
      !ParseDecimal(tok[2], &bytes) || bytes > (1u << 20)) {
    return ReplyStatus::kBroken;
  }
  const size_t data_at = eol + 2;
  const size_t need = data_at + bytes + 2 + 5;
  if (buf.size() < need) return ReplyStatus::kNeedMore;
  if (buf.substr(data_at + bytes, 7) != "\r\nEND\r\n") {
    return ReplyStatus::kBroken;
  }
  *hit = true;
  *ok = tok[0] == key && flags == 0 && bytes == op.value_size &&
        buf.substr(data_at, bytes) == value;
  *pos = need;
  return ReplyStatus::kReply;
}

LoadGen::LoadGen(Workload w, uint64_t seed, int lookahead_cpu)
    : shape_(ShapeOf(w)),
      source_(w, seed),
      lookahead_cpu_(lookahead_cpu),
      arrivals_(cliffhanger::HashCombine(seed, 0xa771ULL)) {}

LoadGen::~LoadGen() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
}

bool LoadGen::Connect(uint16_t port, std::string* error) {
  conns_.resize(kConnections);
  for (Conn& c : conns_) {
    c.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

double LoadGen::Setup(ErrorCounts* errors) {
  const uint64_t start = NowNs();
  Phase ph;
  ph.setup_left = source_.Start(lookahead_cpu_);
  ph.depth = kPipelineDepth;
  ph.errors = errors;
  Run(&ph);
  return static_cast<double>(NowNs() - start) * 1e-9;
}

WindowResult LoadGen::Measure(double seconds, size_t slices, int server_pid) {
  WindowResult result;
  result.slices.resize(std::max<size_t>(1, slices));
  Phase ph;
  ph.rate = shape_.rate_ops_s;
  ph.depth = shape_.depth;
  ph.measured = true;
  ph.result = &result;
  ph.errors = &result.errors;
  ph.server_pid = server_pid;

  const double cpu0 = ThreadCpuSeconds();
  const uint64_t ctx0 = server_pid > 0 ? ProcessCtxSwitches(server_pid) : 0;
  result.stream_first = source_.position();
  ph.start_ns = NowNs();
  ph.end_ns = ph.start_ns + static_cast<uint64_t>(seconds * 1e9);
  Run(&ph);
  result.stream_end = source_.position();
  result.seconds = static_cast<double>(ph.end_ns - ph.start_ns) * 1e-9;
  result.client_cpu_s = ThreadCpuSeconds() - cpu0;
  if (server_pid > 0) {
    std::vector<double>& marks = ph.server_cpu_marks;
    while (marks.size() <= result.slices.size()) {
      marks.push_back(ProcessCpuSeconds(server_pid));
    }
    for (size_t i = 0; i < result.slices.size(); ++i) {
      result.slices[i].server_cpu_s = marks[i + 1] - marks[i];
    }
    result.server_cpu_s = marks.back() - marks.front();
    result.server_ctx_switches = ProcessCtxSwitches(server_pid) - ctx0;
  }
  return result;
}

bool LoadGen::NextOp(Phase* ph, PreparedOp* op) {
  if (!ph->measured) {
    if (ph->setup_left == 0) return false;
    --ph->setup_left;
  }
  source_.Next(op);
  return true;
}

bool LoadGen::Idle() const {
  for (const Conn& c : conns_) {
    if (!c.dead && !c.pending.empty()) return false;
  }
  return true;
}

void LoadGen::Run(Phase* ph) {
  std::vector<pollfd> pfds(conns_.size());
  uint64_t next_due = ph->start_ns;
  uint64_t drain_deadline = 0;
  for (;;) {
    uint64_t now = NowNs();
    if (ph->server_pid > 0) {
      // Server CPU at every slice boundary the clock has passed.
      std::vector<double>& marks = ph->server_cpu_marks;
      const size_t n = ph->result->slices.size();
      while (marks.size() <= n &&
             now >= ph->start_ns + (ph->end_ns - ph->start_ns) * marks.size() / n) {
        marks.push_back(ProcessCpuSeconds(ph->server_pid));
      }
    }
    const bool more_ops = ph->measured ? now < ph->end_ns : ph->setup_left > 0;
    bool any_fills = false;
    for (const Conn& c : conns_) any_fills |= !c.fills.empty();
    // Set-up also drains its demand fills after the last op; a measured
    // window stops issuing, fills included, when its time is up.
    const bool issuing = more_ops || (!ph->measured && any_fills);
    if (!issuing) {
      for (Conn& c : conns_) c.fills.clear();
      if (Idle()) break;
      if (drain_deadline == 0) drain_deadline = now + kDrainNs;
    }
    if (issuing && ph->rate > 0.0) {
      while (next_due <= now) {
        Conn& c = conns_[next_conn_++ % conns_.size()];
        PreparedOp op;
        NextOp(ph, &op);
        Issue(c, std::move(op), next_due, ph);
        // Exponential inter-arrival gap for a Poisson schedule.
        const double u = 1.0 - arrivals_.NextDouble();
        next_due += static_cast<uint64_t>(-std::log(u) / ph->rate * 1e9);
      }
    } else if (issuing) {
      // Closed loop: top every connection up to `depth` in flight, demand
      // fills first.
      for (Conn& c : conns_) {
        while (!c.dead && c.pending.size() < ph->depth) {
          PreparedOp op;
          if (!c.fills.empty()) {
            op = std::move(c.fills.front());
            c.fills.pop_front();
          } else if (!more_ops || !NextOp(ph, &op)) {
            break;
          }
          Issue(c, std::move(op), now, ph);
        }
      }
    }
    bool any_alive = false;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (!c.dead && c.out_off < c.out.size()) Flush(c, ph);
      pfds[i].fd = c.dead ? -1 : c.fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
      any_alive |= !c.dead;
    }
    if (!any_alive) break;

    // Open loop: sleep only when the next request is comfortably far off;
    // otherwise poll without blocking so it leaves on time.
    uint64_t wait_ns = 5'000'000;
    if (issuing && ph->rate > 0.0) {
      now = NowNs();
      const uint64_t gap = next_due > now ? next_due - now : 0;
      wait_ns = gap < 150'000 ? 0 : gap - 100'000;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    now = NowNs();
    if (ready > 0) {
      for (size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        if (c.dead || pfds[i].revents == 0) continue;
        if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) Receive(c, ph);
        if (!c.dead && (pfds[i].revents & POLLOUT)) Flush(c, ph);
      }
    }
    // A request unanswered for kReplyTimeoutNs (or still pending when the
    // drain deadline passes) leaves its connection unusable.
    for (Conn& c : conns_) {
      if (c.dead || c.pending.empty()) continue;
      const Pending& head = c.pending.front();
      const uint64_t since = head.sent_ns != 0 ? head.sent_ns : head.due_ns;
      if (now > since + kReplyTimeoutNs ||
          (drain_deadline != 0 && now > drain_deadline)) {
        Kill(c, &ErrorCounts::timeouts, ph);
      }
    }
  }
}

void LoadGen::Issue(Conn& c, PreparedOp req, uint64_t due_ns, Phase* ph) {
  Pending p;
  p.due_ns = due_ns;
  if (ph->measured) {
    ++ph->result->attempted;
    const uint64_t span = ph->end_ns - ph->start_ns;
    const uint64_t n = ph->result->slices.size();
    p.slice = static_cast<int32_t>(
        std::min<uint64_t>(n - 1, (due_ns - ph->start_ns) * n / span));
  }
  if (c.dead) {
    if (ph->measured) ++ph->errors->dropped;
    return;
  }
  AppendRequest(&c.out, req.op, req.key(),
                req.op.is_get ? std::string_view{} : req.value());
  p.req = std::move(req);
  c.pending.push_back(std::move(p));
  ++c.unsent;
  if (ph->rate > 0.0) Flush(c, ph);  // open loop: leave on schedule
}

void LoadGen::Flush(Conn& c, Phase* ph) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                           c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    Kill(c, &ErrorCounts::dropped, ph);
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
    // Everything queued has left: stamp the requests that went with it.
    const uint64_t now = NowNs();
    for (size_t i = c.pending.size() - c.unsent; i < c.pending.size(); ++i) {
      Pending& p = c.pending[i];
      p.sent_ns = now;
      if (p.slice >= 0) {
        ph->result->lag_ns.push_back(
            static_cast<uint32_t>(std::min<uint64_t>(UINT32_MAX, now - p.due_ns)));
      }
    }
    c.unsent = 0;
  }
}

void LoadGen::Receive(Conn& c, Phase* ph) {
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    ConsumeReplies(c, NowNs(), ph);  // replies that arrived before the close
    if (!c.dead) Kill(c, &ErrorCounts::dropped, ph);
    return;
  }
  ConsumeReplies(c, NowNs(), ph);
}

void LoadGen::ConsumeReplies(Conn& c, uint64_t now, Phase* ph) {
  while (!c.dead && !c.pending.empty() &&
         c.pending.size() > c.unsent) {
    bool hit = false, ok = false;
    const PreparedOp& req = c.pending.front().req;
    const ReplyStatus st = ParseReply(c.in, &c.in_off, req.op, req.key(),
                                      req.value(), &hit, &ok);
    if (st == ReplyStatus::kNeedMore) break;
    if (st == ReplyStatus::kBroken) {
      Kill(c, &ErrorCounts::unexpected, ph);
      return;
    }
    Pending p = std::move(c.pending.front());
    c.pending.pop_front();
    Complete(c, std::move(p), hit, ok, now, ph);
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  } else if (c.in_off > (1u << 16)) {
    c.in.erase(0, c.in_off);
    c.in_off = 0;
  }
}

void LoadGen::Complete(Conn& c, Pending p, bool hit, bool ok, uint64_t now,
                       Phase* ph) {
  if (!ok) {
    // A GET whose VALUE block is wrong is a mismatch; any other reply the
    // request does not allow is unexpected.
    if (hit) {
      ++ph->errors->mismatch;
    } else {
      ++ph->errors->unexpected;
    }
  } else if (p.slice >= 0) {
    WindowResult& r = *ph->result;
    WindowResult::Slice& slice = r.slices[static_cast<size_t>(p.slice)];
    ++r.completed;
    ++slice.completed;
    const auto ns =
        static_cast<uint32_t>(std::min<uint64_t>(UINT32_MAX, now - p.due_ns));
    if (p.req.op.is_get) {
      ++r.gets;
      r.get_hits += hit ? 1 : 0;
      slice.get_ns.push_back(ns);
    } else {
      ++r.sets;
      slice.set_ns.push_back(ns);
    }
  }
  // Demand fill: a GET miss is followed by a SET of the same key.
  const bool issuing = ph->measured ? now < ph->end_ns : true;
  if (ok && p.req.op.is_get && !hit && issuing) {
    PreparedOp fill = std::move(p.req);
    fill.op.is_get = false;
    if (ph->rate > 0.0) {
      Issue(c, std::move(fill), now, ph);
    } else {
      c.fills.push_back(std::move(fill));
    }
  }
}

void LoadGen::Kill(Conn& c, uint64_t ErrorCounts::*counter, Phase* ph) {
  for (const Pending& p : c.pending) {
    if (p.slice >= 0 || !ph->measured) ++(ph->errors->*counter);
  }
  c.pending.clear();
  c.fills.clear();
  c.unsent = 0;
  c.dead = true;
  if (c.fd >= 0) close(c.fd);
  c.fd = -1;
}

bool SelfCheckVerification(std::string* why) {
  LoadGen gen(Workload::kEtcPipelined, 1, -1);
  const Op get{6, 0, 64, true};
  const Op set{7, 0, 400, false};
  const std::string key = WireKey(get);
  const std::string value = ExpectedValue(get);
  const std::string good = "VALUE " + key + " 0 64\r\n" + value + "\r\nEND\r\n";
  std::string corrupt = good;
  corrupt[good.find("\r\n") + 2 + 17] ^= 0x01;  // one payload bit
  std::string wrong_key = good;
  wrong_key[6] = wrong_key[6] == 'f' ? 'e' : 'f';

  struct Case {
    const char* name;
    Op op;
    std::string reply;
    uint64_t errors;  // expected error count
  };
  const Case cases[] = {
      {"hit", get, good, 0},
      {"miss", get, "END\r\n", 0},
      {"stored", set, "STORED\r\n", 0},
      {"corrupted payload", get, corrupt, 1},
      {"wrong key", get, wrong_key, 1},
      {"error line for a GET", get, "SERVER_ERROR out of memory\r\n", 1},
      {"NOT_STORED for a SET", set, "NOT_STORED\r\n", 1},
      {"unframeable VALUE line", get, "VALUE x y\r\n", 1},
  };
  for (const Case& tc : cases) {
    WindowResult result;
    result.slices.resize(1);
    LoadGen::Phase ph;
    ph.measured = true;
    ph.start_ns = 1;
    ph.end_ns = 2;  // already past: no demand fill is issued
    ph.result = &result;
    ph.errors = &result.errors;
    LoadGen::Conn c;
    LoadGen::Pending p;
    p.req.op = tc.op;
    p.req.own_key = WireKey(tc.op);
    p.req.own_value = ExpectedValue(tc.op);
    p.slice = 0;
    c.pending.push_back(p);
    c.in = tc.reply;
    gen.ConsumeReplies(c, 3, &ph);
    if (result.errors.total() != tc.errors || !c.pending.empty()) {
      *why = std::string("reply verification self-check failed on: ") +
             tc.name;
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
