// Single-threaded load generator: one event loop over kConnections
// non-blocking TCP connections to a memcached-ASCII server (the spawned
// cliffhangerd, or the in-process SocketServer of the traced run).
//
// Open loop: requests are due on a seeded Poisson schedule and are timed
// from their due time, so a stalled server or a late generator shows up in
// the latency of every request queued behind the stall. Closed loop: each
// connection keeps `depth` requests in flight; a request is timed from the
// moment its slot freed. Either way a GET miss is followed by a
// demand-fill SET of the same key on the same connection.
//
// Ops come from a lookahead thread that draws them, with their wire keys
// and expected payloads, ahead of the event loop (see Lookahead).
//
// Every reply is parsed strictly against the FIFO of requests pending on
// its connection: a SET must answer STORED, a GET must answer END (miss) or
// exactly one VALUE block for the requested key with flags 0, the
// workload's size and the ReplayValueBytes payload, then END. Anything else
// is an error, as are timeouts and dropped connections.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "workload.h"

namespace perfbench {

[[nodiscard]] uint64_t NowNs();

// Nearest-rank percentile of nanosecond samples, in microseconds; 0 for no
// samples.
[[nodiscard]] double PercentileUs(std::vector<uint32_t> ns, double p);
[[nodiscard]] double Median(std::vector<double> v);

// Appends the memcached ASCII request for `op`: "get <key>" or
// "set <key> 0 0 <n>" followed by `value`.
void AppendRequest(std::string* out, const Op& op, std::string_view key,
                   std::string_view value);

struct ErrorCounts {
  uint64_t mismatch = 0;    // wrong key, flags, size or payload bytes
  uint64_t unexpected = 0;  // a reply line the request does not allow
  uint64_t timeouts = 0;    // no reply within kReplyTimeoutNs
  uint64_t dropped = 0;     // connection closed or reset under a request
  [[nodiscard]] uint64_t total() const {
    return mismatch + unexpected + timeouts + dropped;
  }
};

// One measured window, cut into slices by due time. Latencies are
// nanoseconds, one sample per request; a slice's server CPU is sampled at
// its wall-clock boundaries.
struct WindowResult {
  struct Slice {
    std::vector<uint32_t> get_ns;
    std::vector<uint32_t> set_ns;
    uint64_t completed = 0;
    double server_cpu_s = 0.0;
  };
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t completed = 0;  // replies received and verified correct
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  uint64_t sets = 0;
  ErrorCounts errors;
  std::vector<Slice> slices;
  // Stream ops [stream_first, stream_end) were drawn in the window.
  uint64_t stream_first = 0;
  uint64_t stream_end = 0;
  // How late each request left the generator: behind its due time (open
  // loop) or behind the reply that freed its slot (closed loop).
  std::vector<uint32_t> lag_ns;
  double client_cpu_s = 0.0;  // generator thread, from getrusage
  // Server process counters over the window (only with a server pid).
  double server_cpu_s = 0.0;
  uint64_t server_ctx_switches = 0;
};

// An op with its wire key and its payload: the body of a SET, or the bytes
// a GET hit must return and its demand fill writes. An etc op points into
// the Expectations table; a tenant op owns its strings. (Owned copies of
// the etc strings cost etc_pipelined about a fifth of its throughput: two
// allocations per op, freed on the other thread.)
struct PreparedOp {
  Op op;
  const std::string* table_key = nullptr;
  const std::string* table_value = nullptr;
  std::string own_key;
  std::string own_value;
  uint64_t stream_end = 0;  // stream position once the op was drawn

  [[nodiscard]] std::string_view key() const {
    return table_key != nullptr ? *table_key : own_key;
  }
  [[nodiscard]] std::string_view value() const {
    return table_value != nullptr ? *table_value : own_value;
  }
};

// Expected wire keys and payloads. The etc universe is small, so its
// strings are built once; tenant keys and payloads are computed per
// request.
class Expectations {
 public:
  explicit Expectations(Workload w);
  // Sets out->op to `op` and gives it its key and payload.
  void Prepare(const Op& op, PreparedOp* out) const;

 private:
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
};

// Draws the workload's ops, with their wire keys and expected payloads, on
// a thread of its own ahead of the event loop. ReplayValueBytes takes about
// 45 us for a 31 KB value; on the event loop, that time delayed every send
// and reply queued behind it.
class Lookahead {
 public:
  Lookahead(Workload w, uint64_t seed);
  ~Lookahead();
  Lookahead(const Lookahead&) = delete;
  Lookahead& operator=(const Lookahead&) = delete;

  // Starts the thread, pinned to `cpu` (< 0: the caller's CPUs). It yields
  // the set-up ops, whose number Start returns, and then the stream.
  size_t Start(int cpu);
  // Moves the next op into *out, waiting while the thread is behind.
  void Next(PreparedOp* out);
  // Stream position after the last op Next returned.
  [[nodiscard]] uint64_t position() const { return position_; }

 private:
  void Produce(std::vector<Op> setup);

  static constexpr size_t kSlots = 4096;
  OpStream stream_;
  const Expectations expect_;
  std::vector<PreparedOp> slots_;
  // On lines of their own: each thread writes one and reads the other.
  alignas(64) std::atomic<uint64_t> produced_{0};
  alignas(64) std::atomic<uint64_t> consumed_{0};
  std::atomic<bool> stop_{false};
  uint64_t position_ = 0;
  std::thread thread_;
};

enum class ReplyStatus : uint8_t {
  kNeedMore,  // no complete reply yet
  kReply,     // one reply consumed; *ok says whether it was correct
  kBroken,    // the stream cannot be framed any more
};

// Consumes one reply for `op`, whose wire key is `key` and whose expected
// payload is `value`, from buf[*pos..]. On kReply, *hit is true for a GET
// that returned a VALUE block and *ok is true only for a reply the request
// allows, byte for byte.
[[nodiscard]] ReplyStatus ParseReply(std::string_view buf, size_t* pos,
                                     const Op& op, std::string_view key,
                                     std::string_view value, bool* hit,
                                     bool* ok);

// Feeds correct and deliberately corrupted replies through the same
// accounting the measured phase uses and checks that each corruption is
// counted as an error. Returns false (with *why) if any is missed.
[[nodiscard]] bool SelfCheckVerification(std::string* why);

// Pins the calling thread to `cpus` (no-op when empty).
void PinThread(const std::vector<int>& cpus);
// Pins the calling thread, the event loop, to the first of `cpus` and
// returns the last, for the lookahead thread (-1 when `cpus` is empty).
[[nodiscard]] int PinEventLoop(const std::vector<int>& cpus);

class LoadGen {
 public:
  // The lookahead thread runs on `lookahead_cpu` (< 0: the caller's CPUs).
  LoadGen(Workload w, uint64_t seed, int lookahead_cpu);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool Connect(uint16_t port, std::string* error);

  // Starts the lookahead, sends the workload's set-up ops (prefill or
  // warm-up) closed-loop at pipeline depth and waits for every reply.
  // Returns the seconds taken; errors go to *errors.
  double Setup(ErrorCounts* errors);

  // One measured window of the workload's own shape, in `slices` equal
  // slices. With server_pid > 0 the server's CPU time (per slice) and
  // context switches are read from /proc.
  WindowResult Measure(double seconds, size_t slices, int server_pid);

 private:
  friend bool SelfCheckVerification(std::string* why);

  struct Pending {
    PreparedOp req;
    uint64_t due_ns = 0;
    uint64_t sent_ns = 0;
    int32_t slice = -1;  // slice of a measured request, -1 otherwise
  };
  struct Conn {
    int fd = -1;
    bool dead = false;
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t in_off = 0;
    std::deque<Pending> pending;
    size_t unsent = 0;       // pending entries not yet handed to send()
    std::deque<PreparedOp> fills;  // closed loop: fills awaiting a slot
  };
  struct Phase {
    size_t setup_left = 0;  // set-up ops still to send (unmeasured phase)
    double rate = 0.0;  // > 0: open loop
    size_t depth = 1;
    bool measured = false;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    WindowResult* result = nullptr;
    ErrorCounts* errors = nullptr;
    int server_pid = 0;
    std::vector<double> server_cpu_marks;  // at each slice boundary
  };

  void Run(Phase* ph);
  bool NextOp(Phase* ph, PreparedOp* op);
  void Issue(Conn& c, PreparedOp req, uint64_t due_ns, Phase* ph);
  void Flush(Conn& c, Phase* ph);
  void Receive(Conn& c, Phase* ph);
  void ConsumeReplies(Conn& c, uint64_t now, Phase* ph);
  void Complete(Conn& c, Pending p, bool hit, bool ok, uint64_t now,
                Phase* ph);
  // Closes a connection that can no longer be trusted and charges every
  // request still pending on it to `counter`.
  void Kill(Conn& c, uint64_t ErrorCounts::*counter, Phase* ph);
  [[nodiscard]] bool Idle() const;

  LoadShape shape_;
  Lookahead source_;
  int lookahead_cpu_;
  cliffhanger::Rng arrivals_;
  std::vector<Conn> conns_;
  size_t next_conn_ = 0;
};

}  // namespace perfbench
