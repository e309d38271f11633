// The benchmark's three workloads as seeded, endless op streams. The same
// seed always yields the same ops; the daemon and the in-process layer
// replays receive nothing but these ops (plus the demand-fill SET a client
// sends after a GET miss).
//
//  - etc_openloop / etc_pipelined: the ETC mix (96.7% GET) over the
//    canonical ZipfTraceSpec (its key universe and small/large value sizes)
//    at Zipf 0.99. The whole universe is prefilled and fits the daemon's
//    default 64 MiB app, so a GET miss never happens after set-up.
//  - cliff_tenants: an interleaved MemcachierSuite trace over six tenants,
//    five of them cliff apps, with values from 12 B to 31 KB. The working
//    set exceeds every tenant's reservation, so GET misses are routine and
//    each one is followed by a demand-fill SET. The trace changes with
//    stream position (scans, burst windows, a warming cache), so it runs
//    open loop: the seeded schedule, not the daemon's speed, decides which
//    span of the trace a window measures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"
#include "workload/generators.h"
#include "workload/memcachier_suite.h"

namespace perfbench {

enum class Workload : uint8_t { kEtcOpenLoop, kEtcPipelined, kCliffTenants };

[[nodiscard]] bool ParseWorkload(std::string_view name, Workload* out);
[[nodiscard]] const char* WorkloadName(Workload w);

// How a workload drives the daemon: an open loop sends on a Poisson
// schedule at `rate_ops_s`; a closed loop keeps `depth` requests in flight
// per connection.
struct LoadShape {
  double rate_ops_s = 0.0;  // > 0: open loop
  size_t depth = 1;         // closed loop: in-flight requests per connection
};
inline constexpr size_t kConnections = 4;
[[nodiscard]] LoadShape ShapeOf(Workload w);

struct Op {
  uint64_t key_id = 0;   // the trace's 64-bit key; the wire key encodes it
  uint32_t app_id = 0;   // 0 = unprefixed key (the daemon's default app 1)
  uint32_t value_size = 0;
  bool is_get = true;
};

// A demand-fill or explicit SET writes these bytes; a GET hit must return
// exactly them (net::ReplayValueBytes of the key id and size).
[[nodiscard]] std::string ExpectedValue(const Op& op);
// "app<id>:<16 hex>" for tenant keys, the bare 16-hex key otherwise.
[[nodiscard]] std::string WireKey(const Op& op);

struct Tenant {
  uint32_t app_id = 1;
  uint64_t reservation_mb = 64;
};
// The apps the daemon serves for a workload. The etc workloads use the
// daemon's default app (1:64); cliff_tenants registers every tenant with
// --app ID:MB at its whole-MiB suite reservation.
[[nodiscard]] std::vector<Tenant> TenantsOf(Workload w);
// Extra daemon flags for the workload (empty for the etc workloads).
[[nodiscard]] std::vector<std::string> DaemonArgs(Workload w);

class OpStream {
 public:
  OpStream(Workload w, uint64_t seed);

  [[nodiscard]] Op Next();
  // Ops drawn so far: the stream position of the next op.
  [[nodiscard]] uint64_t position() const { return position_; }

  // Set-up ops sent before measuring, closed-loop and pipelined: the etc
  // workloads SET every key of the universe; cliff_tenants replays the
  // first kWarmupOps ops of this same stream (demand fill included), and
  // the measured phase continues where the warm-up stopped.
  [[nodiscard]] std::vector<Op> SetupOps();

 private:
  Workload workload_;
  cliffhanger::Rng rng_;
  uint64_t position_ = 0;
  // etc
  std::unique_ptr<cliffhanger::KeyStream> etc_keys_;
  // cliff_tenants
  std::vector<cliffhanger::AppTraceBuilder> builders_;
  std::vector<double> shares_;
};

// The etc key stream: cliffhanger::ZipfTraceSpec's universe, key and
// value sizes, with Zipf 0.99 and the ETC GET share.
[[nodiscard]] const cliffhanger::ZipfTraceSpec& EtcSpec();
// An etc key's value size, by key parity as in MakeZipfMixTrace.
[[nodiscard]] uint32_t EtcValueSize(uint64_t key_id);

inline constexpr double kEtcOpenLoopRate = 40000.0;
inline constexpr size_t kPipelineDepth = 16;
inline constexpr uint64_t kWarmupOps = 200000;
// cliff_tenants stream ops per second; demand fills add about 40% on the
// wire. The closed loop reached about 50k stream ops/s on a 4-core VM,
// bound by the generator, so this rate leaves the generator headroom and
// the daemon idle time.
inline constexpr double kCliffOpenLoopRate = 25000.0;
// Trace length the suite's burst windows are laid out over. App 19's
// burst starts at 60% of it (stream op 2.4M), past the warm-up plus a
// 60 s window, so no measured window reaches it.
inline constexpr uint64_t kCliffPlannedOps = 4000000;

}  // namespace perfbench
