#include "workload.h"

#include <algorithm>
#include <cmath>

#include "net/replay_keys.h"
#include "util/hashing.h"

namespace perfbench {

namespace {

using cliffhanger::MemcachierSuite;

// Five cliff apps (the paper's asterisked 7, 10, 11, 18, 19) plus app 3,
// whose 31 KB class and 70 B class widen the value-size range. Total
// reservation 50 MiB.
constexpr int kCliffTenantIds[] = {3, 7, 10, 11, 18, 19};

const MemcachierSuite& Suite() {
  static const MemcachierSuite suite(1.0);
  return suite;
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kEtcOpenLoop, Workload::kEtcPipelined,
                     Workload::kCliffTenants}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kEtcOpenLoop:
      return "etc_openloop";
    case Workload::kEtcPipelined:
      return "etc_pipelined";
    case Workload::kCliffTenants:
      return "cliff_tenants";
  }
  return "?";
}

LoadShape ShapeOf(Workload w) {
  LoadShape shape;
  if (w == Workload::kEtcOpenLoop) shape.rate_ops_s = kEtcOpenLoopRate;
  if (w == Workload::kEtcPipelined) shape.depth = kPipelineDepth;
  if (w == Workload::kCliffTenants) shape.rate_ops_s = kCliffOpenLoopRate;
  return shape;
}

std::string ExpectedValue(const Op& op) {
  return cliffhanger::net::ReplayValueBytes(op.key_id, op.value_size);
}

const cliffhanger::ZipfTraceSpec& EtcSpec() {
  static const cliffhanger::ZipfTraceSpec spec = [] {
    cliffhanger::ZipfTraceSpec s;
    s.zipf_alpha = 0.99;
    s.get_fraction = 0.967;
    return s;
  }();
  return spec;
}

uint32_t EtcValueSize(uint64_t key_id) {
  return key_id % 2 == 0 ? EtcSpec().small_value_size
                         : EtcSpec().large_value_size;
}

std::string WireKey(const Op& op) {
  std::string key;
  if (op.app_id != 0) key = "app" + std::to_string(op.app_id) + ":";
  key += cliffhanger::net::ReplayKeyString(op.key_id);
  return key;
}

std::vector<Tenant> TenantsOf(Workload w) {
  if (w != Workload::kCliffTenants) return {Tenant{}};
  std::vector<Tenant> tenants;
  for (const int id : kCliffTenantIds) {
    const double mib =
        static_cast<double>(Suite().app(id).reservation) / (1 << 20);
    tenants.push_back(Tenant{static_cast<uint32_t>(id),
                             std::max<uint64_t>(1, std::llround(mib))});
  }
  return tenants;
}

std::vector<std::string> DaemonArgs(Workload w) {
  std::vector<std::string> args;
  if (w != Workload::kCliffTenants) return args;
  for (const Tenant& t : TenantsOf(w)) {
    args.push_back("--app");
    args.push_back(std::to_string(t.app_id) + ":" +
                   std::to_string(t.reservation_mb));
  }
  return args;
}

OpStream::OpStream(Workload w, uint64_t seed) : workload_(w) {
  if (w != Workload::kCliffTenants) {
    cliffhanger::StreamSpec spec;
    spec.kind = cliffhanger::StreamKind::kZipf;
    spec.universe = EtcSpec().universe;
    spec.zipf_alpha = EtcSpec().zipf_alpha;
    etc_keys_ = std::make_unique<cliffhanger::KeyStream>(spec);
    rng_.Seed(seed);
    return;
  }
  // Streaming form of MemcachierSuite::GenerateMixedTrace: per-tenant
  // builders laid out over kCliffPlannedOps, picked by request share.
  double total_share = 0.0;
  for (const int id : kCliffTenantIds) {
    total_share += Suite().app(id).request_share;
  }
  for (const int id : kCliffTenantIds) {
    const double share = Suite().app(id).request_share / total_share;
    builders_.emplace_back(
        Suite().app(id),
        static_cast<uint64_t>(share * static_cast<double>(kCliffPlannedOps)),
        seed);
    shares_.push_back(share);
  }
  rng_.Seed(cliffhanger::HashCombine(seed, 0x5347454eULL));
}

Op OpStream::Next() {
  Op op;
  const uint64_t index = position_++;
  if (workload_ != Workload::kCliffTenants) {
    // Same draw order as cliffhanger::MakeZipfMixTrace.
    op.key_id = etc_keys_->Next(rng_, index);
    op.value_size = EtcValueSize(op.key_id);
    op.is_get = rng_.NextBernoulli(EtcSpec().get_fraction);
    return op;
  }
  double u = rng_.NextDouble();
  size_t pick = builders_.size() - 1;
  for (size_t j = 0; j < shares_.size(); ++j) {
    u -= shares_[j];
    if (u <= 0.0) {
      pick = j;
      break;
    }
  }
  const cliffhanger::Request r = builders_[pick].Next();
  // The suite's (app, stream, rank) key combiner maps some ranks of two
  // streams of one app onto the same 64-bit key, with different value
  // sizes. Folding the size into the key keeps each key at one size, so a
  // hit has exactly one correct payload however connections interleave.
  op.key_id = cliffhanger::HashCombine(r.key, r.value_size);
  op.app_id = r.app_id;
  op.value_size = r.value_size;
  op.is_get = true;
  return op;
}

std::vector<Op> OpStream::SetupOps() {
  std::vector<Op> ops;
  if (workload_ != Workload::kCliffTenants) {
    ops.reserve(EtcSpec().universe);
    for (uint64_t k = 0; k < EtcSpec().universe; ++k) {
      ops.push_back(Op{k, 0, EtcValueSize(k), false});
    }
    return ops;
  }
  ops.reserve(kWarmupOps);
  for (uint64_t i = 0; i < kWarmupOps; ++i) ops.push_back(Next());
  return ops;
}

}  // namespace perfbench
