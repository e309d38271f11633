// The traced run: the workload's op stream replayed into each layer's
// public functions, from outside the program, with a span around every
// call into a layer.
//
//   L0  CacheServer value verbs (GetByKey / SetValue), one thread.
//   L1  ShardedCacheServer::BeginBatch verbs, from 1 and from 2 threads.
//   L2  AsciiParser::Next + CacheAdapter::HandleBatch / ReleaseBurstPins
//       over pre-encoded request bytes, no socket; bursts of 1 and of N
//       frames, N being the frames per burst L3 measured.
//   L3  an in-process SocketServer whose CommandHandler is a wrapper that
//       records a span around every Handle / HandleBatch /
//       ReleaseBurstPins it forwards to CacheAdapter, driven by the same
//       load generator as the daemon run. Windows alternate with tracing
//       on and off, which gives the tracing overhead.
//
// Every layer serves the same config as the daemon (cliffhanger mode, LRU,
// in-arena values, 4 shards, 2 connection workers) and every GET hit is
// byte-compared against its expected payload. A layer's self time is its
// time per op minus the time per op of the layer below it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct LayersConfig {
  Workload workload = Workload::kEtcOpenLoop;
  uint64_t seed = 1;
  double socket_seconds = 4.0;  // L3, split across four windows
  std::vector<int> server_cpus;
  std::vector<int> client_cpus;
  std::string spans_path;  // CSV of every kept span, written at exit
};

struct LayersResult {
  std::map<std::string, double> metrics;
  uint64_t errors = 0;  // wrong or missing replies, in every layer
};

[[nodiscard]] LayersResult RunLayers(const LayersConfig& config);

}  // namespace perfbench
