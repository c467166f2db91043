#ifndef STINDEX_PERFBENCH_WORKLOADS_H_
#define STINDEX_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "measure.h"

namespace stindex {
namespace perfbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  // Directory for the snapshot and trace files.
  std::string work_dir;
  // Test hook: flip one reference answer so the answer check must fail.
  bool corrupt_reference = false;
};

// Per-thread ring size of the set-up trace (one thread sets up).
inline constexpr size_t kSetupTraceEvents = 1 << 18;

// The two historical workloads differ only in client count and in the
// shared pool's size relative to the packed tree.
struct HistSpec {
  int clients = 1;
  size_t pool_pages = 0;
};

RunResult RunHist(const BenchOptions& options, const HistSpec& spec);
RunResult RunLive(const BenchOptions& options);

}  // namespace perfbench
}  // namespace stindex

#endif  // STINDEX_PERFBENCH_WORKLOADS_H_
