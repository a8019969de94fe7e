// What the RunUntil wrapper measures about the simulation run itself. It is
// recorded in traced and untraced runs alike: two clock reads and two
// getrusage calls per run.
#pragma once

#include <cstdint>

namespace perfbench {

struct RunRecord {
  std::uint64_t calls = 0;       // RunUntil calls (one per experiment)
  std::uint64_t entry_ns = 0;    // NowNs() at the first entry
  std::uint64_t wall_ns = 0;     // RunUntil wall time
  std::uint64_t cpu_ns = 0;      // process user+sys time inside RunUntil
};

/// Written by the RunUntil wrapper on the calling (main) thread.
RunRecord& Run();

/// When set before the experiment, RunUntil turns span recording on for
/// its duration.
void SetTraceRun(bool on);

}  // namespace perfbench
