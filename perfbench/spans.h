// Host-time spans recorded around calls into the system's layers.
//
// Every interposed function (interpose.cpp) opens a span on entry and closes
// it on exit. Each thread keeps a stack of its open spans; closing one
// attributes its duration to the function and its self time (duration minus
// the part covered by child spans) to the function's layer, and adds the
// duration to the parent's covered time. Spans aggregate into a per-thread
// Shard as they close, so nothing is kept per call. Shards merge when their
// thread exits and on Collect().
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Every interposed function, in layer order.
enum class Fn : std::uint8_t {
  kRunUntil,  // sim: the simulation run, the root span
  kSend,      // sim: Network::Send
  kVerify,    // crypto
  kVerifyBatch,
  kSign,
  kHash,
  kHashBatch,
  kTxEncode,  // codec
  kTxEncodedBody,
  kTxDecode,
  kCkptEncode,
  kCkptDecode,
  kApply,  // crdt
  kCrdtRead,
  kEncodeState,
  kDecodeState,
  kMergeState,
  kLedgerCommit,  // ledger
  kBodyPut,
  kBodyPutRef,
  kLedgerRead,
  kPrune,
  kValidate,  // core
  kValidateBatch,
  kMemoLookup,
  kSubmitModify,
  kSubmitRead,
  kCkptSeal,
  kCkptVerify,
  kCount,
};
inline constexpr std::size_t kFnCount = static_cast<std::size_t>(Fn::kCount);
const char* FnName(Fn fn);

/// Counts taken inside the wrappers, beside the spans.
enum class Counter : std::uint8_t {
  kSendBytes,   // sum of Message::WireSize() at Network::Send
  kVerifySigs,  // signatures checked: 1 per Verify, n per VerifyBatch
  kMemoHits,    // ValidationMemo lookups that returned a verdict
  kApplyDup,    // ApplyOperation calls that returned false
  kCount,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

struct FnStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  // span durations
  std::uint64_t self_ns = 0;   // durations minus covered child spans
};

struct Shard {
  std::array<FnStats, kFnCount> fn{};
  std::array<std::uint64_t, kCounterCount> counter{};
  /// Sum of the durations of outermost spans. Self times on a thread add up
  /// to exactly this (the tiling identity the self-test checks).
  std::uint64_t top_ns = 0;

  const FnStats& at(Fn f) const { return fn[static_cast<std::size_t>(f)]; }
  std::uint64_t count(Counter c) const {
    return counter[static_cast<std::size_t>(c)];
  }
  std::uint64_t SelfNs() const;  // sum of self_ns over all functions
  void Merge(const Shard& other);
};

/// One thread's open spans. Times are passed in so tests can feed
/// hand-built spans.
class SpanStack {
 public:
  void Enter(Fn fn, std::uint64_t now_ns) {
    frames_.push_back(Frame{fn, now_ns, 0});
  }
  void Exit(std::uint64_t now_ns);
  void Count(Counter c, std::uint64_t n) {
    shard_.counter[static_cast<std::size_t>(c)] += n;
  }
  const Shard& shard() const { return shard_; }
  std::size_t depth() const { return frames_.size(); }

 private:
  struct Frame {
    Fn fn;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::vector<Frame> frames_;
  Shard shard_;
};

/// Process-wide recording switch: the wrappers record only while it is on.
/// The RunUntil wrapper turns it on for the duration of a traced run.
inline std::atomic<bool> g_recording{false};
inline void SetRecording(bool on) {
  g_recording.store(on, std::memory_order_relaxed);
}
inline bool Recording() {
  return g_recording.load(std::memory_order_relaxed);
}

/// Calling thread's stack (created on first use, merged at thread exit).
SpanStack& ThisThread();

/// Merged shards of every thread, exited or live. Call only while no other
/// thread records (after the simulation has joined its workers).
Shard Collect();

std::uint64_t NowNs();

/// RAII span around one call.
class Scope {
 public:
  explicit Scope(Fn fn) : on_(Recording()) {
    if (on_) ThisThread().Enter(fn, NowNs());
  }
  ~Scope() {
    if (on_) ThisThread().Exit(NowNs());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
};

inline void Count(Counter c, std::uint64_t n) {
  if (Recording()) ThisThread().Count(c, n);
}

}  // namespace perfbench
