#include "spans.h"

#include <chrono>
#include <mutex>

namespace perfbench {

const char* FnName(Fn fn) {
  static constexpr const char* kNames[kFnCount] = {
      "Simulation::RunUntil",
      "Network::Send",
      "Pki::Verify",
      "Pki::VerifyBatch",
      "PrivateKey::Sign",
      "Sha256::Hash",
      "Sha256::HashBatch",
      "Transaction::Encode",
      "Transaction::EncodedBody",
      "Transaction::Decode",
      "Checkpoint::Encode",
      "Checkpoint::Decode",
      "CrdtObject::ApplyOperation",
      "CrdtObject::Read",
      "CrdtObject::EncodeState",
      "CrdtObject::DecodeState",
      "CrdtObject::MergeState",
      "Ledger::Commit",
      "Ledger::PutTransactionBody",
      "Ledger::PutTransactionBodyRef",
      "Ledger::Read",
      "Ledger::PruneBehindCheckpoint",
      "ValidateTransaction",
      "ValidateTransactionsBatch",
      "ValidationMemo::LookupFor",
      "Client::SubmitModify",
      "Client::SubmitRead",
      "Checkpoint::Seal",
      "Checkpoint::Verify",
  };
  return kNames[static_cast<std::size_t>(fn)];
}

std::uint64_t Shard::SelfNs() const {
  std::uint64_t sum = 0;
  for (const FnStats& s : fn) sum += s.self_ns;
  return sum;
}

void Shard::Merge(const Shard& other) {
  for (std::size_t i = 0; i < kFnCount; ++i) {
    fn[i].calls += other.fn[i].calls;
    fn[i].total_ns += other.fn[i].total_ns;
    fn[i].self_ns += other.fn[i].self_ns;
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counter[i] += other.counter[i];
  }
  top_ns += other.top_ns;
}

void SpanStack::Exit(std::uint64_t now_ns) {
  const Frame frame = frames_.back();
  frames_.pop_back();
  const std::uint64_t dur = now_ns - frame.start_ns;
  FnStats& stats = shard_.fn[static_cast<std::size_t>(frame.fn)];
  ++stats.calls;
  stats.total_ns += dur;
  stats.self_ns += dur - frame.child_ns;
  if (frames_.empty()) {
    shard_.top_ns += dur;
  } else {
    frames_.back().child_ns += dur;
  }
}

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<const SpanStack*> live;  // guarded by mutex
  Shard exited;                        // guarded by mutex
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // outlives thread exits
  return *registry;
}

/// Registers the thread's stack on first use; merges it on thread exit.
struct ThreadSlot {
  SpanStack stack;
  ThreadSlot() {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(&stack);
  }
  ~ThreadSlot() {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.exited.Merge(stack.shard());
    std::erase(r.live, &stack);
  }
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;
};

}  // namespace

SpanStack& ThisThread() {
  thread_local ThreadSlot slot;
  return slot.stack;
}

Shard Collect() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mutex);
  Shard merged = r.exited;
  for (const SpanStack* stack : r.live) merged.Merge(stack->shard());
  return merged;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace perfbench
