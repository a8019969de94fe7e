#include "core/pipeline.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace orderless::core {

namespace {
// Items an org abandoned (crash between admit and resolve) are reclaimed
// after this many epoch barriers.
constexpr std::uint32_t kMaxItemAge = 16;
}  // namespace

CommitPipeline::CommitPipeline(const crypto::Pki& pki,
                               std::set<crypto::KeyId> org_keys,
                               EndorsementPolicy policy)
    : pki_(pki), org_keys_(std::move(org_keys)), policy_(policy) {}

void CommitPipeline::Publish(const std::shared_ptr<const Transaction>& tx) {
  // Seal every lazily-computed cache on the publishing lane before the hub
  // makes the object visible to thief threads: from here on, digest and
  // encoding reads are immutable (Assemble already does this for
  // client-built transactions; decoded copies get it here).
  (void)tx->EncodedBody();
  (void)tx->ProposalDigest();
  (void)tx->OpsDigest();

  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = items_.try_emplace(tx->id);
  if (!inserted) return;
  it->second = std::make_unique<Item>();
  it->second->tx = tx;
  steal_queue_.push_back(tx->id);
  ++stats_.published;
}

CommitPipeline::Item* CommitPipeline::Find(const crypto::Digest& id) {
  // Items are only erased at epoch barriers (Sweep), so the raw pointer
  // stays valid for the remainder of the epoch once the lock is dropped.
  const auto it = items_.find(id);
  return it == items_.end() ? nullptr : it->second.get();
}

TxVerdict CommitPipeline::AwaitVerdict(Item& item) {
  // Claimed by another thread: its verify is a handful of keyed hashes, far
  // cheaper than redoing the validation ourselves. Spin briefly, then yield
  // every iteration — on an oversubscribed host the claimant may be
  // preempted mid-verify, and burning our own quantum only delays it.
  std::uint32_t spins = 0;
  while (item.state.load(std::memory_order_acquire) != 2) {
    if (++spins > 32) std::this_thread::yield();
  }
  return item.verdict;
}

std::optional<TxVerdict> CommitPipeline::Resolve(
    const std::shared_ptr<const Transaction>& tx) {
  Item* item;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    item = Find(tx->id);
    if (item == nullptr) return std::nullopt;
  }
  // Same body? Pointer equality is the common case (one Transaction object
  // is shared zero-copy across the cluster); byte equality covers a
  // re-decoded copy. A Byzantine substitution under the same id fails both
  // and falls back to local validation — the hub never vouches for bytes it
  // did not verify. Mirrors the validation memo's SameBody guard.
  if (item->tx.get() != tx.get() &&
      !std::ranges::equal(item->tx->EncodedBody(), tx->EncodedBody())) {
    return std::nullopt;
  }

  std::uint32_t expected = 0;
  if (item->state.compare_exchange_strong(expected, 1,
                                          std::memory_order_acq_rel)) {
    item->verdict = ValidateTransaction(*item->tx, pki_, org_keys_, policy_);
    item->state.store(2, std::memory_order_release);
    item->consumed.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.inline_claims;
    return item->verdict;
  }
  const TxVerdict verdict = AwaitVerdict(*item);
  item->consumed.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.shared;
  }
  return verdict;
}

bool CommitPipeline::DrainOne() {
  // Claim up to kStealBatch unclaimed items under the lock, verify them all
  // in one cross-transaction signature batch outside it.
  Item* batch[kStealBatch];
  const Transaction* txs[kStealBatch];
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (count < kStealBatch && !steal_queue_.empty()) {
      const crypto::Digest id = steal_queue_.front();
      steal_queue_.pop_front();
      Item* item = Find(id);
      if (item == nullptr) continue;  // swept before any thief got to it
      std::uint32_t expected = 0;
      if (!item->state.compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
        continue;  // an org lane beat us to it
      }
      batch[count] = item;
      txs[count] = item->tx.get();
      ++count;
    }
    if (count > 0) {
      stats_.stolen += count;
      ++stats_.batches;
    }
  }
  if (count == 0) return false;

  TxVerdict verdicts[kStealBatch];
  ValidateTransactionsBatch(txs, count, pki_, org_keys_, policy_, verdicts);
  for (std::size_t i = 0; i < count; ++i) {
    batch[i]->verdict = verdicts[i];
    batch[i]->state.store(2, std::memory_order_release);
  }
  return true;
}

void CommitPipeline::Sweep() {
  // Runs single-threadedly at epoch barriers: every lane and every idle
  // worker has parked, so no claim is in flight (state is 0 or 2) and no
  // thread holds an Item pointer across the barrier.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = items_.begin(); it != items_.end();) {
    Item& item = *it->second;
    const bool done = item.state.load(std::memory_order_acquire) == 2;
    const bool dead = done && item.consumed.load(std::memory_order_relaxed);
    if (dead || ++item.age > kMaxItemAge) {
      ++stats_.swept;
      it = items_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace orderless::core
