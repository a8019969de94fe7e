#include "ledger/ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "codec/codec.h"
#include "codec/scratch.h"

namespace orderless::ledger {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

/// prefix + 64 hex chars in a single string allocation (a "tx/" + Hex()
/// concat would allocate the hex temporary and then the concatenation —
/// twice per committed transaction on the hottest store path).
std::string PrefixedHexKey(std::string_view prefix, const crypto::Digest& d) {
  std::string key;
  key.resize(prefix.size() + 2 * d.bytes.size());
  std::memcpy(key.data(), prefix.data(), prefix.size());
  char* out = key.data() + prefix.size();
  for (const std::uint8_t b : d.bytes) {
    *out++ = kHexDigits[b >> 4];
    *out++ = kHexDigits[b & 0xf];
  }
  return key;
}
}  // namespace

Ledger::Ledger(std::shared_ptr<KvStore> store, LedgerOptions options)
    : store_(std::move(store)), options_(options) {
  log_.SetRolling(options_.rolling_log);
}

std::string Ledger::TxKey(const crypto::Digest& tx_digest) {
  return PrefixedHexKey("tx/", tx_digest);
}

std::string Ledger::BodyKey(const crypto::Digest& tx_digest) {
  return PrefixedHexKey("body/", tx_digest);
}

void Ledger::PutTransactionBody(const crypto::Digest& tx_digest,
                                BytesView encoded) {
  store_->Put(BodyKey(tx_digest), encoded);
}

void Ledger::PutTransactionBodyRef(const crypto::Digest& tx_digest,
                                   std::shared_ptr<const Bytes> encoded) {
  store_->PutRef(BodyKey(tx_digest), std::move(encoded));
}

void Ledger::ScanTransactionBodies(
    const std::function<void(BytesView encoded)>& visitor) const {
  store_->ScanPrefix("body/", [&visitor](std::string_view key, BytesView value) {
    (void)key;
    visitor(value);
    return true;
  });
}

std::string Ledger::OpKey(const crdt::Operation& op) {
  // "op/<object>/<client>.<counter>.<seq>.<first 8 hex of content>": object
  // id first so a prefix scan groups one object's operations. One
  // allocation: numbers formatted into a stack buffer, the digest prefix
  // hex-encoded directly.
  const auto id = op.id();
  char mid[80];
  const int mid_len = std::snprintf(
      mid, sizeof mid, "/%llu.%llu.%lu.",
      static_cast<unsigned long long>(id.client),
      static_cast<unsigned long long>(id.counter),
      static_cast<unsigned long>(id.seq));
  const crypto::Digest content = op.ContentDigest();
  char hex8[8];
  for (int i = 0; i < 4; ++i) {
    hex8[2 * i] = kHexDigits[content.bytes[i] >> 4];
    hex8[2 * i + 1] = kHexDigits[content.bytes[i] & 0xf];
  }
  std::string key;
  key.reserve(3 + op.object_id.size() + static_cast<std::size_t>(mid_len) + 8);
  key.append("op/");
  key.append(op.object_id);
  key.append(mid, static_cast<std::size_t>(mid_len));
  key.append(hex8, 8);
  return key;
}

const Block& Ledger::Commit(const crypto::Digest& tx_digest, bool valid,
                            const std::vector<crdt::Operation>& ops) {
  const Block& block = log_.Append(tx_digest, valid);
  if (options_.track_tx_keys) {
    // height ‖ verdict ‖ block hash: enough to rebuild the commit index and
    // the hash chain (and to cross-check it) after a crash.
    codec::ScratchWriter record;
    record->PutU64(block.height);
    record->PutBool(block.valid);
    record->PutBytes(block.hash.View());
    store_->Put(TxKey(tx_digest), BytesView(record->data()));
  }
  if (valid) {
    ++committed_valid_;
    if (options_.persist_ops) {
      codec::ScratchWriter w;
      for (const auto& op : ops) {
        w->Clear();
        op.Encode(*w);
        store_->Put(OpKey(op), BytesView(w->data()));
      }
    }
    cache_.Apply(ops);
  } else {
    ++committed_invalid_;
  }
  return block;
}

bool Ledger::HasTransaction(const crypto::Digest& tx_digest) const {
  return store_->Get(TxKey(tx_digest)).has_value();
}

crdt::ReadResult Ledger::Read(const std::string& object_id,
                              const std::vector<std::string>& path) const {
  return cache_.Read(object_id, path);
}

std::vector<Ledger::RecoveredTx> Ledger::RecoverCommitIndex() const {
  std::vector<RecoveredTx> records;
  store_->ScanPrefix("tx/", [&records](std::string_view key, BytesView value) {
    codec::Reader r(value);
    RecoveredTx rec;
    rec.id = crypto::Digest::FromHexOrZero(key.substr(3));
    const auto height = r.GetU64();
    const auto valid = r.GetBool();
    const auto hash = r.GetBytes();
    if (!height || !valid || !hash || hash->size() != rec.block_hash.bytes.size()) {
      return true;  // pre-upgrade or torn record: skip it
    }
    rec.height = *height;
    rec.valid = *valid;
    std::copy(hash->begin(), hash->end(), rec.block_hash.bytes.begin());
    records.push_back(rec);
    return true;
  });
  std::sort(records.begin(), records.end(),
            [](const RecoveredTx& a, const RecoveredTx& b) {
              return a.height < b.height;
            });
  return records;
}

bool Ledger::RecoverFromStore() { return RecoverFromStore(RecoveryBase{}); }

bool Ledger::RecoverFromStore(const RecoveryBase& base) {
  log_ = HashChainLog();
  log_.SetRolling(options_.rolling_log);
  if (base.chain_height > 0) {
    log_.SeedBase(base.chain_height, base.chain_head);
  }
  committed_valid_ = 0;
  committed_invalid_ = 0;
  last_recovered_records_ = 0;
  bool consistent = true;
  for (const RecoveredTx& rec : RecoverCommitIndex()) {
    // Records below the checkpoint boundary are covered by the snapshot;
    // they normally no longer exist (pruned at seal), but a crash between
    // sealing and pruning can leave some behind — skip, don't double-count.
    if (rec.height < base.chain_height) continue;
    const Block& block = log_.Append(rec.id, rec.valid);
    if (block.hash != rec.block_hash) consistent = false;
    ++last_recovered_records_;
    if (rec.valid) {
      ++committed_valid_;
    } else {
      ++committed_invalid_;
    }
  }
  cache_.Clear();
  if (base.object_states != nullptr) {
    for (const auto& [object_id, state] : *base.object_states) {
      cache_.MergeEncodedState(object_id, BytesView(state));
    }
  }
  ReplayOpsFromStore();
  return consistent;
}

void Ledger::PutCheckpointBlob(std::string_view slot,
                               std::shared_ptr<const Bytes> encoded) {
  store_->PutRef(std::string("ckpt/") + std::string(slot), std::move(encoded));
}

std::optional<Bytes> Ledger::GetCheckpointBlob(std::string_view slot) const {
  return store_->Get(std::string("ckpt/") + std::string(slot));
}

std::size_t Ledger::PruneBehindCheckpoint(
    std::uint64_t chain_height, const crypto::Digest& chain_head,
    const std::vector<crypto::Digest>& covered_ids) {
  std::vector<std::string> doomed;
  // Commit records strictly below the frontier: the checkpoint's covered set
  // replaces them as the dedup/commit index for that prefix.
  store_->ScanPrefix(
      "tx/", [&doomed, chain_height](std::string_view key, BytesView value) {
        codec::Reader r(value);
        const auto height = r.GetU64();
        if (height && *height < chain_height) doomed.emplace_back(key);
        return true;
      });
  // Every persisted operation: the sealed snapshot is their join, and ops
  // committed after this call start accumulating again for the next delta.
  store_->ScanPrefix("op/", [&doomed](std::string_view key, BytesView value) {
    (void)value;
    doomed.emplace_back(key);
    return true;
  });
  // Covered bodies: one in-order pass over the body rows still stored (none
  // behind an earlier pruned frontier) instead of a lookup per id.
  std::vector<std::string> covered_keys;
  covered_keys.reserve(covered_ids.size());
  for (const crypto::Digest& id : covered_ids) {
    covered_keys.push_back(BodyKey(id));
  }
  std::sort(covered_keys.begin(), covered_keys.end());
  store_->ScanPrefix(
      "body/", [&doomed, &covered_keys](std::string_view key, BytesView) {
        if (std::binary_search(covered_keys.begin(), covered_keys.end(),
                               key)) {
          doomed.emplace_back(key);
        }
        return true;
      });
  for (const std::string& key : doomed) store_->Delete(key);
  log_.PruneBelow(chain_height, chain_head);
  return doomed.size();
}

void Ledger::RebuildCacheFromStore() {
  cache_.Clear();
  ReplayOpsFromStore();
}

void Ledger::ReplayOpsFromStore() {
  std::vector<crdt::Operation> ops;
  store_->ScanPrefix("op/", [&ops](std::string_view key, BytesView value) {
    (void)key;
    codec::Reader r(value);
    auto op = crdt::Operation::Decode(r);
    if (op) ops.push_back(std::move(*op));
    return true;
  });
  cache_.Apply(ops);
}

}  // namespace orderless::ledger
