#include "crypto/pki.h"

#include <array>
#include <cstring>

namespace orderless::crypto {

namespace {
// Upper bound for the one-shot staging buffer: secret (32) + separators (2)
// + context (<= 32) + a digest-sized or modestly larger message. Protocol
// signatures all fit; anything bigger takes the incremental path.
constexpr std::size_t kStackLimit = 160;

/// Lays out secret ‖ 0x1f ‖ context ‖ 0x1f ‖ message into `buf` (capacity
/// kStackLimit) and returns the length, or 0 if it does not fit.
std::size_t StageKeyedInput(const Digest& secret, std::string_view context,
                            BytesView message, std::uint8_t* buf) {
  const std::size_t total =
      secret.bytes.size() + 2 + context.size() + message.size();
  if (total > kStackLimit) return 0;
  std::uint8_t* p = buf;
  std::memcpy(p, secret.bytes.data(), secret.bytes.size());
  p += secret.bytes.size();
  *p++ = 0x1f;
  if (!context.empty()) {
    std::memcpy(p, context.data(), context.size());
    p += context.size();
  }
  *p++ = 0x1f;
  if (!message.empty()) std::memcpy(p, message.data(), message.size());
  return total;
}

Signature KeyedHash(const Digest& secret, std::string_view context,
                    BytesView message) {
  // Fast path for the protocol's actual signatures: the whole input fits a
  // stack buffer, so the hash runs as one update instead of five (each
  // incremental Update pays block-boundary bookkeeping). Identical stream,
  // identical digest.
  std::uint8_t buf[kStackLimit];
  if (const std::size_t total = StageKeyedInput(secret, context, message, buf);
      total > 0) {
    return Sha256::Hash(BytesView(buf, total));
  }
  Sha256 h;
  h.Update(secret.View());
  h.Update("\x1f");
  h.Update(context);
  h.Update("\x1f");
  h.Update(message);
  return h.Finalize();
}
}  // namespace

Signature PrivateKey::Sign(std::string_view context, BytesView message) const {
  return KeyedHash(secret_, context, message);
}

Signature PrivateKey::Sign(std::string_view context, const Digest& digest) const {
  return KeyedHash(secret_, context, digest.View());
}

PrivateKey Pki::Generate(const std::string& name) {
  const KeyId id = next_id_++;
  // Derive the secret deterministically from the registry's sequence so that
  // simulations are reproducible; within the simulation the secret is still
  // unguessable by protocol code, which never sees this derivation.
  Sha256 h;
  h.Update("orderless-pki-secret");
  std::uint8_t id_bytes[8];
  for (int i = 0; i < 8; ++i) id_bytes[i] = static_cast<std::uint8_t>(id >> (8 * i));
  h.Update(BytesView(id_bytes, 8));
  h.Update(name);
  const Digest secret = h.Finalize();
  keys_.emplace(id, Entry{secret, name});
  return PrivateKey(id, secret);
}

bool Pki::Verify(KeyId signer, std::string_view context, BytesView message,
                 const Signature& signature) const {
  const auto it = keys_.find(signer);
  if (it == keys_.end()) return false;
  const Signature expected = KeyedHash(it->second.secret, context, message);
  return ConstantTimeEqual(expected.View(), signature.View());
}

bool Pki::Verify(KeyId signer, std::string_view context, const Digest& digest,
                 const Signature& signature) const {
  return Verify(signer, context, digest.View(), signature);
}

bool Pki::VerifyBatch(const BatchItem* items, std::size_t n,
                      bool* valid_out) const {
  if (n > 0) batch::TallyVerify(n);  // no-op unless the profiler counts
  bool all = true;
  // Fixed-size chunks keep the staging buffers on the stack; 16 lanes also
  // matches the largest endorsement sets the experiments run.
  constexpr std::size_t kChunk = 16;
  std::array<std::array<std::uint8_t, kStackLimit>, kChunk> staged;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t count = std::min(kChunk, n - base);
    BytesView inputs[kChunk];
    std::size_t hash_item[kChunk];  // item index behind each hash lane
    std::size_t lanes = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const BatchItem& item = items[base + i];
      const auto it = keys_.find(item.signer);
      if (it == keys_.end()) {
        valid_out[base + i] = false;
        all = false;
        continue;
      }
      const std::size_t len = StageKeyedInput(
          it->second.secret, item.context, item.message, staged[lanes].data());
      if (len == 0) {
        // Oversize input: hash it alone, same as the scalar slow path.
        valid_out[base + i] =
            Verify(item.signer, item.context, item.message, item.signature);
        all = all && valid_out[base + i];
        continue;
      }
      inputs[lanes] = BytesView(staged[lanes].data(), len);
      hash_item[lanes] = base + i;
      ++lanes;
    }
    Digest expected[kChunk];
    Sha256::HashBatch(inputs, expected, lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      const bool ok = ConstantTimeEqual(
          expected[l].View(), items[hash_item[l]].signature.View());
      valid_out[hash_item[l]] = ok;
      all = all && ok;
    }
  }
  return all;
}

std::size_t Pki::CountValidDistinct(
    std::string_view context, const Digest& digest,
    const std::vector<std::pair<KeyId, Signature>>& signatures,
    const std::set<KeyId>& allowed) const {
  // Batch path: verify every allowed entry in one multi-buffer pass, then
  // count each signer with at least one valid entry. Deduplicating signers
  // before verifying would let a forged first entry hide a valid later one;
  // this counts exactly what the scalar loop below counts.
  if (signatures.size() >= 2) {
    std::vector<BatchItem> items;
    items.reserve(signatures.size());
    for (const auto& [signer, signature] : signatures) {
      if (!allowed.contains(signer)) continue;
      items.push_back(BatchItem{signer, context, digest.View(), signature});
    }
    std::unique_ptr<bool[]> valid(new bool[items.size()]());
    VerifyBatch(items.data(), items.size(), valid.get());
    std::set<KeyId> counted;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (valid[i]) counted.insert(items[i].signer);
    }
    return counted.size();
  }
  std::set<KeyId> counted;
  for (const auto& [signer, signature] : signatures) {
    if (!allowed.contains(signer)) continue;
    if (counted.contains(signer)) continue;
    if (!Verify(signer, context, digest, signature)) continue;
    counted.insert(signer);
  }
  return counted.size();
}

const std::string& Pki::NameOf(KeyId id) const {
  static const std::string kUnknown = "<unknown>";
  const auto it = keys_.find(id);
  return it == keys_.end() ? kUnknown : it->second.name;
}

}  // namespace orderless::crypto
