#include "core/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace orderless::core {

namespace {

/// Encodes everything the digest covers — all fields except the digest and
/// signature — in one canonical order into any sink with codec::Writer's
/// Put* interface. Encode(), EncodedSize() and ComputeDigest() all go through
/// here, so the bytes hashed and counted are exactly the bytes shipped.
template <typename Sink>
void EncodeSignedFields(const Checkpoint& ckpt, Sink& w) {
  w.PutU64(ckpt.seq);
  w.PutU64(ckpt.origin);
  w.PutU64(ckpt.chain_height);
  w.PutRaw(ckpt.chain_head.View());
  w.PutU64(ckpt.valid_count);
  w.PutU64(ckpt.valid_xor);
  w.PutU32(static_cast<std::uint32_t>(ckpt.covered.size()));
  for (const Checkpoint::CoveredTx& tx : ckpt.covered) {
    w.PutRaw(tx.id.View());
    w.PutBool(tx.valid);
  }
  w.PutU32(static_cast<std::uint32_t>(ckpt.objects.size()));
  for (const auto& [object_id, state] : ckpt.objects) {
    w.PutString(object_id);
    w.PutBytes(BytesView(state));
  }
}

std::size_t VarintSize(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Counts the bytes codec::Writer would produce.
class SizeSink {
 public:
  void PutU32(std::uint32_t) { size_ += 4; }
  void PutU64(std::uint64_t) { size_ += 8; }
  void PutBool(bool) { size_ += 1; }
  void PutRaw(BytesView b) { size_ += b.size(); }
  void PutString(std::string_view s) { size_ += VarintSize(s.size()) + s.size(); }
  void PutBytes(BytesView b) { size_ += VarintSize(b.size()) + b.size(); }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Feeds codec::Writer's bytes straight into SHA-256 through a small staging
/// buffer: a digest over a large checkpoint never holds its encoding.
class DigestSink {
 public:
  // Room for a full stage plus the largest put that can follow it.
  DigestSink() { staged_.Reserve(2 * kStage + 16); }
  void PutU32(std::uint32_t v) { staged_.PutU32(v); Spill(); }
  void PutU64(std::uint64_t v) { staged_.PutU64(v); Spill(); }
  void PutBool(bool v) { staged_.PutBool(v); Spill(); }
  void PutRaw(BytesView b) {
    if (b.size() < kStage) {
      staged_.PutRaw(b);
      Spill();
      return;
    }
    Flush();
    sha_.Update(b);
  }
  void PutString(std::string_view s) {
    staged_.PutVarint(s.size());
    PutRaw(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size()));
  }
  void PutBytes(BytesView b) {
    staged_.PutVarint(b.size());
    PutRaw(b);
  }
  crypto::Digest Finish() {
    Flush();
    return sha_.Finalize();
  }

 private:
  static constexpr std::size_t kStage = 4096;
  void Spill() {
    if (staged_.size() >= kStage) Flush();
  }
  void Flush() {
    if (staged_.size() == 0) return;
    sha_.Update(BytesView(staged_.data()));
    staged_.Clear();
  }

  crypto::Sha256 sha_;
  codec::Writer staged_;
};

bool GetDigest(codec::Reader& r, crypto::Digest& out) {
  for (std::size_t i = 0; i < out.bytes.size(); ++i) {
    const auto b = r.GetU8();
    if (!b) return false;
    out.bytes[i] = *b;
  }
  return true;
}

}  // namespace

void Checkpoint::Encode(codec::Writer& w) const {
  EncodeSignedFields(*this, w);
  w.PutRaw(digest.View());
  w.PutRaw(signature.View());
}

std::shared_ptr<Checkpoint> Checkpoint::Decode(codec::Reader& r) {
  auto ckpt = std::make_shared<Checkpoint>();
  const auto seq = r.GetU64();
  const auto origin = r.GetU64();
  const auto chain_height = r.GetU64();
  if (!seq || !origin || !chain_height) return nullptr;
  ckpt->seq = *seq;
  ckpt->origin = *origin;
  ckpt->chain_height = *chain_height;
  if (!GetDigest(r, ckpt->chain_head)) return nullptr;
  const auto valid_count = r.GetU64();
  const auto valid_xor = r.GetU64();
  const auto covered_count = r.GetU32();
  if (!valid_count || !valid_xor || !covered_count) return nullptr;
  ckpt->valid_count = *valid_count;
  ckpt->valid_xor = *valid_xor;
  // Reserve guard: a flipped count byte must not drive a huge allocation.
  // Each covered entry occupies at least 33 wire bytes (digest + verdict),
  // so the remaining buffer bounds any honest count.
  ckpt->covered.reserve(
      std::min<std::size_t>(*covered_count, r.remaining() / 33));
  for (std::uint32_t i = 0; i < *covered_count; ++i) {
    CoveredTx tx;
    if (!GetDigest(r, tx.id)) return nullptr;
    const auto valid = r.GetBool();
    if (!valid) return nullptr;
    tx.valid = *valid;
    ckpt->covered.push_back(tx);
  }
  const auto object_count = r.GetU32();
  if (!object_count) return nullptr;
  // Same guard: an object entry is at least 2 wire bytes (two varint
  // lengths), so cap the reservation by what the buffer could even hold.
  ckpt->objects.reserve(
      std::min<std::size_t>(*object_count, r.remaining() / 2));
  for (std::uint32_t i = 0; i < *object_count; ++i) {
    auto object_id = r.GetString();
    auto state = r.GetBytes();
    if (!object_id || !state) return nullptr;
    ckpt->objects.emplace_back(std::move(*object_id), std::move(*state));
  }
  if (!GetDigest(r, ckpt->digest)) return nullptr;
  if (!GetDigest(r, ckpt->signature)) return nullptr;
  return ckpt;
}

std::size_t Checkpoint::EncodedSize() const {
  SizeSink sink;
  EncodeSignedFields(*this, sink);
  return sink.size() + digest.bytes.size() + signature.bytes.size();
}

crypto::Digest Checkpoint::ComputeDigest() const {
  DigestSink sink;
  EncodeSignedFields(*this, sink);
  return sink.Finish();
}

void Checkpoint::Seal(const crypto::PrivateKey& key) {
  encoding.reset();  // the fields may have changed since it was made
  digest = ComputeDigest();
  signature = key.Sign(kCheckpointContext, digest);
}

bool Checkpoint::Verify(
    const crypto::Pki& pki,
    const std::set<crypto::KeyId>& organization_keys) const {
  if (!organization_keys.contains(origin)) return false;
  if (ComputeDigest() != digest) return false;
  return pki.Verify(origin, kCheckpointContext, digest, signature);
}

std::size_t Checkpoint::WireSizeBytes() const {
  // Fixed header + digest + signature, 33 bytes per covered id, and the
  // object snapshots at their encoded size.
  std::size_t size = 64 + 32 + 32 + 32 + covered.size() * 33;
  for (const auto& [object_id, state] : objects) {
    size += 8 + object_id.size() + state.size();
  }
  return size;
}

std::uint64_t CoveredLookup::Key(const crypto::Digest& id) {
  std::uint64_t v;
  std::memcpy(&v, id.bytes.data(), sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

void CoveredLookup::Build(const std::vector<Checkpoint::CoveredTx>* covered) {
  const std::size_t n = covered == nullptr ? 0 : covered->size();
  covered_ = n == 0 ? nullptr : covered;
  offsets_.clear();
  shift_ = 64;
  if (n == 0) return;
  // 2^bits buckets holding 4 to 8 entries each on average; a list shorter
  // than 8 is one bucket (shift_ = 64).
  const unsigned log2n = static_cast<unsigned>(std::bit_width(n)) - 1;
  const unsigned bits = log2n > 2 ? log2n - 2 : 0;
  shift_ = 64 - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  offsets_.resize(buckets + 1);
  std::size_t i = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    offsets_[b] = static_cast<std::uint32_t>(i);
    while (i < n && Bucket(Key((*covered)[i].id)) == b) ++i;
  }
  offsets_[buckets] = static_cast<std::uint32_t>(n);
}

const Checkpoint::CoveredTx* CoveredLookup::Find(
    const crypto::Digest& id) const {
  if (covered_ == nullptr) return nullptr;
  const std::uint64_t key = Key(id);
  const std::size_t b = Bucket(key);
  for (std::uint32_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
    const Checkpoint::CoveredTx& entry = (*covered_)[i];
    const std::uint64_t entry_key = Key(entry.id);
    if (entry_key > key) break;  // sorted: the id is not in this bucket
    if (entry_key == key && entry.id == id) return &entry;
  }
  return nullptr;
}

void CheckpointAttestation::Encode(codec::Writer& w) const {
  w.PutU64(attester);
  w.PutRaw(signature.View());
}

bool CheckpointAttestation::Decode(codec::Reader& r,
                                   CheckpointAttestation& out) {
  const auto attester = r.GetU64();
  if (!attester) return false;
  out.attester = *attester;
  return GetDigest(r, out.signature);
}

bool CheckpointAttestation::Verify(const crypto::Pki& pki,
                                   const crypto::Digest& digest) const {
  return pki.Verify(attester, kCheckpointAttestContext, digest, signature);
}

void AttestationSet::Encode(codec::Writer& w) const {
  w.PutRaw(ckpt_digest.View());
  w.PutU32(static_cast<std::uint32_t>(attestations.size()));
  for (const CheckpointAttestation& a : attestations) a.Encode(w);
}

bool AttestationSet::Decode(codec::Reader& r, AttestationSet& out) {
  if (!GetDigest(r, out.ckpt_digest)) return false;
  const auto count = r.GetU32();
  if (!count) return false;
  // Reserve guard: each attestation is 40 wire bytes, so the remaining
  // buffer bounds any honest count (flipped count bytes cannot force a
  // multi-gigabyte allocation).
  out.attestations.clear();
  out.attestations.reserve(
      std::min<std::size_t>(*count, r.remaining() / 40));
  for (std::uint32_t i = 0; i < *count; ++i) {
    CheckpointAttestation a;
    if (!CheckpointAttestation::Decode(r, a)) return false;
    out.attestations.push_back(a);
  }
  return true;
}

std::size_t AttestationSet::CountValid(
    const crypto::Pki& pki,
    const std::set<crypto::KeyId>& organization_keys) const {
  std::vector<std::pair<crypto::KeyId, crypto::Signature>> sigs;
  sigs.reserve(attestations.size());
  for (const CheckpointAttestation& a : attestations) {
    sigs.emplace_back(a.attester, a.signature);
  }
  return pki.CountValidDistinct(kCheckpointAttestContext, ckpt_digest, sigs,
                                organization_keys);
}

}  // namespace orderless::core
