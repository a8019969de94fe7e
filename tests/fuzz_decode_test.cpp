// Decoder robustness: Byzantine peers can hand us arbitrary bytes. Every
// decoder (operations, write-sets, CRDT states, proposals, vector clocks,
// values) must reject mutated or truncated input gracefully — no crashes,
// no exceptions, and where decoding "succeeds" after mutation, re-encoding
// must still be internally consistent.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "clock/vector_clock.h"
#include "core/transaction.h"
#include "crdt/object.h"

namespace orderless {
namespace {

Bytes EncodeSampleOps(Rng& rng) {
  std::vector<crdt::Operation> ops;
  for (int i = 0; i < 8; ++i) {
    crdt::Operation op;
    op.object_id = "obj" + std::to_string(i % 3);
    op.object_type = crdt::CrdtType::kMap;
    op.path = {"k" + std::to_string(i), "sub"};
    op.kind = static_cast<crdt::OpKind>(rng.NextBelow(4));
    op.value_type = crdt::CrdtType::kMVRegister;
    op.value = crdt::Value(rng.NextInRange(-5, 5));
    op.clock = clk::OpClock{1 + rng.NextBelow(4), 1 + rng.NextBelow(10)};
    op.seq = static_cast<std::uint32_t>(i);
    ops.push_back(std::move(op));
  }
  codec::Writer w;
  crdt::EncodeOperations(ops, w);
  return w.Take();
}

TEST(FuzzDecode, MutatedWriteSetsNeverCrash) {
  Rng rng(31337);
  for (int round = 0; round < 300; ++round) {
    Bytes encoded = EncodeSampleOps(rng);
    // Mutate 1..8 random bytes.
    const std::size_t mutations = 1 + rng.NextBelow(8);
    for (std::size_t m = 0; m < mutations; ++m) {
      encoded[rng.NextBelow(encoded.size())] =
          static_cast<std::uint8_t>(rng.Next());
    }
    codec::Reader r{BytesView(encoded)};
    const auto decoded = crdt::DecodeOperations(r);
    if (decoded) {
      // If it happens to parse, the ops must re-encode and apply safely.
      crdt::CrdtObject obj("obj0", crdt::CrdtType::kMap);
      obj.ApplyOperations(*decoded);
      codec::Writer w;
      crdt::EncodeOperations(*decoded, w);
    }
  }
}

TEST(FuzzDecode, TruncatedWriteSetsNeverCrash) {
  Rng rng(99);
  const Bytes encoded = EncodeSampleOps(rng);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    const auto decoded = crdt::DecodeOperations(r);
    if (cut < encoded.size()) {
      // Usually fails; occasionally a prefix is self-consistent, which is
      // fine — it must just never fault.
      (void)decoded;
    }
  }
}

TEST(FuzzDecode, MutatedCrdtStatesNeverCrash) {
  Rng rng(555);
  // Build a real state with all node types nested.
  crdt::CrdtObject obj("obj", crdt::CrdtType::kMap);
  for (int i = 0; i < 30; ++i) {
    crdt::Operation op;
    op.object_id = "obj";
    op.object_type = crdt::CrdtType::kMap;
    op.kind = i % 3 == 0 ? crdt::OpKind::kInsertValue
                         : (i % 3 == 1 ? crdt::OpKind::kAssignValue
                                       : crdt::OpKind::kAddValue);
    op.value_type = i % 3 == 0 ? crdt::CrdtType::kMap
                               : (i % 3 == 1 ? crdt::CrdtType::kMVRegister
                                             : crdt::CrdtType::kGCounter);
    op.path = {"k" + std::to_string(i % 5)};
    op.value = i % 3 == 2 ? crdt::Value(std::int64_t{1})
                          : crdt::Value("v" + std::to_string(i));
    op.clock = clk::OpClock{1 + static_cast<std::uint64_t>(i % 3),
                            1 + static_cast<std::uint64_t>(i)};
    obj.ApplyOperation(op);
  }
  const Bytes state = obj.EncodeState();
  for (int round = 0; round < 300; ++round) {
    Bytes mutated = state;
    const std::size_t mutations = 1 + rng.NextBelow(6);
    for (std::size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBelow(mutated.size())] =
          static_cast<std::uint8_t>(rng.Next());
    }
    const auto decoded = crdt::CrdtObject::DecodeState("obj",
                                                       BytesView(mutated));
    if (decoded) {
      (void)decoded->Read();  // materialization must be safe too
      (void)decoded->EncodeState();
    }
  }
}

// Sum of the entries of a counter state, read straight off its encoding.
std::int64_t SumOfEncodedEntries(const Bytes& state) {
  codec::Reader r{BytesView(state)};
  (void)r.GetU8();
  const auto n = r.GetVarint();
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; n && i < *n; ++i) {
    (void)r.GetVarint();
    (void)r.GetVarint();
    (void)r.GetU32();
    sum += static_cast<std::uint64_t>(r.GetI64().value_or(0));
  }
  return static_cast<std::int64_t>(sum);
}

TEST(FuzzDecode, MutatedCounterStatesStayCanonical) {
  // A decoded counter must be exactly the set it encodes: its value is the
  // sum of its entries, its re-encoding decodes to the same bytes again, and
  // a G-Counter never holds a non-positive amount. Mutations that break the
  // strict entry order (duplicates included) must be rejected outright.
  Rng rng(2024);
  for (const crdt::CrdtType type :
       {crdt::CrdtType::kGCounter, crdt::CrdtType::kPNCounter}) {
    crdt::CrdtObject obj("c", type);
    for (int i = 0; i < 40; ++i) {
      crdt::Operation op;
      op.object_id = "c";
      op.object_type = type;
      op.kind = crdt::OpKind::kAddValue;
      op.value_type = type;
      op.value = crdt::Value(std::int64_t{1 + i % 7});
      op.clock = clk::OpClock{1 + rng.NextBelow(5), 1 + rng.NextBelow(50)};
      op.seq = static_cast<std::uint32_t>(rng.NextBelow(3));
      obj.ApplyOperation(op);
    }
    const Bytes state = obj.EncodeState();
    int accepted = 0;
    for (int round = 0; round < 400; ++round) {
      Bytes mutated = state;
      const std::size_t mutations = 1 + rng.NextBelow(4);
      for (std::size_t m = 0; m < mutations; ++m) {
        // Skip the type tag: a different node type is another decoder.
        mutated[1 + rng.NextBelow(mutated.size() - 1)] =
            static_cast<std::uint8_t>(rng.Next());
      }
      const auto decoded =
          crdt::CrdtObject::DecodeState("c", BytesView(mutated));
      if (!decoded) continue;
      ++accepted;
      const Bytes again = decoded->EncodeState();
      EXPECT_EQ(decoded->Read().counter, SumOfEncodedEntries(again));
      const auto redecoded = crdt::CrdtObject::DecodeState("c", BytesView(again));
      ASSERT_NE(redecoded, nullptr);
      EXPECT_EQ(redecoded->EncodeState(), again);
      EXPECT_EQ(redecoded->Read().counter, decoded->Read().counter);
    }
    EXPECT_GT(accepted, 0) << "some mutations only change amounts or ids";
  }
  // Entry-order violations, built directly.
  for (const crdt::CrdtType type :
       {crdt::CrdtType::kGCounter, crdt::CrdtType::kPNCounter}) {
    crdt::CrdtObject obj("c", type);
    for (std::uint64_t client = 1; client <= 3; ++client) {
      crdt::Operation op;
      op.object_id = "c";
      op.object_type = type;
      op.kind = crdt::OpKind::kAddValue;
      op.value_type = type;
      op.value = crdt::Value(std::int64_t{2});
      op.clock = clk::OpClock{client, 1};
      obj.ApplyOperation(op);
    }
    const Bytes state = obj.EncodeState();
    // Header: type tag + 1-byte count; entries: 1 + 1 + 4 + 1 bytes each.
    ASSERT_EQ(state.size(), 2u + 3u * 7u);
    Bytes swapped = state;
    std::swap_ranges(swapped.begin() + 2, swapped.begin() + 9,
                     swapped.begin() + 9);
    EXPECT_EQ(crdt::CrdtObject::DecodeState("c", BytesView(swapped)), nullptr);
    Bytes duplicated = state;
    std::copy(duplicated.begin() + 2, duplicated.begin() + 9,
              duplicated.begin() + 9);
    EXPECT_EQ(crdt::CrdtObject::DecodeState("c", BytesView(duplicated)),
              nullptr);
  }
}

TEST(FuzzDecode, MutatedProposalsNeverCrash) {
  Rng rng(777);
  core::Proposal proposal;
  proposal.client = 42;
  proposal.contract = "voting";
  proposal.function = "Vote";
  proposal.args = {crdt::Value("e1"), crdt::Value(std::int64_t{1}),
                   crdt::Value(3.5), crdt::Value(true)};
  proposal.clock = clk::OpClock{42, 7};
  codec::Writer w;
  proposal.Encode(w);
  const Bytes encoded = w.Take();
  for (int round = 0; round < 300; ++round) {
    Bytes mutated = encoded;
    mutated[rng.NextBelow(mutated.size())] =
        static_cast<std::uint8_t>(rng.Next());
    codec::Reader r{BytesView(mutated)};
    const auto decoded = core::Proposal::Decode(r);
    if (decoded) (void)decoded->Digest();
  }
  // Truncations.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    (void)core::Proposal::Decode(r);
  }
}

TEST(FuzzDecode, MutatedVectorClocksNeverCrash) {
  Rng rng(888);
  clk::VectorClock vc;
  for (int i = 0; i < 10; ++i) vc.Tick(rng.NextBelow(5));
  codec::Writer w;
  vc.Encode(w);
  const Bytes encoded = w.Take();
  for (int round = 0; round < 200; ++round) {
    Bytes mutated = encoded;
    mutated[rng.NextBelow(mutated.size())] =
        static_cast<std::uint8_t>(rng.Next());
    codec::Reader r{BytesView(mutated)};
    const auto decoded = clk::VectorClock::Decode(r);
    if (decoded) (void)decoded->ToString();
  }
}

}  // namespace
}  // namespace orderless
