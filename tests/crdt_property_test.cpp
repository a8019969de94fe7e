// Property tests for Lemma 6.1 (order-independent convergence) and SEC's
// strong-convergence requirement: random operation sets, applied in random
// permutations with random duplication, must always produce identical
// canonical states. The idempotence properties at the end check that the
// CRDT state alone dedups re-deliveries exactly.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/rng.h"
#include "crdt/object.h"
#include "crdt/sequence_node.h"

namespace orderless::crdt {
namespace {

struct PropertyParams {
  std::uint64_t seed;
  CrdtType type;
  int num_clients;
  int ops_per_client;
};

std::string ParamName(const testing::TestParamInfo<PropertyParams>& info) {
  std::string name = std::string(CrdtTypeName(info.param.type)) + "_s" +
                     std::to_string(info.param.seed) + "_c" +
                     std::to_string(info.param.num_clients) + "_o" +
                     std::to_string(info.param.ops_per_client);
  // gtest parameter names must be alphanumeric/underscore only.
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  return name;
}

// Random operation generator covering every kind the type admits, including
// nested paths for maps.
std::vector<Operation> RandomOps(Rng& rng, CrdtType type, int num_clients,
                                 int ops_per_client) {
  std::vector<Operation> ops;
  const std::vector<std::string> keys = {"a", "b", "c"};
  const std::vector<std::string> subkeys = {"x", "y"};
  for (int client = 1; client <= num_clients; ++client) {
    for (int counter = 1; counter <= ops_per_client; ++counter) {
      Operation op;
      op.object_id = "obj";
      op.object_type = type;
      op.clock = clk::OpClock{static_cast<std::uint64_t>(client),
                              static_cast<std::uint64_t>(counter)};
      op.seq = 0;
      switch (type) {
        case CrdtType::kGCounter:
          op.kind = OpKind::kAddValue;
          op.value_type = CrdtType::kGCounter;
          op.value = Value(rng.NextInRange(1, 10));
          break;
        case CrdtType::kPNCounter:
          op.kind = OpKind::kAddValue;
          op.value_type = CrdtType::kPNCounter;
          op.value = Value(rng.NextInRange(-10, 10));
          break;
        case CrdtType::kMVRegister:
          op.kind = OpKind::kAssignValue;
          op.value_type = CrdtType::kMVRegister;
          op.value = Value(rng.NextInRange(0, 5));
          break;
        case CrdtType::kLWWRegister:
          op.kind = OpKind::kAssignValue;
          op.value_type = CrdtType::kLWWRegister;
          op.value = Value(rng.NextInRange(0, 5));
          break;
        case CrdtType::kORSet:
          op.kind = rng.NextBool(0.6) ? OpKind::kAddValue
                                      : OpKind::kRemoveValue;
          op.value_type = CrdtType::kORSet;
          op.value = Value("e" + std::to_string(rng.NextInRange(0, 3)));
          break;
        case CrdtType::kMap: {
          const double dice = rng.NextDouble();
          const std::string key = keys[rng.NextBelow(keys.size())];
          if (dice < 0.25) {
            op.kind = OpKind::kInsertValue;
            op.path = {key};
            op.value_type = rng.NextBool(0.3)
                                ? CrdtType::kNone  // delete
                                : (rng.NextBool(0.5) ? CrdtType::kMVRegister
                                                     : CrdtType::kMap);
          } else if (dice < 0.55) {
            op.kind = OpKind::kAssignValue;
            op.value_type = CrdtType::kMVRegister;
            op.path = {key};
            op.value = Value(rng.NextInRange(0, 9));
          } else if (dice < 0.8) {
            op.kind = OpKind::kAddValue;
            op.value_type = CrdtType::kGCounter;
            op.path = {key + "cnt"};
            op.value = Value(rng.NextInRange(1, 5));
          } else {
            // Nested: map → map → register.
            op.kind = OpKind::kAssignValue;
            op.value_type = CrdtType::kMVRegister;
            op.path = {key, subkeys[rng.NextBelow(subkeys.size())]};
            op.value = Value(rng.NextInRange(0, 9));
          }
          break;
        }
        case CrdtType::kNone:
          break;
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

class ConvergenceProperty : public testing::TestWithParam<PropertyParams> {};

TEST_P(ConvergenceProperty, PermutationsConverge) {
  const PropertyParams& params = GetParam();
  Rng rng(params.seed);
  const std::vector<Operation> ops =
      RandomOps(rng, params.type, params.num_clients, params.ops_per_client);

  CrdtObject reference("obj", params.type);
  reference.ApplyOperations(ops);
  const Bytes reference_state = reference.EncodeState();
  const ReadResult reference_read = reference.Read();

  for (int permutation = 0; permutation < 6; ++permutation) {
    std::vector<Operation> shuffled = ops;
    rng.Shuffle(shuffled);
    // Random duplication models gossip re-delivery.
    const std::size_t dup_count = rng.NextBelow(ops.size() + 1);
    for (std::size_t d = 0; d < dup_count; ++d) {
      shuffled.push_back(shuffled[rng.NextBelow(ops.size())]);
    }
    CrdtObject replica("obj", params.type);
    replica.ApplyOperations(shuffled);
    ASSERT_EQ(replica.EncodeState(), reference_state)
        << "diverged on permutation " << permutation;
    // Reads must agree too (the canonical state implies it, but this also
    // exercises the materialization path after shuffled application).
    const ReadResult replica_read = replica.Read();
    EXPECT_EQ(replica_read.counter, reference_read.counter);
    EXPECT_EQ(replica_read.values, reference_read.values);
    EXPECT_EQ(replica_read.keys, reference_read.keys);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ConvergenceProperty,
    testing::Values(
        PropertyParams{1, CrdtType::kGCounter, 3, 8},
        PropertyParams{2, CrdtType::kGCounter, 5, 20},
        PropertyParams{3, CrdtType::kPNCounter, 4, 10},
        PropertyParams{4, CrdtType::kMVRegister, 3, 6},
        PropertyParams{5, CrdtType::kMVRegister, 6, 15},
        PropertyParams{6, CrdtType::kLWWRegister, 4, 10},
        PropertyParams{7, CrdtType::kORSet, 3, 10},
        PropertyParams{8, CrdtType::kORSet, 5, 20},
        PropertyParams{9, CrdtType::kMap, 3, 8},
        PropertyParams{10, CrdtType::kMap, 4, 12},
        PropertyParams{11, CrdtType::kMap, 5, 20},
        PropertyParams{12, CrdtType::kMap, 2, 30},
        PropertyParams{13, CrdtType::kMap, 6, 10},
        PropertyParams{14, CrdtType::kMVRegister, 2, 40},
        PropertyParams{15, CrdtType::kGCounter, 8, 5},
        PropertyParams{16, CrdtType::kMap, 8, 6}),
    ParamName);

// Byzantine clock reuse: the same (client, counter, seq) id with different
// content must still converge on every replica.
TEST(ConvergenceByzantine, OpIdReuseConverges) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    Rng rng(seed);
    std::vector<Operation> ops = RandomOps(rng, CrdtType::kMap, 3, 6);
    // Clone some ops with identical ids but altered values.
    const std::size_t n = ops.size();
    for (std::size_t i = 0; i < n; i += 3) {
      Operation evil = ops[i];
      if (evil.value.IsInt()) {
        evil.value = Value(evil.value.AsInt() + 100);
        ops.push_back(std::move(evil));
      }
    }
    CrdtObject a("obj", CrdtType::kMap);
    a.ApplyOperations(ops);
    for (int perm = 0; perm < 4; ++perm) {
      std::vector<Operation> shuffled = ops;
      rng.Shuffle(shuffled);
      CrdtObject b("obj", CrdtType::kMap);
      b.ApplyOperations(shuffled);
      ASSERT_EQ(a.EncodeState(), b.EncodeState()) << "seed " << seed;
    }
  }
}

// Incremental application must agree with batch application (cache update
// path vs. rebuild path).
TEST(ConvergenceIncremental, IncrementalEqualsBatch) {
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    Rng rng(seed);
    const std::vector<Operation> ops = RandomOps(rng, CrdtType::kMap, 4, 10);
    CrdtObject batch("obj", CrdtType::kMap);
    batch.ApplyOperations(ops);

    CrdtObject incremental("obj", CrdtType::kMap);
    for (const auto& op : ops) {
      incremental.ApplyOperation(op);
      // Interleave reads to force materialization between applications.
      incremental.Read();
    }
    ASSERT_EQ(incremental.EncodeState(), batch.EncodeState()) << seed;
    EXPECT_EQ(incremental.Read().keys, batch.Read().keys);
  }
}

// State-based merge must equal applying the union of operations, in any
// split and order (the FabricCRDT pipeline and replica resync rely on it).
TEST(ConvergenceMerge, MergeEqualsUnion) {
  for (std::uint64_t seed = 300; seed < 308; ++seed) {
    Rng rng(seed);
    const std::vector<Operation> ops = RandomOps(rng, CrdtType::kMap, 4, 10);
    CrdtObject expected("obj", CrdtType::kMap);
    expected.ApplyOperations(ops);

    // Split the ops between two replicas (with some overlap).
    CrdtObject a("obj", CrdtType::kMap);
    CrdtObject b("obj", CrdtType::kMap);
    for (const auto& op : ops) {
      const double dice = rng.NextDouble();
      if (dice < 0.45) {
        a.ApplyOperation(op);
      } else if (dice < 0.9) {
        b.ApplyOperation(op);
      } else {
        a.ApplyOperation(op);
        b.ApplyOperation(op);
      }
    }
    CrdtObject merged_ab = a.CloneObject();
    merged_ab.MergeState(b);
    CrdtObject merged_ba = b.CloneObject();
    merged_ba.MergeState(a);
    ASSERT_EQ(merged_ab.EncodeState(), merged_ba.EncodeState()) << seed;
    ASSERT_EQ(merged_ab.EncodeState(), expected.EncodeState()) << seed;
    // Idempotence: merging again changes nothing.
    CrdtObject twice = merged_ab.CloneObject();
    twice.MergeState(b);
    ASSERT_EQ(twice.EncodeState(), merged_ab.EncodeState()) << seed;
  }
}

// Leaf-type merges.
TEST(ConvergenceMerge, LeafTypesMerge) {
  for (CrdtType type : {CrdtType::kGCounter, CrdtType::kPNCounter,
                        CrdtType::kMVRegister, CrdtType::kLWWRegister,
                        CrdtType::kORSet}) {
    Rng rng(777 + static_cast<std::uint64_t>(type));
    const std::vector<Operation> ops = RandomOps(rng, type, 3, 12);
    CrdtObject expected("obj", type);
    expected.ApplyOperations(ops);
    CrdtObject a("obj", type);
    CrdtObject b("obj", type);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      (i % 2 == 0 ? a : b).ApplyOperation(ops[i]);
    }
    a.MergeState(b);
    ASSERT_EQ(a.EncodeState(), expected.EncodeState())
        << CrdtTypeName(type);
  }
}

// Random RGA sequence ops: inserts anchored at the start or after an
// earlier insert, and removes of earlier inserts.
std::vector<Operation> RandomSequenceOps(Rng& rng, int num_clients,
                                         int ops_per_client) {
  std::vector<Operation> ops;
  std::vector<OpId> inserted;
  for (int client = 1; client <= num_clients; ++client) {
    for (int counter = 1; counter <= ops_per_client; ++counter) {
      Operation op;
      op.object_id = "obj";
      op.object_type = CrdtType::kSequence;
      op.value_type = CrdtType::kSequence;
      op.clock = clk::OpClock{static_cast<std::uint64_t>(client),
                              static_cast<std::uint64_t>(counter)};
      if (inserted.empty() || rng.NextBool(0.75)) {
        op.kind = OpKind::kInsertValue;
        op.path = {inserted.empty() || rng.NextBool(0.2)
                       ? SequenceNode::AnchorRootSegment()
                       : SequenceNode::AnchorSegment(
                             inserted[rng.NextBelow(inserted.size())])};
        op.value = Value("v" + std::to_string(rng.NextInRange(0, 9)));
        inserted.push_back(op.id());
      } else {
        op.kind = OpKind::kRemoveValue;
        op.path = {SequenceNode::ElementSegment(
            inserted[rng.NextBelow(inserted.size())])};
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

// A Byzantine variant of `op`: the same OpId with a different amount or
// value, or a different value_type.
Operation Equivocate(Rng& rng, const Operation& op) {
  Operation evil = op;
  if (rng.NextBool(0.3)) {
    evil.value_type = evil.value_type == CrdtType::kMVRegister
                          ? CrdtType::kLWWRegister
                          : CrdtType::kMVRegister;
  } else if (op.value.IsInt()) {
    evil.value = Value(op.value.AsInt() + rng.NextInRange(1, 3));
  } else {
    evil.value = Value("evil" + std::to_string(rng.NextInRange(0, 2)));
  }
  return evil;
}

using DedupKey = std::pair<OpId, crypto::Digest>;

// The dedup contract ApplyOperation must keep without a per-op table: each
// distinct (op id, content digest) reaches the object once.
struct OnceOracle {
  explicit OnceOracle(CrdtType type) : object("obj", type) {}
  void Apply(const Operation& op) {
    if (seen.insert({op.id(), op.ContentDigest()}).second) {
      object.ApplyOperation(op);
    }
  }
  CrdtObject object;
  std::set<DedupKey> seen;
};

// Applies `stream` in order. Every op whose key is in `delivered` (or earlier
// in the stream) is an exact re-delivery and must return false. Random
// reads force map materialization between applies.
void Deliver(Rng& rng, CrdtObject& object, const std::vector<Operation>& stream,
             std::set<DedupKey>& delivered) {
  for (const Operation& op : stream) {
    const bool again = !delivered.insert({op.id(), op.ContentDigest()}).second;
    const bool changed = object.ApplyOperation(op);
    if (again) {
      ASSERT_FALSE(changed) << "re-delivery changed state: " << op.ToString();
    }
    if (rng.NextBool(0.2)) {
      object.Read();
      if (!op.path.empty()) object.Read({op.path.front()});
    }
  }
}

struct IdempotenceParams {
  std::uint64_t seed;
  CrdtType type;
};

std::string IdempotenceName(
    const testing::TestParamInfo<IdempotenceParams>& info) {
  std::string name = std::string(CrdtTypeName(info.param.type)) + "_s" +
                     std::to_string(info.param.seed);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  return name;
}

class IdempotenceProperty : public testing::TestWithParam<IdempotenceParams> {
};

// Random streams with exact re-deliveries and equivocating op ids. The state
// must equal the once-per-key oracle's, every exact re-delivery must return
// false, and that must still hold on a clone, a merged replica and a decoded
// state, mid-stream and at the end.
TEST_P(IdempotenceProperty, StateIsItsOwnDedupIndex) {
  const IdempotenceParams& params = GetParam();
  Rng rng(params.seed);
  std::vector<Operation> stream =
      params.type == CrdtType::kSequence
          ? RandomSequenceOps(rng, 4, 12)
          : RandomOps(rng, params.type, 4, 12);
  const std::size_t distinct = stream.size();
  for (std::size_t i = 0; i < distinct; ++i) {
    if (rng.NextBool(0.3)) stream.push_back(Equivocate(rng, stream[i]));
  }
  const std::size_t with_evil = stream.size();
  for (std::size_t i = 0; i < with_evil; ++i) {
    if (rng.NextBool(0.5)) stream.push_back(stream[rng.NextBelow(with_evil)]);
  }
  rng.Shuffle(stream);

  OnceOracle oracle(params.type);
  for (const Operation& op : stream) oracle.Apply(op);
  const Bytes expected = oracle.object.EncodeState();

  const auto transforms = {"clone", "merge", "decode"};
  for (const std::string transform : transforms) {
    SCOPED_TRACE(transform);
    const std::size_t cut = rng.NextBelow(stream.size() + 1);
    const std::vector<Operation> head(stream.begin(),
                                      stream.begin() + cut);
    std::set<DedupKey> delivered;
    CrdtObject replica("obj", params.type);
    Deliver(rng, replica, head, delivered);

    std::unique_ptr<CrdtObject> next;
    if (transform == "clone") {
      next = std::make_unique<CrdtObject>(replica.CloneObject());
    } else if (transform == "merge") {
      // Join the replica into one that saw a random other part.
      next = std::make_unique<CrdtObject>("obj", params.type);
      for (const Operation& op : stream) {
        if (rng.NextBool(0.3)) {
          next->ApplyOperation(op);
          delivered.insert({op.id(), op.ContentDigest()});
        }
      }
      next->MergeState(replica);
    } else {
      next = CrdtObject::DecodeState("obj", replica.EncodeState());
      ASSERT_NE(next, nullptr);
    }
    // The whole stream again: its head and part of the rest are now
    // re-deliveries.
    Deliver(rng, *next, stream, delivered);
    ASSERT_EQ(next->EncodeState(), expected);
    // Reads materialize map slots: the oracle builds them in one pass, the
    // replica partly incrementally (Deliver reads between applies).
    EXPECT_EQ(next->Read().ToString(), oracle.object.Read().ToString());
    for (const Operation& op : stream) {
      for (std::size_t depth = 1; depth <= op.path.size(); ++depth) {
        const std::vector<std::string> prefix(op.path.begin(),
                                              op.path.begin() + depth);
        ASSERT_EQ(next->Read(prefix).ToString(),
                  oracle.object.Read(prefix).ToString());
      }
    }
    // And once more at the end, with everything already absorbed.
    for (const Operation& op : stream) {
      ASSERT_FALSE(next->ApplyOperation(op)) << op.ToString();
    }
    ASSERT_EQ(next->EncodeState(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, IdempotenceProperty,
    testing::Values(IdempotenceParams{1, CrdtType::kGCounter},
                    IdempotenceParams{2, CrdtType::kPNCounter},
                    IdempotenceParams{3, CrdtType::kMVRegister},
                    IdempotenceParams{4, CrdtType::kLWWRegister},
                    IdempotenceParams{5, CrdtType::kORSet},
                    IdempotenceParams{6, CrdtType::kMap},
                    IdempotenceParams{7, CrdtType::kMap},
                    IdempotenceParams{8, CrdtType::kMap},
                    IdempotenceParams{9, CrdtType::kSequence},
                    IdempotenceParams{10, CrdtType::kSequence}),
    IdempotenceName);

}  // namespace
}  // namespace orderless::crdt
