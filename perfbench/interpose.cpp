// Link-time interposition of the layer entry points.
//
// The benchmark binary links the repository's static libraries with one
// `--wrap=<symbol>` per INTERPOSE line below (CMakeLists.txt reads them from
// this file). GNU ld then resolves every undefined reference to <symbol> in
// another object file to __wrap_<symbol>, and __real_<symbol> to the
// original. So each call that crosses an object-file boundary, e.g.
// org.cpp -> Ledger::Commit or pki.cpp -> Sha256::Hash, runs through a
// wrapper here that opens a span around the real call. Calls inside the
// defining object file (and inlined calls) are not seen; the engagement gate
// in main.cpp fails the run when a wrapper a workload relies on sees none.
//
// Member functions are declared as free functions taking `self` first, which
// is how the Itanium C++ ABI passes `this`.
#include "interpose.h"

#include <sys/resource.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "core/client.h"
#include "core/transaction.h"
#include "core/validation_cache.h"
#include "crdt/object.h"
#include "crypto/pki.h"
#include "crypto/sha256.h"
#include "ledger/ledger.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "spans.h"

using namespace orderless;  // NOLINT: wrapper signatures only

#define INTERPOSE(ret, name, symbol, params)            \
  ret Real##name params __asm__("__real_" symbol);      \
  ret Wrap##name params __asm__("__wrap_" symbol);      \
  ret Wrap##name params

namespace perfbench {
namespace {
bool trace_run = false;
RunRecord run_record;

std::uint64_t CpuNs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto ns = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(t.tv_usec) * 1000ULL;
  };
  return ns(u.ru_utime) + ns(u.ru_stime);
}
}  // namespace

RunRecord& Run() { return run_record; }
void SetTraceRun(bool on) { trace_run = on; }

}  // namespace perfbench

using perfbench::Counter;
using perfbench::Fn;
using perfbench::Scope;

// --- sim ---

INTERPOSE(void, RunUntil, "_ZN9orderless3sim10Simulation8RunUntilEm",
          (sim::Simulation * self, sim::SimTime until)) {
  perfbench::RunRecord& run = perfbench::Run();
  const std::uint64_t cpu0 = perfbench::CpuNs();
  const std::uint64_t t0 = perfbench::NowNs();
  if (run.calls++ == 0) run.entry_ns = t0;
  if (perfbench::trace_run) perfbench::SetRecording(true);
  {
    Scope span(Fn::kRunUntil);
    RealRunUntil(self, until);
  }
  perfbench::SetRecording(false);
  run.wall_ns += perfbench::NowNs() - t0;
  run.cpu_ns += perfbench::CpuNs() - cpu0;
}

INTERPOSE(void, Send, "_ZN9orderless3sim7Network4SendEjjSt10shared_ptrIKNS0_7MessageEE",
          (sim::Network * self, sim::NodeId from, sim::NodeId to,
           sim::MessagePtr message)) {
  if (perfbench::Recording() && message) {
    perfbench::Count(Counter::kSendBytes, message->WireSize());
  }
  Scope span(Fn::kSend);
  RealSend(self, from, to, std::move(message));
}

// --- crypto ---

INTERPOSE(bool, Verify, "_ZNK9orderless6crypto3Pki6VerifyEmSt17basic_string_viewIcSt11char_traitsIcEERKNS0_6DigestES8_",
          (const crypto::Pki* self, crypto::KeyId signer,
           std::string_view context, const crypto::Digest& digest,
           const crypto::Signature& signature)) {
  perfbench::Count(Counter::kVerifySigs, 1);
  Scope span(Fn::kVerify);
  return RealVerify(self, signer, context, digest, signature);
}

INTERPOSE(bool, VerifyBatch, "_ZNK9orderless6crypto3Pki11VerifyBatchEPKNS1_9BatchItemEmPb",
          (const crypto::Pki* self, const crypto::Pki::BatchItem* items,
           std::size_t n, bool* valid_out)) {
  perfbench::Count(Counter::kVerifySigs, n);
  Scope span(Fn::kVerifyBatch);
  return RealVerifyBatch(self, items, n, valid_out);
}

INTERPOSE(crypto::Signature, Sign, "_ZNK9orderless6crypto10PrivateKey4SignESt17basic_string_viewIcSt11char_traitsIcEERKNS0_6DigestE",
          (const crypto::PrivateKey* self, std::string_view context,
           const crypto::Digest& digest)) {
  Scope span(Fn::kSign);
  return RealSign(self, context, digest);
}

INTERPOSE(crypto::Digest, Hash, "_ZN9orderless6crypto6Sha2564HashESt4spanIKhLm18446744073709551615EE",
          (BytesView data)) {
  Scope span(Fn::kHash);
  return RealHash(data);
}

INTERPOSE(void, HashBatch, "_ZN9orderless6crypto6Sha2569HashBatchEPKSt4spanIKhLm18446744073709551615EEPNS0_6DigestEm",
          (const BytesView* inputs, crypto::Digest* out, std::size_t n)) {
  Scope span(Fn::kHashBatch);
  RealHashBatch(inputs, out, n);
}

// --- codec: canonical encodings of the core wire types ---

INTERPOSE(void, TxEncode, "_ZNK9orderless4core11Transaction6EncodeERNS_5codec6WriterE",
          (const core::Transaction* self, codec::Writer& w)) {
  Scope span(Fn::kTxEncode);
  RealTxEncode(self, w);
}

INTERPOSE(BytesView, TxEncodedBody, "_ZNK9orderless4core11Transaction11EncodedBodyEv",
          (const core::Transaction* self)) {
  Scope span(Fn::kTxEncodedBody);
  return RealTxEncodedBody(self);
}

INTERPOSE(std::shared_ptr<core::Transaction>, TxDecode, "_ZN9orderless4core11Transaction6DecodeERNS_5codec6ReaderE",
          (codec::Reader& r)) {
  Scope span(Fn::kTxDecode);
  return RealTxDecode(r);
}

INTERPOSE(void, CkptEncode, "_ZNK9orderless4core10Checkpoint6EncodeERNS_5codec6WriterE",
          (const core::Checkpoint* self, codec::Writer& w)) {
  Scope span(Fn::kCkptEncode);
  RealCkptEncode(self, w);
}

INTERPOSE(std::shared_ptr<core::Checkpoint>, CkptDecode, "_ZN9orderless4core10Checkpoint6DecodeERNS_5codec6ReaderE",
          (codec::Reader& r)) {
  Scope span(Fn::kCkptDecode);
  return RealCkptDecode(r);
}

// --- crdt ---

INTERPOSE(bool, Apply, "_ZN9orderless4crdt10CrdtObject14ApplyOperationERKNS0_9OperationE",
          (crdt::CrdtObject * self, const crdt::Operation& op)) {
  bool applied;
  {
    Scope span(Fn::kApply);
    applied = RealApply(self, op);
  }
  if (!applied) perfbench::Count(Counter::kApplyDup, 1);
  return applied;
}

INTERPOSE(crdt::ReadResult, CrdtRead, "_ZNK9orderless4crdt10CrdtObject4ReadERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS8_EE",
          (const crdt::CrdtObject* self,
           const std::vector<std::string>& path)) {
  Scope span(Fn::kCrdtRead);
  return RealCrdtRead(self, path);
}

INTERPOSE(Bytes, EncodeState, "_ZNK9orderless4crdt10CrdtObject11EncodeStateEv",
          (const crdt::CrdtObject* self)) {
  Scope span(Fn::kEncodeState);
  return RealEncodeState(self);
}

INTERPOSE(std::unique_ptr<crdt::CrdtObject>, DecodeState, "_ZN9orderless4crdt10CrdtObject11DecodeStateERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt4spanIKhLm18446744073709551615EE",
          (const std::string& object_id, BytesView state)) {
  Scope span(Fn::kDecodeState);
  return RealDecodeState(object_id, state);
}

INTERPOSE(void, MergeState, "_ZN9orderless4crdt10CrdtObject10MergeStateERKS1_",
          (crdt::CrdtObject * self, const crdt::CrdtObject& other)) {
  Scope span(Fn::kMergeState);
  RealMergeState(self, other);
}

// --- ledger ---

INTERPOSE(const ledger::Block&, LedgerCommit, "_ZN9orderless6ledger6Ledger6CommitERKNS_6crypto6DigestEbRKSt6vectorINS_4crdt9OperationESaIS8_EE",
          (ledger::Ledger * self, const crypto::Digest& tx_digest, bool valid,
           const std::vector<crdt::Operation>& ops)) {
  Scope span(Fn::kLedgerCommit);
  return RealLedgerCommit(self, tx_digest, valid, ops);
}

INTERPOSE(void, BodyPut, "_ZN9orderless6ledger6Ledger18PutTransactionBodyERKNS_6crypto6DigestESt4spanIKhLm18446744073709551615EE",
          (ledger::Ledger * self, const crypto::Digest& tx_digest,
           BytesView encoded)) {
  Scope span(Fn::kBodyPut);
  RealBodyPut(self, tx_digest, encoded);
}

INTERPOSE(void, BodyPutRef, "_ZN9orderless6ledger6Ledger21PutTransactionBodyRefERKNS_6crypto6DigestESt10shared_ptrIKSt6vectorIhSaIhEEE",
          (ledger::Ledger * self, const crypto::Digest& tx_digest,
           std::shared_ptr<const Bytes> encoded)) {
  Scope span(Fn::kBodyPutRef);
  RealBodyPutRef(self, tx_digest, std::move(encoded));
}

INTERPOSE(crdt::ReadResult, LedgerRead, "_ZNK9orderless6ledger6Ledger4ReadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorIS7_SaIS7_EE",
          (const ledger::Ledger* self, const std::string& object_id,
           const std::vector<std::string>& path)) {
  Scope span(Fn::kLedgerRead);
  return RealLedgerRead(self, object_id, path);
}

INTERPOSE(std::size_t, Prune, "_ZN9orderless6ledger6Ledger21PruneBehindCheckpointEmRKNS_6crypto6DigestERKSt6vectorIS3_SaIS3_EE",
          (ledger::Ledger * self, std::uint64_t chain_height,
           const crypto::Digest& chain_head,
           const std::vector<crypto::Digest>& covered_ids)) {
  Scope span(Fn::kPrune);
  return RealPrune(self, chain_height, chain_head, covered_ids);
}

// --- core ---

INTERPOSE(core::TxVerdict, Validate, "_ZN9orderless4core19ValidateTransactionERKNS0_11TransactionERKNS_6crypto3PkiERKSt3setImSt4lessImESaImEERKNS0_17EndorsementPolicyE",
          (const core::Transaction& tx, const crypto::Pki& pki,
           const std::set<crypto::KeyId>& organization_keys,
           const core::EndorsementPolicy& policy)) {
  Scope span(Fn::kValidate);
  return RealValidate(tx, pki, organization_keys, policy);
}

INTERPOSE(void, ValidateBatch, "_ZN9orderless4core25ValidateTransactionsBatchEPKPKNS0_11TransactionEmRKNS_6crypto3PkiERKSt3setImSt4lessImESaImEERKNS0_17EndorsementPolicyEPNS0_9TxVerdictE",
          (const core::Transaction* const* txs, std::size_t count,
           const crypto::Pki& pki,
           const std::set<crypto::KeyId>& organization_keys,
           const core::EndorsementPolicy& policy, core::TxVerdict* out)) {
  Scope span(Fn::kValidateBatch);
  RealValidateBatch(txs, count, pki, organization_keys, policy, out);
}

INTERPOSE(std::optional<core::TxVerdict>, MemoLookup, "_ZN9orderless4core14ValidationMemo9LookupForEjRKSt10shared_ptrIKNS0_11TransactionEE",
          (core::ValidationMemo * self, std::uint32_t org,
           const std::shared_ptr<const core::Transaction>& tx)) {
  std::optional<core::TxVerdict> verdict;
  {
    Scope span(Fn::kMemoLookup);
    verdict = RealMemoLookup(self, org, tx);
  }
  if (verdict) perfbench::Count(Counter::kMemoHits, 1);
  return verdict;
}

INTERPOSE(void, SubmitModify, "_ZN9orderless4core6Client12SubmitModifyERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_St6vectorINS_4crdt5ValueESaISC_EESt8functionIFvRKNS0_9TxOutcomeEEE",
          (core::Client * self, const std::string& contract,
           const std::string& function, std::vector<crdt::Value> args,
           core::TxCallback callback)) {
  Scope span(Fn::kSubmitModify);
  RealSubmitModify(self, contract, function, std::move(args),
                   std::move(callback));
}

INTERPOSE(void, SubmitRead, "_ZN9orderless4core6Client10SubmitReadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_St6vectorINS_4crdt5ValueESaISC_EESt8functionIFvRKNS0_9TxOutcomeEEE",
          (core::Client * self, const std::string& contract,
           const std::string& function, std::vector<crdt::Value> args,
           core::TxCallback callback)) {
  Scope span(Fn::kSubmitRead);
  RealSubmitRead(self, contract, function, std::move(args),
                 std::move(callback));
}

INTERPOSE(void, CkptSeal, "_ZN9orderless4core10Checkpoint4SealERKNS_6crypto10PrivateKeyE",
          (core::Checkpoint * self, const crypto::PrivateKey& key)) {
  Scope span(Fn::kCkptSeal);
  RealCkptSeal(self, key);
}

INTERPOSE(bool, CkptVerify, "_ZNK9orderless4core10Checkpoint6VerifyERKNS_6crypto3PkiERKSt3setImSt4lessImESaImEE",
          (const core::Checkpoint* self, const crypto::Pki& pki,
           const std::set<crypto::KeyId>& organization_keys)) {
  Scope span(Fn::kCkptVerify);
  return RealCkptVerify(self, pki, organization_keys);
}
