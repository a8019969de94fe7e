#include "ledger/kvstore.h"

namespace orderless::ledger {

Status MemKvStore::Put(std::string_view key, BytesView value) {
  Stored& row = data_[std::string(key)];
  row.ref.reset();
  row.owned.assign(value.begin(), value.end());
  return Status::Ok();
}

Status MemKvStore::PutRef(std::string_view key,
                          std::shared_ptr<const Bytes> value) {
  Stored& row = data_[std::string(key)];
  row.owned.clear();
  row.ref = std::move(value);
  return Status::Ok();
}

Status MemKvStore::Delete(std::string_view key) {
  const auto it = data_.find(key);
  if (it != data_.end()) data_.erase(it);
  return Status::Ok();
}

std::optional<Bytes> MemKvStore::Get(std::string_view key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  const BytesView view = it->second.view();
  return Bytes(view.begin(), view.end());
}

void MemKvStore::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, BytesView)>& visitor) const {
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    if (!visitor(it->first, it->second.view())) break;
  }
}

}  // namespace orderless::ledger
