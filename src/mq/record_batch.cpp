#include "mq/record_batch.h"

namespace metro::mq {

std::int64_t RecordView::offset() const {
  CheckLive();
  return batch_->base_offset_ + std::int64_t(index_);
}

TimeNs RecordView::timestamp() const {
  CheckLive();
  return batch_->timestamp_;
}

std::string_view RecordView::key() const {
  CheckLive();
  return batch_->Text(batch_->entries_[index_].key);
}

std::string_view RecordView::value() const {
  CheckLive();
  return batch_->Text(batch_->entries_[index_].value);
}

std::int64_t RecordView::producer_id() const {
  CheckLive();
  return batch_->producer_id_;
}

std::int64_t RecordView::sequence() const {
  CheckLive();
  if (batch_->first_sequence_ < 0) return -1;
  return batch_->first_sequence_ + std::int64_t(index_);
}

std::optional<std::string_view> RecordView::FindHeader(
    std::string_view key) const {
  CheckLive();
  const RecordBatch::Entry& e = batch_->entries_[index_];
  for (std::uint32_t i = 0; i < e.header_count; ++i) {
    const RecordBatch::HeaderSlice& h = batch_->headers_[e.header_begin + i];
    if (batch_->Text(h.key) == key) return batch_->Text(h.value);
  }
  return std::nullopt;
}

RecordBatchBuilder::RecordBatchBuilder(std::size_t reserve_bytes,
                                       std::size_t reserve_records)
    : reserve_bytes_(reserve_bytes), reserve_records_(reserve_records) {}

void RecordBatchBuilder::Ensure() {
  if (batch_) return;
  batch_ = std::make_shared<RecordBatch>();
  if (reserve_bytes_ > 0) batch_->arena_.reserve(reserve_bytes_);
  if (reserve_records_ > 0) batch_->entries_.reserve(reserve_records_);
}

RecordBatch::Slice RecordBatchBuilder::Intern(std::string_view text) {
  RecordBatch::Slice s;
  s.pos = std::uint32_t(batch_->arena_.size());
  s.len = std::uint32_t(text.size());
  batch_->arena_.insert(batch_->arena_.end(), text.begin(), text.end());
  return s;
}

void RecordBatchBuilder::Add(std::string_view key, std::string_view value) {
  Ensure();
  RecordBatch::Entry e;
  e.key = Intern(key);
  e.value = Intern(value);
  e.header_begin = std::uint32_t(batch_->headers_.size());
  e.header_count = 0;
  batch_->kv_bytes_ += key.size() + value.size();
  batch_->entries_.push_back(e);
}

void RecordBatchBuilder::Add(std::string_view key, std::string_view value,
                             const Headers& headers) {
  Ensure();
  RecordBatch::Entry e;
  e.key = Intern(key);
  e.value = Intern(value);
  e.header_begin = std::uint32_t(batch_->headers_.size());
  e.header_count = std::uint32_t(headers.size());
  for (const auto& [hk, hv] : headers) {
    RecordBatch::HeaderSlice h;
    h.key = Intern(hk);
    h.value = Intern(hv);
    batch_->headers_.push_back(h);
  }
  batch_->kv_bytes_ += key.size() + value.size();
  batch_->entries_.push_back(e);
}

std::shared_ptr<RecordBatch> RecordBatchBuilder::Build() {
  METRO_CHECK(batch_ && !batch_->entries_.empty(),
              "Build() on an empty RecordBatchBuilder");
  return std::move(batch_);
}

}  // namespace metro::mq
