#include "recover/wal.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "support/bytes.hpp"

namespace surgeon::recover {

namespace {

enum : std::uint8_t {
  kBegin = 1,
  kIntent = 2,
  kDivulged = 3,
  kCommitted = 4,
  kAborted = 5,
};

using Record = net::DurableStore::Record;
using support::ByteOrder;
using support::ByteReader;
using support::ByteWriter;

/// A record's writer, its type and transaction already written.
ByteWriter record(std::uint8_t type, std::uint64_t txn) {
  ByteWriter out(ByteOrder::kLittle);
  out.put_u8(type);
  out.put_u64(txn);
  return out;
}

/// A reader that ran past its record: the log is malformed.
[[noreturn]] void truncated(const support::VmError& e) {
  throw WalError(std::string("truncated WAL record: ") + e.what());
}

}  // namespace

void Wal::begin(const std::string& source, const reconfig::Shape& shape) {
  current_ = next_txn_id();
  ByteWriter out = record(kBegin, current_);
  out.put_string(source);
  out.put_u8(shape.restores_in_place ? 1 : 0);
  out.put_u32(static_cast<std::uint32_t>(shape.clones.size()));
  for (const reconfig::CloneSpec& clone : shape.clones) {
    out.put_string(clone.name);
    out.put_string(clone.machine);
    out.put_u8(static_cast<std::uint8_t>(clone.bindings));
    out.put_string(clone.holder);
  }
  store_->append(log_, std::move(out).take());
}

void Wal::intent(const char* step) {
  ByteWriter out = record(kIntent, current_);
  out.put_string(step);
  store_->append(log_, std::move(out).take());
}

void Wal::divulged(const std::vector<std::uint8_t>& state) {
  ByteWriter out = record(kDivulged, current_);
  out.put_u64(state.size());
  out.put_raw(state);
  store_->append(log_, std::move(out).take());
}

void Wal::committed() { mark_committed(current_); }

void Wal::aborted(const std::string& reason) {
  mark_aborted(current_, reason);
}

void Wal::mark_committed(std::uint64_t txn) {
  store_->append(log_, record(kCommitted, txn).take());
}

void Wal::mark_aborted(std::uint64_t txn, const std::string& reason) {
  ByteWriter out = record(kAborted, txn);
  out.put_string(reason);
  store_->append(log_, std::move(out).take());
}

std::vector<WalTxn> Wal::scan() const {
  std::vector<WalTxn> txns;
  auto find = [&txns](std::uint64_t id) -> WalTxn& {
    for (auto& t : txns) {
      if (t.id == id) return t;
    }
    throw WalError("WAL record for unknown transaction #" +
                   std::to_string(id));
  };
  for (const Record& raw : store_->log(log_)) {
    ByteReader r(raw, ByteOrder::kLittle);
    try {
      const std::uint8_t type = r.get_u8();
      const std::uint64_t id = r.get_u64();
      switch (type) {
        case kBegin: {
          WalTxn t;
          t.id = id;
          t.source = r.get_string();
          t.shape.restores_in_place = r.get_u8() != 0;
          for (std::uint32_t n = r.get_u32(); n > 0; --n) {
            reconfig::CloneSpec& clone = t.shape.clones.emplace_back();
            clone.name = r.get_string();
            clone.machine = r.get_string();
            const std::uint8_t binding = r.get_u8();
            if (binding > static_cast<std::uint8_t>(reconfig::Binding::kNone)) {
              throw WalError("WAL begin record: binding " +
                             std::to_string(binding) + " out of range");
            }
            clone.bindings = static_cast<reconfig::Binding>(binding);
            clone.holder = r.get_string();
          }
          if (t.shape.clones.empty()) {
            throw WalError("WAL begin record names no clone");
          }
          txns.push_back(std::move(t));
          break;
        }
        case kIntent:
          find(id).steps.push_back(r.get_string());
          break;
        case kDivulged: {
          const std::span<const std::uint8_t> state = r.get_raw(r.get_u64());
          find(id).shape.state.emplace(state.begin(), state.end());
          break;
        }
        case kCommitted:
          find(id).committed = true;
          break;
        case kAborted: {
          WalTxn& t = find(id);
          t.aborted = true;
          t.abort_reason = r.get_string();
          break;
        }
        default:
          throw WalError("unknown WAL record type " + std::to_string(type));
      }
    } catch (const support::VmError& e) {
      truncated(e);
    }
  }
  return txns;
}

std::optional<WalTxn> Wal::open_transaction() const {
  for (WalTxn& t : scan()) {
    if (t.open()) return std::move(t);
  }
  return std::nullopt;
}

std::uint64_t Wal::next_txn_id() const {
  std::uint64_t max_id = 0;
  for (const Record& raw : store_->log(log_)) {
    ByteReader r(raw, ByteOrder::kLittle);
    try {
      (void)r.get_u8();
      max_id = std::max(max_id, r.get_u64());
    } catch (const support::VmError& e) {
      truncated(e);
    }
  }
  return max_id + 1;
}

}  // namespace surgeon::recover
