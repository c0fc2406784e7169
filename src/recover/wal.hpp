// Write-ahead log for Figure 5 replacement transactions.
//
// The coordinator journals every script boundary to the durable store of
// the machine it runs on *before* acting on it (reconfig::ScriptJournal).
// After a coordinator crash, a successor scans the log, finds the open
// transaction, and knows exactly how far the script got:
//
//   begin txn     the source and the run's whole reconfig::Shape
//   intent step   about to execute <step> (obj_cap .. del, commit)
//   divulged      the old module's abstract state buffer -- the
//                 roll-forward watershed: once this record is durable the
//                 replacement can always be completed from the log alone
//   committed     the script finished; the transaction is closed
//   aborted       the script rolled back pre-divulge (reason logged)
//
// Record wire format (append-only, one DurableStore record per entry):
//   u8 type | u64 txn | type-specific payload
// with strings as u32 length + bytes, the state buffer as u64 length +
// bytes, and the begin record's shape as
//   str source | u8 restores_in_place | u32 clones |
//   clones x (str name | str machine | u8 binding | str holder).
// Everything little-endian, so the format is identical on every simulated
// architecture.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/durable.hpp"
#include "reconfig/scripts.hpp"

namespace surgeon::recover {

/// Parsing/validation failure while scanning a WAL.
class WalError : public support::Error {
 public:
  using Error::Error;
};

/// One replacement transaction reconstructed from the log.
struct WalTxn {
  std::uint64_t id = 0;
  std::string source;
  /// The run's shape, clones named; its state is the divulged record.
  reconfig::Shape shape;
  std::vector<std::string> steps;  // intent records, in order
  bool committed = false;
  bool aborted = false;
  std::string abort_reason;

  [[nodiscard]] bool open() const noexcept { return !committed && !aborted; }
  /// The last step whose intent was logged ("" when none).
  [[nodiscard]] const std::string& last_step() const {
    static const std::string kNone;
    return steps.empty() ? kNone : steps.back();
  }
};

/// The journal a replacement script writes through (ScriptJournal) plus the
/// scan side a recovering coordinator reads. One Wal per coordinator
/// machine; transactions are numbered from the existing log contents, so a
/// restarted coordinator continues the sequence.
class Wal : public reconfig::ScriptJournal {
 public:
  explicit Wal(net::DurableStore& store,
               std::string log_name = "reconfig.wal")
      : store_(&store), log_(std::move(log_name)) {}

  // --- write side (reconfig::ScriptJournal) --------------------------------

  void begin(const std::string& source,
             const reconfig::Shape& shape) override;
  void intent(const char* step) override;
  void divulged(const std::vector<std::uint8_t>& state) override;
  void committed() override;
  void aborted(const std::string& reason) override;

  // --- read side -----------------------------------------------------------

  /// Every transaction in the log, in id order. Throws WalError on a
  /// malformed record: one cut short, of an unknown type or transaction, or
  /// a begin record with no clone or a binding byte outside the enum.
  [[nodiscard]] std::vector<WalTxn> scan() const;
  /// The open (neither committed nor aborted) transaction, if any. The
  /// script is sequential, so at most one can be open.
  [[nodiscard]] std::optional<WalTxn> open_transaction() const;

  /// Closes a scanned transaction from the recovery path (the write-side
  /// overrides use the current transaction instead).
  void mark_committed(std::uint64_t txn);
  void mark_aborted(std::uint64_t txn, const std::string& reason);

  [[nodiscard]] std::uint64_t records() const {
    return store_->log(log_).size();
  }
  [[nodiscard]] const std::string& log_name() const noexcept { return log_; }

 private:
  [[nodiscard]] std::uint64_t next_txn_id() const;

  net::DurableStore* store_;
  std::string log_;
  std::uint64_t current_ = 0;  // transaction the write side is journaling
};

}  // namespace surgeon::recover
