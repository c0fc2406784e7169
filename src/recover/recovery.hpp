// Coordinator crash recovery: roll a logged replacement forward or back.
//
// A coordinator that dies between Figure 5 steps leaves the application in
// one of two classes of states, separated by the divulge watershed:
//
//   pre-divulge  -- nothing irreversible happened. The clone (if it was
//                   registered) is removed, pending control traffic is
//                   cancelled, and the old instance keeps serving: ROLLBACK.
//   post-divulge -- the old module's state is durable in the WAL (and its
//                   process has already left its main loop), so the only
//                   safe direction is forward: finish delivering the state,
//                   rebind, start the clone, retire the old instance:
//                   ROLL-FORWARD.
//
// Every action probes live state first (was the state already delivered?
// are the bindings already moved? is the clone already running?), so
// recovery is idempotent: it completes a half-done script regardless of
// which boundary the crash hit, and running it twice is harmless.
#pragma once

#include <cstdint>
#include <string>

#include "recover/wal.hpp"

namespace surgeon::recover {

/// Thrown by a crash hook to model the coordinator process dying at one of
/// its journal boundaries (reconfig::journal_intents; the chaos harness
/// catches it and hands the application to recover_coordinator, like a
/// restarted coordinator would).
class CoordinatorCrash : public support::Error {
 public:
  using Error::Error;
};

struct RecoveryOptions {
  /// Scheduling budget for each wait inside recovery.
  std::uint64_t max_rounds = 1'000'000;
  /// Settle window run before probing: lets control traffic the dead
  /// coordinator already launched (reliable state/signal retries) land.
  net::SimTime settle_us = 50'000;
  /// Drain window before the old instance is removed on roll-forward.
  net::SimTime drain_us = 10'000;
  /// Budget for the clone to finish restoring (0 = rounds budget only).
  net::SimTime restore_timeout_us = 10'000'000;
};

struct RecoveryReport {
  bool found_open_txn = false;
  std::uint64_t txn = 0;
  bool rolled_forward = false;
  bool rolled_back = false;
  /// Roll-forward only: did the clone finish restoring within the budget?
  bool restored = false;
  std::string old_instance;
  std::string new_instance;
  /// The last step whose intent made it into the WAL before the crash.
  std::string crashed_after_step;
};

/// Scans the WAL a dead coordinator wrote and completes (or rolls back) the
/// open transaction, if any. Safe to call when the log is empty or fully
/// closed -- it reports found_open_txn=false and touches nothing.
RecoveryReport recover_coordinator(app::Runtime& rt, Wal& wal,
                                   const RecoveryOptions& options = {});

}  // namespace surgeon::recover
