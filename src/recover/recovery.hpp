// Coordinator crash recovery: roll a logged replacement forward or back.
//
// A coordinator that dies between Figure 5 steps leaves the application in
// one of two classes of states, separated by the divulge watershed:
//
//   pre-divulge  -- nothing irreversible happened. The engine's rollback
//                   removes every logged clone and cancels pending control
//                   traffic, and the old instance keeps serving: ROLLBACK.
//   post-divulge -- the old module's state is durable in the WAL (and its
//                   process has already left its main loop), so the only
//                   safe direction is forward: the engine is re-entered
//                   with the logged shape and state: ROLL-FORWARD.
//
// Every engine row probes live state first (was the state already
// delivered? are the bindings already moved? is the clone already
// running?), so recovery is idempotent: it completes a half-done run of any
// shape regardless of which boundary the crash hit.
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

struct RecoveryReport {
  bool found_open_txn = false;
  std::uint64_t txn = 0;
  bool rolled_forward = false;
  bool rolled_back = false;
  /// Roll-forward only: did every clone finish restoring within the budget?
  bool restored = false;
  std::string old_instance;
  std::string new_instance;  // the clone that took the source's place
  /// The last step whose intent made it into the WAL before the crash.
  std::string crashed_after_step;
};

/// Scans the WAL a dead coordinator wrote and completes (or rolls back) the
/// open transaction, if any. Safe to call when the log is empty or fully
/// closed -- it reports found_open_txn=false and touches nothing. It settles
/// for 50 ms first and gives the clones 10 s to restore.
RecoveryReport recover_coordinator(app::Runtime& rt, Wal& wal);

}  // namespace surgeon::recover
