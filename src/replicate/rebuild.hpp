// Group rebuild: restore a replica group's redundancy after machine loss.
//
// One configuration of the Figure 5 transaction engine
// (reconfig/transaction.hpp) with two clones. A surviving member is the pull
// source: it divulges once at its reconfiguration point, and the buffer
// installs into BOTH a continuation of the survivor (which inherits the
// survivor's bindings) and a new member on `options.machine` (which adopts
// the DEAD member's bindings and queued traffic, then retires the corpse).
// The service keeps serving throughout -- only the survivor pauses, for the
// divulge, and the router's retry covers the gap. The engine supplies the
// journal boundaries, the divulge timeout with rollback, and the report.
#pragma once

#include <string>

#include "reconfig/scripts.hpp"

namespace surgeon::replicate {

/// Rebuilds one group member from `survivor`. `options.nudge` keeps a
/// survivor blocked in mh_read waking toward its reconfiguration point.
/// Throws ScriptError -- after removing the half-born clones -- if the
/// survivor never divulges or a clone fails to restore; the caller
/// (GroupManager) retries from another survivor. The report's clones are
/// {continuation, new member}.
inline reconfig::ReplaceReport rebuild_group(
    app::Runtime& rt, const std::string& survivor,
    const std::string& dead_member, const reconfig::ReplaceOptions& options) {
  return reconfig::run_transaction(
      rt, survivor, reconfig::rebuild_shape(dead_member, options.machine),
      options);
}

}  // namespace surgeon::replicate
