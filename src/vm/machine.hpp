// The MiniC virtual machine.
//
// One Machine executes one module's compiled program on one simulated host.
// It is resumable: step() runs until it exhausts its instruction budget,
// blocks (on mh_read / mh_decode), goes to sleep, finishes, or faults, and
// a later step() continues exactly where it left off. A blocking builtin
// that cannot proceed leaves the program counter in place, so re-stepping
// retries it -- the cooperative scheduler in surgeon::app wakes the machine
// when the bus delivers something.
//
// The machine knows nothing about reconfiguration. mh_capture/mh_restore/
// mh_encode/mh_decode are ordinary library builtins operating on the
// abstract state buffer; the logic of *when* to call them lives entirely in
// the transformed MiniC source, which is the paper's central claim.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bus/client.hpp"
#include "net/arch.hpp"
#include "serialize/state.hpp"
#include "support/rng.hpp"
#include "vm/bytecode.hpp"

namespace surgeon::vm {

/// A runtime pointer. Frame references (to &locals) are meaningful only
/// while the frame lives; heap references survive capture/restore via the
/// abstract pointer swizzle; global references address the module's own
/// data area.
struct Ref {
  enum class Kind : std::uint8_t { kNull, kGlobal, kFrame, kHeap };
  Kind kind = Kind::kNull;
  std::uint64_t a = 0;  // global index / frame id / heap object id
  std::uint64_t b = 0;  // slot (frame) or element offset (heap)

  friend bool operator==(const Ref&, const Ref&) = default;
};

using RtValue = std::variant<std::int64_t, double, std::string, Ref>;

enum class RunState : std::uint8_t {
  kRunnable,
  kBlockedRead,    // waiting for a message on an mh_read interface
  kBlockedDecode,  // waiting for an abstract state buffer
  kSleeping,       // sleep() called; resume after sleep_us
  kDone,           // main returned
  kFault,          // VmError; see fault_message()
};

struct StepResult {
  RunState state = RunState::kRunnable;
  std::uint64_t instructions = 0;   // executed during this slice
  std::uint64_t sleep_us = 0;       // when kSleeping
};

/// How the dispatch loop gets from one instruction to the next.
/// kThreaded (direct-threaded via computed goto) is the default wherever the
/// compiler supports `&&label`; kSwitch is the portable fallback and the
/// baseline the bench suite measures speedups against. Both modes execute
/// the same decoded code and are required to be observably identical --
/// the dispatch-parity test suite holds them to byte-identical output,
/// captured state, and instruction counts.
enum class DispatchMode : std::uint8_t { kSwitch, kThreaded };

/// False when the compiler has no computed goto (or the build forced the
/// portable loop with SURGEON_VM_FORCE_SWITCH_DISPATCH); requests for
/// kThreaded silently coerce to kSwitch then.
[[nodiscard]] bool threaded_dispatch_supported() noexcept;

/// Process-wide default mode for new machines (bench/test setup; not
/// thread-safe, not for flipping mid-run).
void set_default_dispatch_mode(DispatchMode mode) noexcept;
[[nodiscard]] DispatchMode default_dispatch_mode() noexcept;

/// One instruction decoded into dispatch-ready form: the operands, and (in
/// threaded mode) the handler address, so the hot loop never re-derives
/// either. Decoding is per-machine and lazy, cached per function.
struct DecodedInsn {
  const void* target = nullptr;  // threaded mode: handler label address
  std::int32_t a = 0;
  std::int32_t b = 0;
  Op op = Op::kStmt;
};

class Machine;

/// Receiver of sampling-profiler hits (surgeon::profile). on_sample is
/// invoked from inside the dispatch loop with the machine positioned at the
/// instruction about to execute, so the sink may read current_function(),
/// current_op(), peek_ops(), and stack_functions() to attribute the sample.
/// The sink must not re-enter the machine (no step/run calls).
class SampleSink {
 public:
  virtual ~SampleSink() = default;
  virtual void on_sample(const Machine& machine) = 0;
};

class Machine {
 public:
  /// `arch` is the architecture of the host this module instance runs on;
  /// it affects only the native frame image (raw_frame_image), never
  /// program semantics.
  Machine(const CompiledProgram& program, net::Arch arch,
          std::uint64_t seed = 7);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Connects the machine to the software bus as a named module. Without a
  /// client, bus builtins fault and status/clock report standalone values.
  void attach_client(bus::Client* client) noexcept { client_ = client; }

  /// Executes up to max_insns instructions. Never throws for program-level
  /// errors; they surface as RunState::kFault. A superinstruction counts as
  /// its op_width() component instructions against the budget; when fewer
  /// remain, only the head component executes, so a slice of k runs exactly
  /// k instructions regardless of fusion.
  StepResult step(std::uint64_t max_insns = UINT64_MAX);

  /// Selects the dispatch loop for this machine (coerced to kSwitch when
  /// threading is unsupported). Discards the decoded-code cache.
  void set_dispatch_mode(DispatchMode mode) noexcept;
  [[nodiscard]] DispatchMode dispatch_mode() const noexcept {
    return dispatch_mode_;
  }

  /// Test helper: steps until done/fault/blocked, up to a total budget.
  StepResult run(std::uint64_t max_total_insns = 10'000'000);

  /// Delivers a reconfiguration signal directly (standalone tests; modules
  /// under a bus receive signals through bus::Client instead).
  void raise_signal() noexcept { local_signal_ = true; }

  [[nodiscard]] RunState state() const noexcept { return state_; }
  [[nodiscard]] const std::string& fault_message() const noexcept {
    return fault_message_;
  }
  [[nodiscard]] std::uint64_t instructions_executed() const noexcept {
    return instructions_executed_;
  }
  [[nodiscard]] const std::vector<std::string>& output() const noexcept {
    return output_;
  }
  [[nodiscard]] const net::Arch& arch() const noexcept { return arch_; }
  [[nodiscard]] std::size_t stack_depth() const noexcept {
    return frames_.size();
  }
  /// Number of successful mh_decode calls (state installations begun).
  [[nodiscard]] std::uint64_t decode_count() const noexcept {
    return decode_count_;
  }
  /// Frames still waiting to be consumed by mh_restore. A clone has fully
  /// rebuilt its activation record stack when decode_count() > 0 and this
  /// returns 0.
  [[nodiscard]] std::size_t restore_frames_remaining() const noexcept {
    return restore_buf_.has_value() ? restore_buf_->frame_count() : 0;
  }

  // --- observability counters (sampled into obs::MetricsRegistry by the
  // --- app runtime after each scheduling slice) ---------------------------

  /// State frames appended by mh_capture over the machine's lifetime.
  [[nodiscard]] std::uint64_t capture_frames_total() const noexcept {
    return capture_frames_total_;
  }
  /// State frames consumed by mh_restore over the machine's lifetime.
  [[nodiscard]] std::uint64_t restore_frames_total() const noexcept {
    return restore_frames_total_;
  }
  /// Bytes of encoded abstract state divulged to the bus by mh_encode
  /// (0 while no client is attached; standalone encodes are not counted).
  [[nodiscard]] std::uint64_t encoded_state_bytes_total() const noexcept {
    return encoded_state_bytes_total_;
  }

  // --- sampling profiler hook (surgeon::profile) --------------------------
  // Cost model: one integer compare per executed instruction while no
  // sample is armed; the bench_obs_overhead/bench_disruption suites pin the
  // disabled path within the platform's 3% bar.

  /// Installs (or, with null, removes) the sample sink. The machine never
  /// samples without a sink, whatever the countdown says.
  void set_sample_sink(SampleSink* sink) noexcept { sample_sink_ = sink; }
  /// Periodic sampling: a sample fires every `period` executed
  /// instructions (0 disables and clears any armed countdown).
  void set_sample_period(std::uint64_t period) noexcept {
    sample_period_ = period;
    sample_countdown_ = period;
  }
  /// One-shot arm: the next `countdown`-th executed instruction is sampled
  /// (the virtual-clock sampling timer in app::Runtime arms 1 at each
  /// tick). Overrides any in-progress periodic countdown; after the hit the
  /// periodic cadence (if any) resumes.
  void arm_sample(std::uint64_t countdown) noexcept {
    sample_countdown_ = countdown;
  }

  /// Function index of the innermost activation record. Only meaningful
  /// while the stack is non-empty (stack_depth() > 0).
  [[nodiscard]] std::uint32_t current_function() const noexcept {
    return frames_.back().fn;
  }
  /// Opcode about to execute; nullopt when the pc ran off the function end
  /// (the next exec faults) or the stack is empty.
  [[nodiscard]] std::optional<Op> current_op() const noexcept;
  /// Static opcode window at the current pc: the sampled instruction plus
  /// up to `n - 1` followers from the same function body. This is the raw
  /// evidence for superinstruction selection — the profiler counts these
  /// windows to name the hot dispatch sequences worth fusing.
  [[nodiscard]] std::vector<Op> peek_ops(std::size_t n) const;
  /// Function index of every live activation record, bottom (main) to top;
  /// appends into `out` (cleared first) so periodic samplers reuse one
  /// buffer. This is the folded stack of one flamegraph sample.
  void stack_functions(std::vector<std::uint32_t>& out) const;

  /// Test access to a global by name. Throws VmError if unknown.
  [[nodiscard]] RtValue global(const std::string& name) const;
  void set_global(const std::string& name, RtValue value);

  /// The state buffer mh_encode would divulge, for standalone tests (when a
  /// client is attached, mh_encode posts to the bus instead).
  [[nodiscard]] const std::optional<ser::StateBuffer>& last_encoded_state()
      const noexcept {
    return last_encoded_;
  }
  /// Standalone counterpart of an arriving state buffer (mh_decode input).
  void inject_incoming_state(ser::StateBuffer state) {
    injected_state_ = std::move(state);
  }
  /// What mh_getstatus() reports when no client is attached ("new" by
  /// default; standalone clone tests set "clone").
  void set_standalone_status(std::string status) {
    standalone_status_ = std::move(status);
  }

  // --- native frame image (binary-copy baseline; see DESIGN.md §3.2) ------

  /// Serializes the activation record stack in this machine's *native*
  /// layout: scalar slots in arch byte order with arch-specific padding.
  /// This is what a naive binary process migration would copy.
  [[nodiscard]] std::vector<std::uint8_t> raw_frame_image() const;

  /// Rebuilds the stack from a native image, interpreting it with THIS
  /// machine's architecture. Restoring an image made on an unlike
  /// architecture yields scrambled values or a structural fault -- the
  /// negative result motivating the abstract state format.
  void restore_raw_frame_image(std::span<const std::uint8_t> bytes);

  // --- privileged whole-state snapshot (checkpointing baseline) -----------

  struct Snapshot;
  /// Deep copy of the entire machine state (globals, frames, heap, RNG).
  /// This models OS-level checkpointing: same machine, same architecture.
  /// (shared_ptr so the Snapshot type can stay private to the .cpp.)
  [[nodiscard]] std::shared_ptr<Snapshot> checkpoint() const;
  void rollback(const Snapshot& snapshot);
  /// Serialized size of a snapshot, for checkpoint-cost benchmarks.
  [[nodiscard]] static std::size_t snapshot_size(const Snapshot& snapshot);

  struct HeapStats {
    std::size_t objects = 0;
    std::size_t cells = 0;
  };
  [[nodiscard]] HeapStats heap_stats() const noexcept;

  // --- per-procedure code replacement (procedure-level update baseline) ---

  /// True if any activation record of function `fn_index` is on the stack.
  [[nodiscard]] bool function_active(std::uint32_t fn_index) const noexcept;

  /// Replaces the code of the function named `name` with the version from
  /// `donor` while the module runs. Refuses (with VmError) if the function
  /// is active, missing on either side, changes the frame shape, or calls
  /// procedures this program does not have -- the consistency rules of
  /// procedure-level dynamic updating (Frieder & Segal, ref [4] of the
  /// paper). Constant-pool and call indices are remapped from the donor.
  /// Limitation: a replacement that passes a function to mh_signal is
  /// rejected (function-index constants cannot be remapped soundly).
  void replace_function(const CompiledProgram& donor, const std::string& name);

  /// Code actually in effect for a function (override or original).
  [[nodiscard]] const CompiledFunction& effective_function(
      std::uint32_t fn_index) const;

  /// Human-readable activation record stack (diagnostics, tests).
  [[nodiscard]] std::string dump_stack() const;

 private:
  /// One activation record. Ids are never reused and ascend from the
  /// bottom of frames_ to the top, so a frame Ref resolves by binary
  /// search and a Ref into a dead frame can never alias a live one.
  struct Frame {
    std::uint32_t fn = 0;
    std::uint32_t pc = 0;
    std::uint64_t id = 0;
    std::vector<RtValue> slots;
    std::vector<RtValue> stack;
  };
  struct HeapObject {
    std::vector<RtValue> cells;
  };

  void push_frame(std::uint32_t fn_index, std::size_t nargs);
  /// Pops the top frame, keeping its (cleared) storage in frame_pool_.
  void pop_frame();
  [[nodiscard]] Frame& top() { return frames_.back(); }
  [[nodiscard]] const CompiledFunction& fn_of(const Frame& f) const {
    return effective_function(f.fn);
  }

  // The dispatch loops (bodies in machine_loop.inc, included twice from
  // machine.cpp). Passing resultp == nullptr asks the threaded variant for
  // its handler-label table (used by decode) instead of executing.
  const void* const* run_threaded(StepResult* resultp,
                                  std::uint64_t max_insns);
  const void* const* run_switch(StepResult* resultp, std::uint64_t max_insns);

  /// Lazily decoded code of effective_function(fn_index), with a sentinel
  /// entry at index `size` whose handler raises the pc-ran-off-the-end
  /// fault. Invalidated by replace_function and set_dispatch_mode. Every
  /// call and return asks for it, so the already-decoded case is inline.
  const DecodedInsn* decoded_code(std::uint32_t fn_index,
                                  std::uint32_t& size) {
    if (const auto& d = decoded_[fn_index]) {
      size = static_cast<std::uint32_t>(d->size() - 1);
      return d->data();
    }
    return decode(fn_index, size);
  }
  const DecodedInsn* decode(std::uint32_t fn_index, std::uint32_t& size);
  /// Rebuilds rt_consts_ from the program + extra constant pools.
  void sync_rt_consts();

  bool exec_builtin(std::uint8_t id, std::uint32_t nargs);
  /// Value kinds of a format literal, parsed on its first use only. The
  /// reference is valid until the next call.
  const std::vector<support::ValueKind>& format_kinds(
      const std::string& format);

  // Pointer plumbing.
  [[nodiscard]] RtValue& frame_slot(const Ref& r);
  [[nodiscard]] const RtValue& load_ref(const Ref& r);
  void store_ref(const Ref& r, RtValue v);

  // Abstract state capture/restore (the mh_capture/mh_restore builtins).
  [[nodiscard]] ser::Value abstract_of(const RtValue& v,
                                       support::ValueKind kind);
  void capture_heap_object(std::uint64_t object_id, std::set<std::uint64_t>&
                                                        visited);
  [[nodiscard]] RtValue concrete_of(const ser::Value& v);
  void materialize_heap(const ser::StateBuffer& buf);

  [[nodiscard]] bool take_signal();

  const CompiledProgram* prog_;
  net::Arch arch_;
  bus::Client* client_ = nullptr;

  std::vector<RtValue> globals_;
  std::vector<Frame> frames_;
  /// Popped frames whose slot and operand-stack storage the next calls
  /// reuse; capped (see pop_frame) so a deep recursion does not pin memory.
  std::vector<Frame> frame_pool_;
  std::map<std::uint64_t, HeapObject> heap_;
  std::uint64_t next_frame_id_ = 1;
  std::uint64_t next_heap_id_ = 1;

  ser::StateBuffer capture_buf_;
  std::optional<ser::StateBuffer> restore_buf_;
  std::map<std::uint64_t, std::uint64_t> decode_id_map_;
  std::optional<ser::StateBuffer> last_encoded_;
  std::optional<ser::StateBuffer> injected_state_;

  void take_sample();

  std::int32_t signal_handler_fn_ = -1;
  bool local_signal_ = false;
  SampleSink* sample_sink_ = nullptr;
  std::uint64_t sample_period_ = 0;     // 0 = no periodic cadence
  std::uint64_t sample_countdown_ = 0;  // 0 = nothing armed
  std::uint64_t decode_count_ = 0;
  std::uint64_t capture_frames_total_ = 0;
  std::uint64_t restore_frames_total_ = 0;
  std::uint64_t encoded_state_bytes_total_ = 0;
  std::string standalone_status_ = "new";

  RunState state_ = RunState::kRunnable;
  std::string fault_message_;
  std::uint64_t pending_sleep_us_ = 0;
  std::uint64_t instructions_executed_ = 0;

  support::SplitMix64 rng_;
  std::vector<std::string> output_;
  /// Per-function code overrides installed by replace_function, and the
  /// extra constants their remapped kPushConst instructions refer to
  /// (indices >= prog_->constants.size() address extra_constants_).
  std::map<std::uint32_t, CompiledFunction> fn_overrides_;
  std::vector<ser::Value> extra_constants_;

  DispatchMode dispatch_mode_ = default_dispatch_mode();
  /// Per-function decoded code, indexed by function index; entries are
  /// stable once created (unique_ptr to a vector that never grows).
  std::vector<std::unique_ptr<std::vector<DecodedInsn>>> decoded_;
  /// Constants pre-materialized as runtime values, so kPushConst is a copy
  /// instead of a per-execution abstract-value conversion.
  std::vector<RtValue> rt_consts_;
  /// format_kinds' memo. Formats are literals (sema rejects any other), so
  /// a module has a handful and a linear scan finds one.
  std::vector<std::pair<std::string, std::vector<support::ValueKind>>>
      formats_;
  /// Storage of the last message mh_read consumed; the next mh_write sends
  /// its payload in it.
  std::vector<ser::Value> payload_;
};

/// Printable name of a run state (diagnostics and test failure messages).
[[nodiscard]] const char* run_state_name(RunState state) noexcept;

/// Renders an RtValue for logs and tests.
[[nodiscard]] std::string rt_to_string(const RtValue& v);

}  // namespace surgeon::vm
