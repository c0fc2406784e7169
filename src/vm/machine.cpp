#include "vm/machine.hpp"

#include <algorithm>
#include <sstream>

#include "minic/builtins.hpp"

// Computed goto (&&label) drives the direct-threaded dispatch loop; it is a
// GCC/Clang extension. SURGEON_VM_FORCE_SWITCH_DISPATCH (a configure-time
// option) forces the portable switch loop even where the extension exists.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(SURGEON_VM_FORCE_SWITCH_DISPATCH)
#define SURGEON_VM_HAVE_COMPUTED_GOTO 1
#else
#define SURGEON_VM_HAVE_COMPUTED_GOTO 0
#endif

namespace surgeon::vm {

using minic::BuiltinId;
using support::ValueKind;
using support::VmError;

namespace {
DispatchMode g_default_dispatch_mode = SURGEON_VM_HAVE_COMPUTED_GOTO
                                           ? DispatchMode::kThreaded
                                           : DispatchMode::kSwitch;
}  // namespace

bool threaded_dispatch_supported() noexcept {
  return SURGEON_VM_HAVE_COMPUTED_GOTO != 0;
}

void set_default_dispatch_mode(DispatchMode mode) noexcept {
  g_default_dispatch_mode =
      threaded_dispatch_supported() ? mode : DispatchMode::kSwitch;
}

DispatchMode default_dispatch_mode() noexcept {
  return g_default_dispatch_mode;
}

const char* run_state_name(RunState state) noexcept {
  switch (state) {
    case RunState::kRunnable: return "runnable";
    case RunState::kBlockedRead: return "blocked-read";
    case RunState::kBlockedDecode: return "blocked-decode";
    case RunState::kSleeping: return "sleeping";
    case RunState::kDone: return "done";
    case RunState::kFault: return "fault";
  }
  return "?";
}

std::string rt_to_string(const RtValue& v) {
  std::ostringstream os;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    os << *i;
  } else if (const auto* d = std::get_if<double>(&v)) {
    os << *d;
  } else if (const auto* s = std::get_if<std::string>(&v)) {
    os << *s;
  } else {
    const auto& r = std::get<Ref>(v);
    switch (r.kind) {
      case Ref::Kind::kNull:
        os << "null";
        break;
      case Ref::Kind::kGlobal:
        os << "&global[" << r.a << "]";
        break;
      case Ref::Kind::kFrame:
        os << "&frame[" << r.a << "][" << r.b << "]";
        break;
      case Ref::Kind::kHeap:
        os << "heap(" << r.a << "+" << r.b << ")";
        break;
    }
  }
  return os.str();
}

namespace {

/// Appends the value a slot holds before its declaration executes,
/// constructed in place.
void push_default_slot(std::vector<RtValue>& slots, SlotType type) {
  switch (type) {
    case SlotType::kInt:
      slots.emplace_back(std::in_place_type<std::int64_t>, 0);
      return;
    case SlotType::kReal:
      slots.emplace_back(std::in_place_type<double>, 0.0);
      return;
    case SlotType::kString:
      slots.emplace_back(std::in_place_type<std::string>);
      return;
    case SlotType::kPointer:
      slots.emplace_back(std::in_place_type<Ref>);
      return;
  }
}

/// Most popped frames frame_pool_ keeps for reuse.
constexpr std::size_t kFramePoolMax = 32;

[[nodiscard]] RtValue from_abstract(const ser::Value& v) {
  if (v.is_int()) return v.as_int();
  if (v.is_real()) return v.as_real();
  if (v.is_string()) return v.as_string();
  // The only pointer that can appear outside a decoded state (constants,
  // global initializers) is null.
  if (v.as_pointer().is_null()) return Ref{};
  throw VmError("abstract pointer needs the decode id map");
}

[[nodiscard]] std::int64_t need_int(const RtValue& v, const char* what) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  throw VmError(std::string(what) + ": expected an integer, got " +
                rt_to_string(v));
}

[[nodiscard]] double need_num(const RtValue& v, const char* what) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) return *d;
  throw VmError(std::string(what) + ": expected a number, got " +
                rt_to_string(v));
}

[[nodiscard]] const std::string& need_str(const RtValue& v, const char* what) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw VmError(std::string(what) + ": expected a string, got " +
                rt_to_string(v));
}

[[nodiscard]] Ref need_ref(const RtValue& v, const char* what) {
  if (const auto* r = std::get_if<Ref>(&v)) return *r;
  throw VmError(std::string(what) + ": expected a pointer, got " +
                rt_to_string(v));
}

// --- dispatch-loop helpers (machine_loop.inc) ------------------------------

/// Sentinel opcode of the decode sentinel at index == code size; dispatches
/// to the pc-ran-off-the-end handler in both loop variants.
constexpr Op kOpOffEnd = static_cast<Op>(0xFF);

enum class CmpKind : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// One comparison predicate per opcode (instantiated per kind), replacing
/// the old dispatch-then-switch-again comparison path.
template <CmpKind K>
[[nodiscard]] bool compare_values(const RtValue& lhs, const RtValue& rhs) {
  if (std::holds_alternative<Ref>(lhs) || std::holds_alternative<Ref>(rhs)) {
    if constexpr (K != CmpKind::kEq && K != CmpKind::kNe) {
      throw VmError("pointers support only == and !=");
    } else {
      Ref a = need_ref(lhs, "compare");
      Ref b = need_ref(rhs, "compare");
      bool eq = (a == b) || (a.kind == Ref::Kind::kNull &&
                             b.kind == Ref::Kind::kNull);
      return (K == CmpKind::kEq) == eq;
    }
  }
  int cmp;  // -1 / 0 / +1
  if (std::holds_alternative<std::string>(lhs) ||
      std::holds_alternative<std::string>(rhs)) {
    const std::string& a = need_str(lhs, "compare");
    const std::string& b = need_str(rhs, "compare");
    cmp = a < b ? -1 : (a == b ? 0 : 1);
  } else {
    double a = need_num(lhs, "compare");
    double b = need_num(rhs, "compare");
    cmp = a < b ? -1 : (a == b ? 0 : 1);
  }
  switch (K) {
    case CmpKind::kEq: return cmp == 0;
    case CmpKind::kNe: return cmp != 0;
    case CmpKind::kLt: return cmp < 0;
    case CmpKind::kLe: return cmp <= 0;
    case CmpKind::kGt: return cmp > 0;
    case CmpKind::kGe: return cmp >= 0;
  }
  return false;
}

/// Runtime-kind comparison for kStmtSlotCmpConstJf, whose head `b` operand
/// carries the original comparison opcode.
[[nodiscard]] bool compare_values_dyn(Op cmp, const RtValue& lhs,
                                      const RtValue& rhs) {
  switch (cmp) {
    case Op::kEq: return compare_values<CmpKind::kEq>(lhs, rhs);
    case Op::kNe: return compare_values<CmpKind::kNe>(lhs, rhs);
    case Op::kLt: return compare_values<CmpKind::kLt>(lhs, rhs);
    case Op::kLe: return compare_values<CmpKind::kLe>(lhs, rhs);
    case Op::kGt: return compare_values<CmpKind::kGt>(lhs, rhs);
    default: return compare_values<CmpKind::kGe>(lhs, rhs);
  }
}

[[nodiscard]] RtValue arith_add(const RtValue& lhs, const RtValue& rhs) {
  if (std::holds_alternative<std::string>(lhs) &&
      std::holds_alternative<std::string>(rhs)) {
    return std::get<std::string>(lhs) + std::get<std::string>(rhs);
  }
  if (std::holds_alternative<std::int64_t>(lhs) &&
      std::holds_alternative<std::int64_t>(rhs)) {
    return std::get<std::int64_t>(lhs) + std::get<std::int64_t>(rhs);
  }
  return need_num(lhs, "+") + need_num(rhs, "+");
}

[[nodiscard]] RtValue arith_sub(const RtValue& lhs, const RtValue& rhs) {
  if (std::holds_alternative<std::int64_t>(lhs) &&
      std::holds_alternative<std::int64_t>(rhs)) {
    return std::get<std::int64_t>(lhs) - std::get<std::int64_t>(rhs);
  }
  return need_num(lhs, "arith") - need_num(rhs, "arith");
}

[[nodiscard]] RtValue arith_mul(const RtValue& lhs, const RtValue& rhs) {
  if (std::holds_alternative<std::int64_t>(lhs) &&
      std::holds_alternative<std::int64_t>(rhs)) {
    return std::get<std::int64_t>(lhs) * std::get<std::int64_t>(rhs);
  }
  return need_num(lhs, "arith") * need_num(rhs, "arith");
}

[[nodiscard]] RtValue arith_div(const RtValue& lhs, const RtValue& rhs) {
  if (std::holds_alternative<std::int64_t>(lhs) &&
      std::holds_alternative<std::int64_t>(rhs)) {
    std::int64_t b = std::get<std::int64_t>(rhs);
    if (b == 0) throw VmError("integer division by zero");
    return std::get<std::int64_t>(lhs) / b;
  }
  return need_num(lhs, "arith") / need_num(rhs, "arith");
}

/// Spills the cached pc and counters and reports the executed count when a
/// fault unwinds out of the dispatch loop (fr is nulled around
/// frame-structure mutations, so the spill can never write through a
/// dangling pointer).
template <typename FrameT>
struct UnwindSpill {
  std::uint64_t& n;
  std::uint64_t& insns_base;
  std::uint64_t& cd;
  std::uint64_t& instructions_executed;
  std::uint64_t& sample_countdown;
  FrameT*& fr;
  std::uint32_t& pc;
  StepResult* resultp;
  bool armed = true;
  ~UnwindSpill() {
    if (!armed) return;
    resultp->instructions = n;
    instructions_executed = insns_base + n;
    sample_countdown = cd;
    if (fr != nullptr) fr->pc = pc;
  }
};

}  // namespace

Machine::Machine(const CompiledProgram& program, net::Arch arch,
                 std::uint64_t seed)
    : prog_(&program), arch_(std::move(arch)), rng_(seed) {
  globals_.reserve(program.globals.size());
  for (const auto& g : program.globals) {
    // Pointer globals can only be initialized to null.
    globals_.push_back(g.init.is_pointer() ? RtValue{Ref{}}
                                           : from_abstract(g.init));
  }
  decoded_.resize(program.functions.size());
  sync_rt_consts();
  push_frame(program.main_index, 0);
}

void Machine::sync_rt_consts() {
  rt_consts_.clear();
  rt_consts_.reserve(prog_->constants.size() + extra_constants_.size());
  for (const auto& v : prog_->constants) rt_consts_.push_back(from_abstract(v));
  for (const auto& v : extra_constants_) rt_consts_.push_back(from_abstract(v));
}

void Machine::set_dispatch_mode(DispatchMode mode) noexcept {
  if (!threaded_dispatch_supported()) mode = DispatchMode::kSwitch;
  if (mode == dispatch_mode_) return;
  dispatch_mode_ = mode;
  // Decoded handler addresses are per-mode.
  for (auto& d : decoded_) d.reset();
}

const DecodedInsn* Machine::decode(std::uint32_t fn_index,
                                   std::uint32_t& size) {
  const CompiledFunction& fn = effective_function(fn_index);
  const void* const* targets = nullptr;
#if SURGEON_VM_HAVE_COMPUTED_GOTO
  if (dispatch_mode_ == DispatchMode::kThreaded) {
    targets = run_threaded(nullptr, 0);
  }
#endif
  auto vec = std::make_unique<std::vector<DecodedInsn>>();
  vec->reserve(fn.code.size() + 1);
  for (const Insn& insn : fn.code) {
    DecodedInsn d;
    d.op = insn.op;
    d.a = insn.a;
    d.b = insn.b;
    if (targets != nullptr) {
      d.target = targets[static_cast<std::size_t>(insn.op)];
    }
    vec->push_back(d);
  }
  // Sentinel: executing at index == size raises the off-the-end fault
  // without a per-instruction bounds check in the hot loop.
  DecodedInsn sentinel;
  sentinel.op = kOpOffEnd;
  if (targets != nullptr) sentinel.target = targets[kOpCount];
  vec->push_back(sentinel);
  decoded_[fn_index] = std::move(vec);
  return decoded_code(fn_index, size);
}

const CompiledFunction& Machine::effective_function(
    std::uint32_t fn_index) const {
  auto it = fn_overrides_.find(fn_index);
  if (it != fn_overrides_.end()) return it->second;
  return prog_->functions[fn_index];
}

void Machine::push_frame(std::uint32_t fn_index, std::size_t nargs) {
  const CompiledFunction& fn = effective_function(fn_index);
  if (nargs != fn.param_count) {
    throw VmError("call to " + fn.name + " with " + std::to_string(nargs) +
                  " args, expected " + std::to_string(fn.param_count));
  }
  Frame frame;
  if (!frame_pool_.empty()) {
    frame = std::move(frame_pool_.back());
    frame_pool_.pop_back();
  }
  frame.fn = fn_index;
  frame.pc = 0;
  frame.id = next_frame_id_++;
  frame.slots.reserve(fn.slot_types.size());
  if (nargs > 0) {
    auto& caller_stack = frames_.back().stack;
    if (caller_stack.size() < nargs) {
      throw VmError("operand stack underflow in call to " + fn.name);
    }
    // Parameters are the first slots: the arguments move straight in.
    const auto args = caller_stack.end() - static_cast<std::ptrdiff_t>(nargs);
    for (auto it = args; it != caller_stack.end(); ++it) {
      frame.slots.emplace_back(std::move(*it));
    }
    caller_stack.erase(args, caller_stack.end());
  }
  for (std::size_t i = nargs; i < fn.slot_types.size(); ++i) {
    push_default_slot(frame.slots, fn.slot_types[i]);
  }
  frames_.push_back(std::move(frame));
  if (frames_.size() > 100'000) {
    throw VmError("activation record stack overflow (100000 frames)");
  }
}

void Machine::pop_frame() {
  Frame& frame = frames_.back();
  if (frame_pool_.size() < kFramePoolMax) {
    frame.slots.clear();
    frame.stack.clear();
    frame_pool_.push_back(std::move(frame));
  }
  frames_.pop_back();
}

RtValue& Machine::frame_slot(const Ref& r) {
  // Ids ascend from the bottom of the stack to the top: try the top frame
  // (a callee's own locals), then binary-search the rest.
  auto it = frames_.end() - 1;
  if (it->id != r.a) {
    it = std::lower_bound(
        frames_.begin(), it, r.a,
        [](const Frame& f, std::uint64_t id) { return f.id < id; });
    if (it->id != r.a) {
      throw VmError("dangling pointer: activation record no longer exists");
    }
  }
  if (r.b >= it->slots.size()) throw VmError("bad frame reference");
  return it->slots[r.b];
}

const RtValue& Machine::load_ref(const Ref& r) {
  switch (r.kind) {
    case Ref::Kind::kNull:
      throw VmError("null pointer dereference");
    case Ref::Kind::kGlobal:
      if (r.a >= globals_.size()) throw VmError("bad global reference");
      return globals_[r.a];
    case Ref::Kind::kFrame:
      return frame_slot(r);
    case Ref::Kind::kHeap: {
      auto it = heap_.find(r.a);
      if (it == heap_.end()) {
        throw VmError("dangling heap pointer (freed object " +
                      std::to_string(r.a) + ")");
      }
      if (r.b >= it->second.cells.size()) {
        throw VmError("heap access out of bounds: offset " +
                      std::to_string(r.b) + " in object of " +
                      std::to_string(it->second.cells.size()) + " cells");
      }
      return it->second.cells[r.b];
    }
  }
  throw VmError("bad reference");
}

void Machine::store_ref(const Ref& r, RtValue v) {
  switch (r.kind) {
    case Ref::Kind::kNull:
      throw VmError("store through null pointer");
    case Ref::Kind::kGlobal:
      if (r.a >= globals_.size()) throw VmError("bad global reference");
      globals_[r.a] = std::move(v);
      return;
    case Ref::Kind::kFrame:
      frame_slot(r) = std::move(v);
      return;
    case Ref::Kind::kHeap: {
      auto it = heap_.find(r.a);
      if (it == heap_.end()) {
        throw VmError("dangling heap pointer (freed object " +
                      std::to_string(r.a) + ")");
      }
      if (r.b >= it->second.cells.size()) {
        throw VmError("heap store out of bounds");
      }
      it->second.cells[r.b] = std::move(v);
      return;
    }
  }
}

bool Machine::take_signal() {
  if (local_signal_) {
    local_signal_ = false;
    return true;
  }
  if (client_ != nullptr) return client_->take_pending_signal();
  return false;
}

StepResult Machine::step(std::uint64_t max_insns) {
  StepResult result;
  if (state_ == RunState::kDone || state_ == RunState::kFault) {
    result.state = state_;
    return result;
  }
  state_ = RunState::kRunnable;
  try {
#if SURGEON_VM_HAVE_COMPUTED_GOTO
    if (dispatch_mode_ == DispatchMode::kThreaded) {
      (void)run_threaded(&result, max_insns);
    } else {
      (void)run_switch(&result, max_insns);
    }
#else
    (void)run_switch(&result, max_insns);
#endif
  } catch (const support::Error& e) {
    state_ = RunState::kFault;
    fault_message_ = e.what();
  }
  result.state = state_;
  result.sleep_us = pending_sleep_us_;
  pending_sleep_us_ = 0;
  return result;
}

StepResult Machine::run(std::uint64_t max_total_insns) {
  StepResult last = step(max_total_insns);
  return last;
}

void Machine::take_sample() {
  // Re-arm the periodic cadence first: a throwing sink must not wedge it.
  sample_countdown_ = sample_period_;
  if (sample_sink_ == nullptr || frames_.empty()) return;
  sample_sink_->on_sample(*this);
}

std::optional<Op> Machine::current_op() const noexcept {
  if (frames_.empty()) return std::nullopt;
  const Frame& frame = frames_.back();
  const CompiledFunction& fn = effective_function(frame.fn);
  if (frame.pc >= fn.code.size()) return std::nullopt;
  return fn.code[frame.pc].op;
}

std::vector<Op> Machine::peek_ops(std::size_t n) const {
  std::vector<Op> ops;
  if (frames_.empty()) return ops;
  const Frame& frame = frames_.back();
  const CompiledFunction& fn = effective_function(frame.fn);
  for (std::size_t i = 0; i < n && frame.pc + i < fn.code.size(); ++i) {
    ops.push_back(fn.code[frame.pc + i].op);
  }
  return ops;
}

void Machine::stack_functions(std::vector<std::uint32_t>& out) const {
  out.clear();
  out.reserve(frames_.size());
  for (const Frame& frame : frames_) out.push_back(frame.fn);
}

// --- dispatch loops ---------------------------------------------------------
//
// The handler bodies live in machine_loop.inc, included twice: once with
// computed-goto dispatch (run_threaded), once with the portable switch
// (run_switch). See the contract at the top of that file.

#if SURGEON_VM_HAVE_COMPUTED_GOTO
#define VM_THREADED 1
#include "vm/machine_loop.inc"
#undef VM_THREADED
#else
const void* const* Machine::run_threaded(StepResult* resultp,
                                         std::uint64_t max_insns) {
  // No computed goto on this toolchain: threaded mode degrades to the
  // portable loop (threaded_dispatch_supported() reports false).
  return run_switch(resultp, max_insns);
}
#endif

#include "vm/machine_loop.inc"

// --- builtins ---------------------------------------------------------------

ser::Value Machine::abstract_of(const RtValue& v, ValueKind kind) {
  switch (kind) {
    case ValueKind::kInt:
      if (const auto* d = std::get_if<double>(&v)) {
        return ser::Value(static_cast<std::int64_t>(*d));
      }
      return ser::Value(need_int(v, "capture int"));
    case ValueKind::kReal:
      return ser::Value(need_num(v, "capture real"));
    case ValueKind::kString:
      return ser::Value(need_str(v, "capture string"));
    case ValueKind::kPointer: {
      Ref r = need_ref(v, "capture pointer");
      switch (r.kind) {
        case Ref::Kind::kNull:
          return ser::Value(ser::AbstractPointer{});
        case Ref::Kind::kHeap: {
          std::set<std::uint64_t> visited;
          capture_heap_object(r.a, visited);
          return ser::Value(ser::AbstractPointer{r.a, r.b});
        }
        default:
          // The paper's noted difficulty: pointers into activation records
          // or the data area cannot be expressed in the abstract state.
          throw VmError(
              "cannot capture a pointer into the stack or data area; only "
              "null and managed-heap pointers are expressible in the "
              "abstract state format");
      }
    }
  }
  throw VmError("bad capture kind");
}

void Machine::capture_heap_object(std::uint64_t object_id,
                                  std::set<std::uint64_t>& visited) {
  if (!visited.insert(object_id).second) return;
  auto it = heap_.find(object_id);
  if (it == heap_.end()) {
    throw VmError("capture of dangling heap pointer (object " +
                  std::to_string(object_id) + ")");
  }
  std::vector<ser::Value> cells;
  cells.reserve(it->second.cells.size());
  for (const auto& cell : it->second.cells) {
    if (const auto* r = std::get_if<Ref>(&cell)) {
      if (r->kind == Ref::Kind::kNull) {
        cells.emplace_back(ser::AbstractPointer{});
      } else if (r->kind == Ref::Kind::kHeap) {
        capture_heap_object(r->a, visited);
        cells.emplace_back(ser::AbstractPointer{r->a, r->b});
      } else {
        throw VmError("heap object contains a stack pointer; not capturable");
      }
    } else if (const auto* i = std::get_if<std::int64_t>(&cell)) {
      cells.emplace_back(*i);
    } else if (const auto* d = std::get_if<double>(&cell)) {
      cells.emplace_back(*d);
    } else {
      cells.emplace_back(std::get<std::string>(cell));
    }
  }
  capture_buf_.put_heap_object(object_id, std::move(cells));
}

RtValue Machine::concrete_of(const ser::Value& v) {
  if (v.is_pointer()) {
    auto p = v.as_pointer();
    if (p.is_null()) return Ref{};
    auto it = decode_id_map_.find(p.object_id);
    if (it == decode_id_map_.end()) {
      throw VmError("abstract pointer to object " +
                    std::to_string(p.object_id) +
                    " has no materialized heap object");
    }
    return Ref{Ref::Kind::kHeap, it->second, p.offset};
  }
  return from_abstract(v);
}

void Machine::materialize_heap(const ser::StateBuffer& buf) {
  decode_id_map_.clear();
  for (const auto& [old_id, values] : buf.heap()) {
    std::uint64_t new_id = next_heap_id_++;
    heap_[new_id] = HeapObject{};
    heap_[new_id].cells.resize(values.size(), std::int64_t{0});
    decode_id_map_[old_id] = new_id;
  }
  for (const auto& [old_id, values] : buf.heap()) {
    auto& cells = heap_[decode_id_map_[old_id]].cells;
    for (std::size_t i = 0; i < values.size(); ++i) {
      cells[i] = concrete_of(values[i]);
    }
  }
}

const std::vector<ValueKind>& Machine::format_kinds(const std::string& format) {
  for (const auto& [text, kinds] : formats_) {
    if (text == format) return kinds;
  }
  return formats_.emplace_back(format, support::parse_format(format)).second;
}

bool Machine::exec_builtin(std::uint8_t id, std::uint32_t nargs) {
  Frame& frame = top();
  auto& stack = frame.stack;
  if (stack.size() < nargs) throw VmError("builtin argument underflow");
  const std::size_t base = stack.size() - nargs;
  auto arg = [&](std::uint32_t i) -> RtValue& { return stack[base + i]; };
  auto finish = [&](std::optional<RtValue> result) {
    stack.resize(base);
    if (result.has_value()) stack.push_back(std::move(*result));
    ++frame.pc;
  };
  auto require_client = [&](const char* what) {
    if (client_ == nullptr) {
      throw VmError(std::string(what) + " requires a software bus connection");
    }
  };

  switch (static_cast<BuiltinId>(id)) {
    case BuiltinId::kMhRead: {
      require_client("mh_read");
      const std::string& iface = need_str(arg(0), "mh_read interface");
      const auto& kinds = format_kinds(need_str(arg(1), "mh_read format"));
      if (!client_->query_ifmsgs(iface)) {
        // Block without consuming anything: the retry re-executes this
        // instruction with the arguments still on the operand stack.
        state_ = RunState::kBlockedRead;
        --instructions_executed_;  // the retry will count it
        return false;
      }
      auto msg = client_->try_read(iface);
      if (!msg.has_value()) throw VmError("mh_read: message vanished");
      if (msg->values.size() != kinds.size()) {
        throw VmError("mh_read on '" + iface + "': message has " +
                      std::to_string(msg->values.size()) +
                      " values, format expects " +
                      std::to_string(kinds.size()));
      }
      for (std::size_t i = 0; i < kinds.size(); ++i) {
        Ref target = need_ref(arg(static_cast<std::uint32_t>(i + 2)),
                              "mh_read target");
        const ser::Value& v = msg->values[i];
        switch (kinds[i]) {
          case ValueKind::kInt:
            store_ref(target, v.is_real()
                                  ? static_cast<std::int64_t>(v.as_real())
                                  : v.as_int());
            break;
          case ValueKind::kReal:
            store_ref(target, v.to_real());
            break;
          case ValueKind::kString:
            store_ref(target, v.as_string());
            break;
          case ValueKind::kPointer:
            throw VmError("mh_read: messages cannot carry pointers");
        }
      }
      payload_ = std::move(msg->values);
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kMhWrite: {
      require_client("mh_write");
      const std::string& iface = need_str(arg(0), "mh_write interface");
      const auto& kinds = format_kinds(need_str(arg(1), "mh_write format"));
      std::vector<ser::Value> values = std::move(payload_);
      values.clear();
      values.reserve(kinds.size());
      for (std::size_t i = 0; i < kinds.size(); ++i) {
        const RtValue& v = arg(static_cast<std::uint32_t>(i + 2));
        if (kinds[i] == ValueKind::kPointer) {
          Ref r = need_ref(v, "mh_write pointer");
          if (r.kind != Ref::Kind::kNull) {
            throw VmError(
                "mh_write: raw pointers cannot cross the bus; send the "
                "pointed-to values instead");
          }
          values.emplace_back(ser::AbstractPointer{});
        } else {
          values.push_back(abstract_of(v, kinds[i]));
        }
      }
      client_->write(iface, std::move(values));
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kMhQueryIfmsgs: {
      require_client("mh_query_ifmsgs");
      const std::string& iface = need_str(arg(0), "mh_query_ifmsgs");
      bool has = client_->query_ifmsgs(iface);
      finish(RtValue{std::int64_t{has}});
      return true;
    }
    case BuiltinId::kMhCapture: {
      const auto& kinds = format_kinds(need_str(arg(0), "mh_capture format"));
      ser::StateFrame sframe;
      sframe.values.reserve(kinds.size());
      for (std::size_t i = 0; i < kinds.size(); ++i) {
        sframe.values.push_back(
            abstract_of(arg(static_cast<std::uint32_t>(i + 1)), kinds[i]));
      }
      capture_buf_.push_frame(std::move(sframe));
      ++capture_frames_total_;
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kMhRestore: {
      const auto& kinds = format_kinds(need_str(arg(0), "mh_restore format"));
      if (!restore_buf_.has_value()) {
        throw VmError("mh_restore called before mh_decode");
      }
      ser::StateFrame sframe = restore_buf_->pop_frame();
      ++restore_frames_total_;
      if (sframe.values.size() != kinds.size()) {
        throw VmError("mh_restore: frame has " +
                      std::to_string(sframe.values.size()) +
                      " values, format expects " +
                      std::to_string(kinds.size()));
      }
      for (std::size_t i = 0; i < kinds.size(); ++i) {
        Ref target = need_ref(arg(static_cast<std::uint32_t>(i + 1)),
                              "mh_restore target");
        const ser::Value& v = sframe.values[i];
        switch (kinds[i]) {
          case ValueKind::kInt:
            store_ref(target, v.is_real()
                                  ? static_cast<std::int64_t>(v.as_real())
                                  : v.as_int());
            break;
          case ValueKind::kReal:
            store_ref(target, v.to_real());
            break;
          case ValueKind::kString:
            store_ref(target, v.as_string());
            break;
          case ValueKind::kPointer:
            store_ref(target, concrete_of(v));
            break;
        }
      }
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kMhEncode: {
      if (client_ != nullptr) {
        encoded_state_bytes_total_ += client_->encode_state(capture_buf_);
      } else {
        last_encoded_ = capture_buf_;
      }
      capture_buf_.clear();
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kMhDecode: {
      std::optional<ser::StateBuffer> incoming;
      if (client_ != nullptr) {
        incoming = client_->decode_state();
      } else {
        incoming = std::move(injected_state_);
        injected_state_.reset();
      }
      if (!incoming.has_value()) {
        state_ = RunState::kBlockedDecode;
        --instructions_executed_;
        return false;
      }
      materialize_heap(*incoming);
      restore_buf_ = std::move(incoming);
      ++decode_count_;
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kMhGetstatus:
      finish(RtValue{client_ != nullptr ? client_->status()
                                        : standalone_status_});
      return true;
    case BuiltinId::kMhSelf:
      finish(RtValue{client_ != nullptr ? client_->module_name()
                                        : std::string("standalone")});
      return true;
    case BuiltinId::kMhSignal: {
      signal_handler_fn_ =
          static_cast<std::int32_t>(need_int(arg(0), "mh_signal"));
      if (signal_handler_fn_ < 0 ||
          static_cast<std::size_t>(signal_handler_fn_) >=
              prog_->functions.size()) {
        throw VmError("mh_signal: bad handler function");
      }
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kSleep: {
      std::int64_t secs = need_int(arg(0), "sleep");
      pending_sleep_us_ =
          secs <= 0 ? 0 : static_cast<std::uint64_t>(secs) * 1'000'000ULL;
      finish(std::nullopt);
      state_ = RunState::kSleeping;
      return false;
    }
    case BuiltinId::kPrint: {
      std::string line;
      for (std::uint32_t i = 0; i < nargs; ++i) {
        if (i != 0) line += ' ';
        line += rt_to_string(arg(i));
      }
      output_.push_back(std::move(line));
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kRandom: {
      std::int64_t bound = need_int(arg(0), "random");
      if (bound <= 0) throw VmError("random: bound must be positive");
      finish(RtValue{static_cast<std::int64_t>(
          rng_.next_below(static_cast<std::uint64_t>(bound)))});
      return true;
    }
    case BuiltinId::kClock: {
      std::int64_t now =
          client_ != nullptr
              ? static_cast<std::int64_t>(client_->bus().simulator().now())
              : 0;
      finish(RtValue{now});
      return true;
    }
    case BuiltinId::kMhAllocInt:
    case BuiltinId::kMhAllocReal:
    case BuiltinId::kMhAllocStr: {
      std::int64_t n = need_int(arg(0), "mh_alloc");
      if (n < 0 || n > 1'000'000) {
        throw VmError("mh_alloc: bad size " + std::to_string(n));
      }
      HeapObject obj;
      RtValue fill = static_cast<BuiltinId>(id) == BuiltinId::kMhAllocInt
                         ? RtValue{std::int64_t{0}}
                     : static_cast<BuiltinId>(id) == BuiltinId::kMhAllocReal
                         ? RtValue{0.0}
                         : RtValue{std::string{}};
      obj.cells.assign(static_cast<std::size_t>(n), fill);
      std::uint64_t obj_id = next_heap_id_++;
      heap_[obj_id] = std::move(obj);
      finish(RtValue{Ref{Ref::Kind::kHeap, obj_id, 0}});
      return true;
    }
    case BuiltinId::kMhFree: {
      Ref r = need_ref(arg(0), "mh_free");
      if (r.kind == Ref::Kind::kNull) {
        finish(std::nullopt);  // free(NULL) is a no-op, as in C
        return true;
      }
      if (r.kind != Ref::Kind::kHeap || r.b != 0) {
        throw VmError("mh_free: not the start of a heap object");
      }
      if (heap_.erase(r.a) == 0) throw VmError("mh_free: double free");
      finish(std::nullopt);
      return true;
    }
    case BuiltinId::kMhPeekLocation: {
      if (!restore_buf_.has_value() || restore_buf_->empty()) {
        throw VmError("mh_peek_location: no pending restore frame");
      }
      const auto& values = restore_buf_->frames().back().values;
      if (values.empty() || !values.front().is_int()) {
        throw VmError("mh_peek_location: frame has no location value");
      }
      finish(RtValue{values.front().as_int()});
      return true;
    }
  }
  throw VmError("unknown builtin " + std::to_string(id));
}

// --- inspection --------------------------------------------------------------

RtValue Machine::global(const std::string& name) const {
  for (std::size_t i = 0; i < prog_->globals.size(); ++i) {
    if (prog_->globals[i].name == name) return globals_[i];
  }
  throw VmError("unknown global '" + name + "'");
}

void Machine::set_global(const std::string& name, RtValue value) {
  for (std::size_t i = 0; i < prog_->globals.size(); ++i) {
    if (prog_->globals[i].name == name) {
      globals_[i] = std::move(value);
      return;
    }
  }
  throw VmError("unknown global '" + name + "'");
}

bool Machine::function_active(std::uint32_t fn_index) const noexcept {
  for (const auto& f : frames_) {
    if (f.fn == fn_index) return true;
  }
  return false;
}

void Machine::replace_function(const CompiledProgram& donor,
                               const std::string& name) {
  std::uint32_t here = prog_->function_index(name);
  std::uint32_t there = donor.function_index(name);
  if (here == UINT32_MAX || there == UINT32_MAX) {
    throw VmError("replace_function: no function '" + name +
                  "' in both versions");
  }
  if (function_active(here)) {
    throw VmError("replace_function: '" + name +
                  "' has active activation records");
  }
  const CompiledFunction& current = effective_function(here);
  CompiledFunction replacement = donor.functions[there];
  if (replacement.param_count != current.param_count ||
      replacement.slot_types != current.slot_types) {
    throw VmError("replace_function: '" + name +
                  "' changes its frame shape (parameters/locals); "
                  "procedure-level update requires layout compatibility");
  }
  if (replacement.returns_value != current.returns_value) {
    throw VmError("replace_function: '" + name + "' changes its return kind");
  }
  // Remap donor constant-pool and call indices into this machine's tables.
  auto map_constant = [&](std::int32_t donor_idx) {
    const ser::Value& v = donor.constants[static_cast<std::size_t>(donor_idx)];
    for (std::size_t i = 0; i < prog_->constants.size(); ++i) {
      if (prog_->constants[i] == v) return static_cast<std::int32_t>(i);
    }
    for (std::size_t i = 0; i < extra_constants_.size(); ++i) {
      if (extra_constants_[i] == v) {
        return static_cast<std::int32_t>(prog_->constants.size() + i);
      }
    }
    extra_constants_.push_back(v);
    return static_cast<std::int32_t>(prog_->constants.size() +
                                     extra_constants_.size() - 1);
  };
  for (auto& insn : replacement.code) {
    switch (insn.op) {
      case Op::kPushConst:
      case Op::kPushConstAdd:
      case Op::kPushConstSub:
      case Op::kPushConstMul:
      case Op::kStmtPushConst:
      case Op::kPushConstAddStore:
      case Op::kPushConstSubStore:
        insn.a = map_constant(insn.a);
        break;
      case Op::kCall: {
        const std::string& callee =
            donor.functions[static_cast<std::size_t>(insn.a)].name;
        std::uint32_t target = prog_->function_index(callee);
        if (target == UINT32_MAX) {
          throw VmError("replace_function: '" + name + "' calls '" + callee +
                        "', which this program does not have (procedure-"
                        "level update cannot add procedures)");
        }
        insn.a = static_cast<std::int32_t>(target);
        break;
      }
      case Op::kBuiltin:
        if (static_cast<minic::BuiltinId>(insn.a) == BuiltinId::kMhSignal) {
          throw VmError("replace_function: '" + name +
                        "' registers a signal handler; function-index "
                        "constants cannot be remapped");
        }
        break;
      default:
        break;
    }
  }
  fn_overrides_[here] = std::move(replacement);
  decoded_[here].reset();  // the override is what decodes from now on
  sync_rt_consts();        // map_constant may have grown extra_constants_
}

std::string Machine::dump_stack() const {
  std::ostringstream os;
  for (std::size_t i = frames_.size(); i-- > 0;) {
    const Frame& f = frames_[i];
    const CompiledFunction& fn = fn_of(f);
    os << "#" << (frames_.size() - 1 - i) << " " << fn.name << " pc=" << f.pc;
    for (std::size_t s = 0; s < f.slots.size(); ++s) {
      os << " "
         << (s < fn.slot_names.size() ? fn.slot_names[s]
                                      : "slot" + std::to_string(s))
         << "=" << rt_to_string(f.slots[s]);
    }
    os << "\n";
  }
  return os.str();
}

Machine::HeapStats Machine::heap_stats() const noexcept {
  HeapStats stats;
  stats.objects = heap_.size();
  for (const auto& [id, obj] : heap_) stats.cells += obj.cells.size();
  return stats;
}

// --- native frame image -------------------------------------------------------

namespace {
constexpr std::uint32_t kImageMagic = 0x41524149;  // "ARAI" (AR image)

void write_rt_value(support::ByteWriter& w, const RtValue& v,
                    std::uint32_t padding) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    w.put_u8(0);
    w.put_u64(static_cast<std::uint64_t>(*i));
  } else if (const auto* d = std::get_if<double>(&v)) {
    w.put_u8(1);
    w.put_f64(*d);
  } else if (const auto* s = std::get_if<std::string>(&v)) {
    w.put_u8(2);
    w.put_string(*s);
  } else {
    const Ref& r = std::get<Ref>(v);
    w.put_u8(3);
    w.put_u8(static_cast<std::uint8_t>(r.kind));
    w.put_u64(r.a);
    w.put_u64(r.b);
  }
  for (std::uint32_t p = 0; p < padding; ++p) w.put_u8(0);
}

RtValue read_rt_value(support::ByteReader& r, std::uint32_t padding) {
  RtValue v;
  switch (r.get_u8()) {
    case 0:
      v = static_cast<std::int64_t>(r.get_u64());
      break;
    case 1:
      v = r.get_f64();
      break;
    case 2:
      v = r.get_string();
      break;
    case 3: {
      Ref ref;
      ref.kind = static_cast<Ref::Kind>(r.get_u8());
      ref.a = r.get_u64();
      ref.b = r.get_u64();
      v = ref;
      break;
    }
    default:
      throw VmError("corrupt frame image: bad value tag");
  }
  for (std::uint32_t p = 0; p < padding; ++p) (void)r.get_u8();
  return v;
}
}  // namespace

std::vector<std::uint8_t> Machine::raw_frame_image() const {
  support::ByteWriter w(arch_.byte_order);
  w.put_u32(kImageMagic);
  w.put_u32(static_cast<std::uint32_t>(globals_.size()));
  for (const auto& g : globals_) write_rt_value(w, g, arch_.slot_padding);
  w.put_u32(static_cast<std::uint32_t>(frames_.size()));
  for (const auto& f : frames_) {
    w.put_u32(f.fn);
    w.put_u32(f.pc);
    w.put_u64(f.id);
    w.put_u32(static_cast<std::uint32_t>(f.slots.size()));
    for (const auto& s : f.slots) write_rt_value(w, s, arch_.slot_padding);
    w.put_u32(static_cast<std::uint32_t>(f.stack.size()));
    for (const auto& s : f.stack) write_rt_value(w, s, arch_.slot_padding);
  }
  return std::move(w).take();
}

void Machine::restore_raw_frame_image(std::span<const std::uint8_t> bytes) {
  support::ByteReader r(bytes, arch_.byte_order);
  if (r.get_u32() != kImageMagic) {
    throw VmError(
        "frame image rejected: magic number mismatch (the image was made on "
        "an architecture with a different byte order)");
  }
  auto nglobals = r.get_u32();
  if (nglobals != globals_.size()) {
    throw VmError("frame image global count mismatch");
  }
  for (auto& g : globals_) g = read_rt_value(r, arch_.slot_padding);
  auto nframes = r.get_u32();
  if (nframes == 0 || nframes > 100'000) {
    throw VmError("frame image corrupt: implausible frame count");
  }
  std::vector<Frame> frames;
  for (std::uint32_t i = 0; i < nframes; ++i) {
    Frame f;
    f.fn = r.get_u32();
    if (f.fn >= prog_->functions.size()) {
      throw VmError("frame image corrupt: bad function index");
    }
    f.pc = r.get_u32();
    f.id = r.get_u64();
    if (!frames.empty() && f.id <= frames.back().id) {
      throw VmError(
          "frame image corrupt: frame ids must ascend from the bottom of the "
          "stack");
    }
    auto nslots = r.get_u32();
    for (std::uint32_t s = 0; s < nslots; ++s) {
      f.slots.push_back(read_rt_value(r, arch_.slot_padding));
    }
    auto nstack = r.get_u32();
    for (std::uint32_t s = 0; s < nstack; ++s) {
      f.stack.push_back(read_rt_value(r, arch_.slot_padding));
    }
    frames.push_back(std::move(f));
  }
  frames_ = std::move(frames);
  next_frame_id_ = frames_.back().id + 1;
  state_ = RunState::kRunnable;
}

// --- snapshot (checkpointing baseline) ----------------------------------------

struct Machine::Snapshot {
  std::vector<RtValue> globals;
  std::vector<Frame> frames;
  std::map<std::uint64_t, HeapObject> heap;
  std::uint64_t next_frame_id = 1;
  std::uint64_t next_heap_id = 1;
  std::int32_t signal_handler_fn = -1;
  RunState state = RunState::kRunnable;
  std::uint64_t size_estimate = 0;
};

namespace {
std::size_t value_size(const RtValue& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return 5 + s->size();
  return 9;
}
}  // namespace

std::shared_ptr<Machine::Snapshot> Machine::checkpoint() const {
  auto snap = std::make_shared<Snapshot>();
  snap->globals = globals_;
  snap->frames = frames_;
  snap->heap = heap_;
  snap->next_frame_id = next_frame_id_;
  snap->next_heap_id = next_heap_id_;
  snap->signal_handler_fn = signal_handler_fn_;
  snap->state = state_;
  std::size_t size = 0;
  for (const auto& g : snap->globals) size += value_size(g);
  for (const auto& f : snap->frames) {
    size += 20;
    for (const auto& s : f.slots) size += value_size(s);
    for (const auto& s : f.stack) size += value_size(s);
  }
  for (const auto& [id, obj] : snap->heap) {
    size += 12;
    for (const auto& c : obj.cells) size += value_size(c);
  }
  snap->size_estimate = size;
  return snap;
}

void Machine::rollback(const Snapshot& snapshot) {
  globals_ = snapshot.globals;
  frames_ = snapshot.frames;
  heap_ = snapshot.heap;
  next_frame_id_ = snapshot.next_frame_id;
  next_heap_id_ = snapshot.next_heap_id;
  signal_handler_fn_ = snapshot.signal_handler_fn;
  state_ = snapshot.state == RunState::kDone ? RunState::kDone
                                             : RunState::kRunnable;
  fault_message_.clear();
  capture_buf_.clear();
  restore_buf_.reset();
}

std::size_t Machine::snapshot_size(const Snapshot& snapshot) {
  return snapshot.size_estimate;
}

}  // namespace surgeon::vm
