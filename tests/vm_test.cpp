#include <gtest/gtest.h>

#include "vm/compiler.hpp"
#include "vm/machine.hpp"

namespace surgeon::vm {
namespace {

using support::VmError;

/// Compiles and runs a standalone program to completion; returns the machine.
std::unique_ptr<Machine> run_program(const std::string& src,
                                     net::Arch arch = net::arch_vax()) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(src));
  auto m = std::make_unique<Machine>(*prog, arch);
  // Keep the program alive alongside the machine.
  static std::vector<std::shared_ptr<CompiledProgram>> keepalive;
  keepalive.push_back(prog);
  m->run(50'000'000);
  return m;
}

void expect_done(const Machine& m) {
  EXPECT_EQ(m.state(), RunState::kDone)
      << run_state_name(m.state()) << ": " << m.fault_message();
}

TEST(Vm, ArithmeticAndPrint) {
  auto m = run_program(R"(
void main() {
  int a; float b;
  a = (7 + 3) * 2 - 9 / 2;   // 20 - 4 = 16
  b = 7.0 / 2.0;
  print(a, b, 10 % 3, -a, !0, !5);
}
)");
  expect_done(*m);
  ASSERT_EQ(m->output().size(), 1u);
  EXPECT_EQ(m->output()[0], "16 3.5 1 -16 1 0");
}

TEST(Vm, NumericPromotionAndCasts) {
  auto m = run_program(R"(
void main() {
  float f; int i;
  f = 1;            // int -> float on assignment
  f = f + 1;        // promotion inside arithmetic
  i = (int)(f * 2.5);
  print(f, i);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "2 5");
}

TEST(Vm, StringOperations) {
  auto m = run_program(R"(
void main() {
  string s;
  s = "ab" + "cd";
  print(s, s == "abcd", s != "abcd", s < "b", "zz" > "za");
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "abcd 1 0 1 1");
}

TEST(Vm, ControlFlowWhileIfGoto) {
  auto m = run_program(R"(
void main() {
  int i; int sum;
  i = 0; sum = 0;
  while (i < 10) {
    if (i % 2 == 0) { sum = sum + i; }
    else { sum = sum - 1; }
    i = i + 1;
  }
  goto skip;
  sum = 0;
skip:
  print(sum);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "15");  // 0+2+4+6+8 - 5
}

TEST(Vm, ForLoopSemantics) {
  auto m = run_program(R"(
void main() {
  int sum;
  sum = 0;
  for (int i = 1; i <= 5; i = i + 1) { sum = sum + i; }
  print(sum);                     // 15
  for (sum = 0; sum < 7; sum = sum + 3) ;
  print(sum);                     // 9
  sum = 0;
  for (;;) {
    sum = sum + 1;
    if (sum >= 4) { break; }
  }
  print(sum);                     // 4
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output(),
            (std::vector<std::string>{"15", "9", "4"}));
}

TEST(Vm, ContinueExecutesTheStep) {
  // The classic for/continue pitfall: continue must run the step, or the
  // loop never advances.
  auto m = run_program(R"(
void main() {
  int evens;
  evens = 0;
  for (int i = 0; i < 10; i = i + 1) {
    if (i % 2 == 1) { continue; }
    evens = evens + 1;
  }
  print(evens);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "5");
}

TEST(Vm, ContinueInWhileRechecksCondition) {
  auto m = run_program(R"(
void main() {
  int i; int hits;
  i = 0; hits = 0;
  while (i < 10) {
    i = i + 1;
    if (i % 3 != 0) { continue; }
    hits = hits + 1;
  }
  print(i, hits);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "10 3");
}

TEST(Vm, NestedLoopsBreakInnermostOnly) {
  auto m = run_program(R"(
void main() {
  int count;
  count = 0;
  for (int i = 0; i < 3; i = i + 1) {
    for (int j = 0; j < 10; j = j + 1) {
      if (j == 2) { break; }
      count = count + 1;
    }
  }
  print(count);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "6");  // 3 outer x 2 inner
}

TEST(Vm, ShortCircuitEvaluation) {
  // The right operand of && / || must not evaluate when short-circuited;
  // here evaluating it would fault (division by zero).
  auto m = run_program(R"(
void main() {
  int z;
  z = 0;
  print(0 && 1 / z, 1 || 1 / z);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "0 1");
}

TEST(Vm, RecursionComputesFactorial) {
  auto m = run_program(R"(
int fact(int n) {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
void main() { print(fact(10)); }
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "3628800");
}

TEST(Vm, PointerOutParamsThroughCalls) {
  auto m = run_program(R"(
void inner(float *rp) { *rp = *rp + 0.5; }
void outer(float *rp) { inner(rp); inner(rp); }
void main() {
  float x;
  x = 1.0;
  outer(&x);
  print(x);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "2");
}

TEST(Vm, GlobalsSharedAcrossCalls) {
  auto m = run_program(R"(
int counter = 5;
void bump() { counter = counter + 1; }
void main() { bump(); bump(); print(counter); }
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "7");
  EXPECT_EQ(std::get<std::int64_t>(m->global("counter")), 7);
}

TEST(Vm, HeapAllocIndexFree) {
  auto m = run_program(R"(
void main() {
  int* v; int i; int sum;
  v = mh_alloc_int(5);
  i = 0;
  while (i < 5) { v[i] = i * i; i = i + 1; }
  sum = 0;
  i = 0;
  while (i < 5) { sum = sum + v[i]; i = i + 1; }
  print(sum, *v, v[4]);
  mh_free(v);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "30 0 16");
  EXPECT_EQ(m->heap_stats().objects, 0u);
}

TEST(Vm, NullPointerComparisons) {
  auto m = run_program(R"(
void main() {
  int* p;
  print(p == null);
  p = mh_alloc_int(1);
  print(p == null, p != null);
  mh_free(p);
}
)");
  expect_done(*m);
  EXPECT_EQ(m->output()[0], "1");
  EXPECT_EQ(m->output()[1], "0 1");
}

struct FaultCase {
  const char* name;
  const char* source;
  const char* expect_substring;
};

class VmFaults : public ::testing::TestWithParam<FaultCase> {};

TEST_P(VmFaults, FaultsWithDiagnostic) {
  auto m = run_program(GetParam().source);
  EXPECT_EQ(m->state(), RunState::kFault) << GetParam().name;
  EXPECT_NE(m->fault_message().find(GetParam().expect_substring),
            std::string::npos)
      << "actual: " << m->fault_message();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, VmFaults,
    ::testing::Values(
        FaultCase{"div_zero", "void main() { int z; z = 0; print(1 / z); }",
                  "division by zero"},
        FaultCase{"mod_zero", "void main() { int z; z = 0; print(1 % z); }",
                  "modulo by zero"},
        FaultCase{"null_deref",
                  "void main() { int* p; print(*p); }",
                  "null pointer"},
        FaultCase{"null_store",
                  "void main() { int* p; *p = 1; }",
                  "null pointer"},
        FaultCase{"use_after_free",
                  "void main() { int* p; p = mh_alloc_int(1); mh_free(p); "
                  "print(*p); }",
                  "dangling heap pointer"},
        FaultCase{"double_free",
                  "void main() { int* p; p = mh_alloc_int(1); mh_free(p); "
                  "mh_free(p); }",
                  "double free"},
        FaultCase{"oob_index",
                  "void main() { int* p; p = mh_alloc_int(2); print(p[5]); }",
                  "out of bounds"},
        FaultCase{"negative_index",
                  "void main() { int* p; int i; i = -1; p = mh_alloc_int(2); "
                  "print(p[i]); }",
                  "negative pointer index"},
        // The second call to f reuses the first one's frame storage at the
        // same stack depth; the pointer into the dead frame must not
        // resolve to it.
        FaultCase{"dangling_frame_pointer",
                  "int* gp; void f(int n) { int x; x = n; "
                  "if (n == 1) { gp = &x; } else { print(*gp); } } "
                  "void main() { f(1); f(2); }",
                  "dangling pointer"},
        FaultCase{"stack_overflow",
                  "void f() { f(); } void main() { f(); }",
                  "stack overflow"},
        FaultCase{"bus_builtin_standalone",
                  "void main() { int x; mh_read(\"a\", \"i\", &x); }",
                  "requires a software bus"},
        FaultCase{"restore_without_decode",
                  "void main() { int x; mh_restore(\"i\", &x); }",
                  "before mh_decode"},
        FaultCase{"random_bad_bound",
                  "void main() { print(random(0)); }",
                  "bound must be positive"},
        FaultCase{"alloc_negative",
                  "void main() { int* p; int n; n = -3; "
                  "p = mh_alloc_int(n); }",
                  "bad size"}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      return info.param.name;
    });

TEST(Vm, FaultStateIsSticky) {
  auto m = run_program("void main() { int z; z = 0; print(1 / z); }");
  EXPECT_EQ(m->state(), RunState::kFault);
  auto r = m->step(100);
  EXPECT_EQ(r.state, RunState::kFault);
  EXPECT_EQ(r.instructions, 0u);
}

TEST(Vm, DanglingFrameRefFaults) {
  // A pointer to a local escapes via a global, and the frame dies: C would
  // silently corrupt memory; the VM faults at the dereference.
  auto m = run_program(R"(
int* gp;
void f() { int x; x = 3; gp = &x; }
void main() { f(); print(*gp); }
)");
  EXPECT_EQ(m->state(), RunState::kFault);
  EXPECT_NE(m->fault_message().find("activation record no longer exists"),
            std::string::npos);
}

TEST(Vm, SleepSuspendsAndResumes) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
void main() { print("a"); sleep(3); print("b"); }
)"));
  Machine m(*prog, net::arch_vax());
  auto r = m.step(1000);
  EXPECT_EQ(r.state, RunState::kSleeping);
  EXPECT_EQ(r.sleep_us, 3'000'000u);
  EXPECT_EQ(m.output().size(), 1u);
  r = m.step(1000);
  EXPECT_EQ(r.state, RunState::kDone);
  EXPECT_EQ(m.output().size(), 2u);
}

TEST(Vm, StepBudgetIsHonored) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
void main() { int i; i = 0; while (1) { i = i + 1; } }
)"));
  Machine m(*prog, net::arch_vax());
  auto r = m.step(1000);
  EXPECT_EQ(r.state, RunState::kRunnable);
  EXPECT_EQ(r.instructions, 1000u);
  EXPECT_EQ(m.instructions_executed(), 1000u);
}

TEST(Vm, SignalHandlerRunsAtStatementBoundary) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
int hits = 0;
void handler() { hits = hits + 1; }
void main() {
  int i;
  mh_signal(handler);
  i = 0;
  while (i < 100) { i = i + 1; }
  print(hits);
}
)"));
  Machine m(*prog, net::arch_vax());
  (void)m.step(50);
  m.raise_signal();
  m.run(1'000'000);
  EXPECT_EQ(m.state(), RunState::kDone);
  EXPECT_EQ(m.output()[0], "1");
}

TEST(Vm, SignalWithoutHandlerIsHeldUntilRegistered) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
int hits = 0;
void handler() { hits = hits + 1; }
void main() {
  int i;
  i = 0;
  while (i < 10) { i = i + 1; }   // signal raised here, no handler yet
  mh_signal(handler);
  i = 0;
  while (i < 10) { i = i + 1; }
  print(hits);
}
)"));
  Machine m(*prog, net::arch_vax());
  (void)m.step(20);
  m.raise_signal();
  m.run(1'000'000);
  EXPECT_EQ(m.state(), RunState::kDone);
  EXPECT_EQ(m.output()[0], "1");
}

TEST(Vm, CaptureEncodeStandalone) {
  auto m = run_program(R"(
void main() {
  int a; float b;
  a = 42; b = 2.5;
  mh_capture("iF", a, b);
  mh_capture("i", 7);
  mh_encode();
}
)");
  expect_done(*m);
  const auto& state = m->last_encoded_state();
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(state->frame_count(), 2u);
  EXPECT_EQ(state->frames()[0].values[0].as_int(), 42);
  EXPECT_DOUBLE_EQ(state->frames()[0].values[1].as_real(), 2.5);
  EXPECT_EQ(state->frames()[1].values[0].as_int(), 7);
}

TEST(Vm, DecodeRestoreStandalone) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
void main() {
  int a; float b;
  mh_decode();
  mh_restore("iF", &a, &b);
  print(a, b);
}
)"));
  Machine m(*prog, net::arch_vax());
  ser::StateBuffer state;
  state.push_frame(
      ser::StateFrame{{ser::Value(std::int64_t{9}), ser::Value(1.25)}});
  m.inject_incoming_state(std::move(state));
  m.run(1'000'000);
  EXPECT_EQ(m.state(), RunState::kDone);
  EXPECT_EQ(m.output()[0], "9 1.25");
}

TEST(Vm, DecodeBlocksUntilStateArrives) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
void main() { mh_decode(); print("resumed"); }
)"));
  Machine m(*prog, net::arch_vax());
  auto r = m.step(1000);
  EXPECT_EQ(r.state, RunState::kBlockedDecode);
  ser::StateBuffer state;
  m.inject_incoming_state(std::move(state));
  r = m.step(1000);
  EXPECT_EQ(r.state, RunState::kDone);
}

TEST(Vm, HeapSwizzleRoundTrip) {
  // Capture a linked pair of heap objects via 'p' format, restore in a
  // machine of the opposite architecture, and follow the pointers.
  auto prog1 = std::make_shared<CompiledProgram>(compile_source(R"(
void main() {
  int* head; int* tail;
  tail = mh_alloc_int(2);
  tail[0] = 30; tail[1] = 40;
  head = mh_alloc_int(2);
  head[0] = 20;
  mh_capture("pp", head, tail);
  mh_encode();
}
)"));
  Machine producer(*prog1, net::arch_vax());
  producer.run(1'000'000);
  ASSERT_EQ(producer.state(), RunState::kDone) << producer.fault_message();
  auto state = *producer.last_encoded_state();
  EXPECT_EQ(state.heap().size(), 2u);

  auto prog2 = std::make_shared<CompiledProgram>(compile_source(R"(
void main() {
  int* head; int* tail;
  mh_decode();
  mh_restore("pp", &head, &tail);
  print(head[0], tail[0], tail[1]);
}
)"));
  Machine consumer(*prog2, net::arch_sparc());
  consumer.inject_incoming_state(std::move(state));
  consumer.run(1'000'000);
  ASSERT_EQ(consumer.state(), RunState::kDone) << consumer.fault_message();
  EXPECT_EQ(consumer.output()[0], "20 30 40");
}

TEST(Vm, CaptureOfStackPointerFaults) {
  // Pointers into activation records are not expressible in the abstract
  // state (the paper's noted difficulty); the capture faults loudly rather
  // than producing a corrupt state.
  auto m = run_program(R"(
void main() {
  int x; int* p;
  p = &x;
  mh_capture("p", p);
}
)");
  EXPECT_EQ(m->state(), RunState::kFault);
  EXPECT_NE(m->fault_message().find("abstract state format"),
            std::string::npos);
}

TEST(Vm, RawFrameImageRoundTripsSameArch) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
void deep(int n) { if (n > 0) { deep(n - 1); } sleep(1); print(n); }
void main() { deep(3); }
)"));
  Machine m(*prog, net::arch_vax());
  // Run until the innermost frame sleeps: 5 frames on the stack.
  while (m.state() != RunState::kSleeping) (void)m.step(1);
  EXPECT_EQ(m.stack_depth(), 5u);
  auto image = m.raw_frame_image();

  Machine clone(*prog, net::arch_vax());
  clone.restore_raw_frame_image(image);
  // Each restored frame still has its own sleep(1) ahead; keep stepping
  // through the sleeps until the program completes.
  for (int i = 0; i < 100 && clone.state() != RunState::kDone &&
                  clone.state() != RunState::kFault;
       ++i) {
    (void)clone.step(1'000'000);
  }
  EXPECT_EQ(clone.state(), RunState::kDone) << clone.fault_message();
  ASSERT_EQ(clone.output().size(), 4u);
  EXPECT_EQ(clone.output()[0], "0");
  EXPECT_EQ(clone.output()[3], "3");
}

TEST(Vm, RawFrameImageFailsAcrossArchitectures) {
  // The binary-copy baseline: a native frame image made on a little-endian
  // machine is rejected or garbled on a big-endian one. This negative
  // result is why the abstract state format exists (Section 1.2).
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
void deep(int n) { if (n > 0) { deep(n - 1); } sleep(1); print(n); }
void main() { deep(3); }
)"));
  Machine m(*prog, net::arch_vax());
  while (m.state() != RunState::kSleeping) (void)m.step(1);
  auto image = m.raw_frame_image();

  Machine clone(*prog, net::arch_sparc());
  EXPECT_THROW(clone.restore_raw_frame_image(image), VmError);
}

TEST(Vm, RawFrameImageRejectsNonAscendingFrameIds) {
  // Frame pointers resolve by binary search over ids that ascend up the
  // stack, so an image whose ids repeat or go backwards is refused rather
  // than left to alias two frames under one id.
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
void inner() { sleep(1); }
void outer() { inner(); }
void main() { outer(); }
)"));
  Machine m(*prog, net::arch_vax());
  while (m.state() != RunState::kSleeping) (void)m.step(1);
  ASSERT_EQ(m.stack_depth(), 3u);
  const auto image = m.raw_frame_image();
  // No globals, slots or operands: a 12-byte header (magic, global count,
  // frame count), then 24 bytes per frame (fn, pc, id, slot count, operand
  // count) with the id at offset 8. Frame ids are 1, 2, 3 bottom to top.
  ASSERT_EQ(image.size(), 12u + 3u * 24u);
  auto with_top_id = [&](std::uint64_t id) {
    auto patched = image;
    for (std::size_t i = 0; i < 8; ++i) {  // vax is little-endian
      patched[12 + 2 * 24 + 8 + i] = static_cast<std::uint8_t>(id >> (8 * i));
    }
    return patched;
  };

  Machine ascending(*prog, net::arch_vax());
  EXPECT_NO_THROW(ascending.restore_raw_frame_image(with_top_id(7)));
  Machine repeated(*prog, net::arch_vax());
  EXPECT_THROW(repeated.restore_raw_frame_image(with_top_id(2)), VmError);
  Machine backwards(*prog, net::arch_vax());
  EXPECT_THROW(backwards.restore_raw_frame_image(with_top_id(1)), VmError);
}

TEST(Vm, CheckpointRollbackRestoresEverything) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
int g = 0;
void main() {
  int i;
  int* h;
  h = mh_alloc_int(1);
  i = 0;
  while (i < 100) {
    g = g + 1;
    h[0] = h[0] + 2;
    i = i + 1;
  }
  print(g, h[0]);
}
)"));
  Machine m(*prog, net::arch_vax());
  (void)m.step(200);
  auto snap = m.checkpoint();
  auto g_at_snap = std::get<std::int64_t>(m.global("g"));
  (void)m.step(200);
  EXPECT_GT(std::get<std::int64_t>(m.global("g")), g_at_snap);
  m.rollback(*snap);
  EXPECT_EQ(std::get<std::int64_t>(m.global("g")), g_at_snap);
  m.run(10'000'000);
  EXPECT_EQ(m.state(), RunState::kDone);
  EXPECT_EQ(m.output()[0], "100 200");
  EXPECT_GT(Machine::snapshot_size(*snap), 0u);
}

TEST(Vm, DeterministicAcrossRuns) {
  const char* src = R"(
void main() {
  int i;
  i = 0;
  while (i < 10) { print(random(100)); i = i + 1; }
}
)";
  auto m1 = run_program(src);
  auto m2 = run_program(src);
  EXPECT_EQ(m1->output(), m2->output());
}

TEST(Vm, DumpStackShowsFramesAndSlots) {
  auto prog = std::make_shared<CompiledProgram>(compile_source(R"(
void inner(int depth) { sleep(1); }
void outer(int x) { inner(x + 1); }
void main() { outer(41); }
)"));
  Machine m(*prog, net::arch_vax());
  while (m.state() != RunState::kSleeping) (void)m.step(1);
  std::string dump = m.dump_stack();
  EXPECT_NE(dump.find("#0 inner"), std::string::npos) << dump;
  EXPECT_NE(dump.find("depth=42"), std::string::npos) << dump;
  EXPECT_NE(dump.find("outer"), std::string::npos);
  EXPECT_NE(dump.find("x=41"), std::string::npos);
  EXPECT_NE(dump.find("main"), std::string::npos);
}

TEST(Vm, DisassemblerCoversProgram) {
  auto prog = compile_source("void main() { int x; x = 1 + 2; print(x); }");
  std::string dis = prog.disassemble();
  EXPECT_NE(dis.find("main"), std::string::npos);
  EXPECT_NE(dis.find("push_const"), std::string::npos);
  EXPECT_NE(dis.find("store_slot"), std::string::npos);
  EXPECT_GT(prog.total_instructions(), 5u);
}

}  // namespace
}  // namespace surgeon::vm
