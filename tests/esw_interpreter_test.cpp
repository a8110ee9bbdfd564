// Tests for the C2SystemC lowering and the derived-model interpreter.
#include <gtest/gtest.h>

#include "esw/esw_model.hpp"
#include "esw/esw_program.hpp"
#include "esw/interpreter.hpp"
#include "flash/flash_controller.hpp"
#include "minic/sema.hpp"
#include "sctc/checker.hpp"

namespace esv::esw {
namespace {

/// Test fixture bundling program + lowering + memory + interpreter.
struct Runner {
  explicit Runner(const std::string& source,
                  minic::InputProvider* provider = nullptr)
      : program(minic::compile(source)),
        lowered(lower_program(program)),
        memory(0x10000),
        interp(program, lowered, memory,
               provider != nullptr ? *provider : zero_inputs) {}

  /// Runs to completion (with a safety budget).
  void run(std::uint64_t budget = 100000) {
    interp.run(budget);
    ASSERT_TRUE(interp.finished()) << "program did not finish in budget";
  }

  minic::Program program;
  EswProgram lowered;
  mem::AddressSpace memory;
  minic::ZeroInputProvider zero_inputs;
  Interpreter interp;
};

TEST(EswLoweringTest, OpCountsAndStructure) {
  Runner r(R"(
    int x;
    void main(void) {
      x = 1;
      if (x == 1) { x = 2; } else { x = 3; }
    }
  )");
  // main: SetFname, Eval, CondJump, Eval, Jump, Eval, Return.
  const auto& ops = r.lowered.functions[0].ops;
  ASSERT_EQ(ops.size(), 7u);
  EXPECT_EQ(ops[0].kind, EswOp::Kind::kSetFname);
  EXPECT_EQ(ops[2].kind, EswOp::Kind::kCondJump);
  EXPECT_EQ(ops[4].kind, EswOp::Kind::kJump);
  EXPECT_EQ(ops.back().kind, EswOp::Kind::kReturn);
}

TEST(EswLoweringTest, CallsExtractedToAnf) {
  Runner r(R"(
    int g;
    int two(void) { return 2; }
    void main(void) { g = two() + three(); }
    int three(void) { return 3; }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("g"), 5u);
}

TEST(EswLoweringTest, ShortCircuitCallRejected) {
  EXPECT_THROW(
      {
        Runner r("int f(void) { return 1; } int x; "
                 "void main(void) { x = x && f(); }");
      },
      LoweringError);
  EXPECT_THROW(
      {
        Runner r("int f(void) { return 1; } int x; "
                 "void main(void) { x = x ? f() : 0; }");
      },
      LoweringError);
}

TEST(EswInterpreterTest, ArithmeticAndGlobals) {
  Runner r(R"(
    int a; int b; int c; int d; int e; int f;
    void main(void) {
      a = 7 + 3 * 2;         // 13
      b = (20 - 5) / 3;      // 5
      c = 17 % 5;            // 2
      d = (1 << 4) | 3;      // 19
      e = ~0 & 0xFF;         // 255
      f = -5 + 2;            // -3
    }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("a"), 13u);
  EXPECT_EQ(r.interp.global("b"), 5u);
  EXPECT_EQ(r.interp.global("c"), 2u);
  EXPECT_EQ(r.interp.global("d"), 19u);
  EXPECT_EQ(r.interp.global("e"), 255u);
  EXPECT_EQ(static_cast<std::int32_t>(r.interp.global("f")), -3);
}

TEST(EswInterpreterTest, SignedComparisonsAndLogic) {
  Runner r(R"(
    int lt; int ge; int land; int lor; int not_;
    void main(void) {
      lt = -1 < 1;
      ge = -1 >= 1;
      land = 2 && 0;
      lor = 0 || 3;
      not_ = !5;
    }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("lt"), 1u);
  EXPECT_EQ(r.interp.global("ge"), 0u);
  EXPECT_EQ(r.interp.global("land"), 0u);
  EXPECT_EQ(r.interp.global("lor"), 1u);
  EXPECT_EQ(r.interp.global("not_"), 0u);
}

TEST(EswInterpreterTest, ControlFlowLoops) {
  Runner r(R"(
    int sum; int fact; int count;
    void main(void) {
      int i;
      sum = 0;
      for (i = 1; i <= 10; i++) { sum += i; }
      fact = 1;
      i = 5;
      while (i > 1) { fact = fact * i; i--; }
      count = 0;
      do { count++; } while (count < 3);
    }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("sum"), 55u);
  EXPECT_EQ(r.interp.global("fact"), 120u);
  EXPECT_EQ(r.interp.global("count"), 3u);
}

TEST(EswInterpreterTest, BreakContinueNested) {
  Runner r(R"(
    int hits;
    void main(void) {
      int i; int j;
      hits = 0;
      for (i = 0; i < 5; i++) {
        if (i == 1) { continue; }
        if (i == 4) { break; }
        for (j = 0; j < 10; j++) {
          if (j == 2) { break; }
          hits++;
        }
      }
    }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("hits"), 6u);  // i in {0,2,3}, 2 inner hits each
}

TEST(EswInterpreterTest, SwitchWithFallthroughAndDefault) {
  Runner r(R"(
    int out0; int out1; int out2; int out9;
    int classify(int v) {
      int r;
      r = 0;
      switch (v) {
        case 0: r = 100; break;
        case 1:          // falls through to 2
        case 2: r = 200; break;
        default: r = 900;
      }
      return r;
    }
    void main(void) {
      out0 = classify(0);
      out1 = classify(1);
      out2 = classify(2);
      out9 = classify(42);
    }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("out0"), 100u);
  EXPECT_EQ(r.interp.global("out1"), 200u);
  EXPECT_EQ(r.interp.global("out2"), 200u);
  EXPECT_EQ(r.interp.global("out9"), 900u);
}

TEST(EswInterpreterTest, RecursionWorks) {
  Runner r(R"(
    int result;
    int fib(int n) {
      if (n < 2) { return n; }
      int a = fib(n - 1);
      int b = fib(n - 2);
      return a + b;
    }
    void main(void) { result = fib(10); }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("result"), 55u);
}

TEST(EswInterpreterTest, ArraysAndIndexing) {
  Runner r(R"(
    int table[5];
    int sum;
    void main(void) {
      int i;
      for (i = 0; i < 5; i++) { table[i] = i * i; }
      sum = 0;
      for (i = 0; i < 5; i++) { sum += table[i]; }
    }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("sum"), 30u);
}

TEST(EswInterpreterTest, FnameTracksCurrentFunction) {
  Runner r(R"(
    int probe1; int probe2;
    void helper(void) { probe1 = fname; }
    void main(void) {
      helper();
      probe2 = fname;
    }
  )");
  const std::uint32_t helper_id = r.program.fname_id("helper");
  const std::uint32_t main_id = r.program.fname_id("main");
  r.run();
  EXPECT_EQ(r.interp.global("probe1"), helper_id);
  EXPECT_EQ(r.interp.global("probe2"), main_id);  // restored after return
}

TEST(EswInterpreterTest, GlobalInitializersApplied) {
  Runner r(R"(
    enum { SEED = 11 };
    int x = SEED;
    int arr[4] = {1, 2, 3};
    int y;
    void main(void) { y = x + arr[0] + arr[1] + arr[2] + arr[3]; }
  )");
  r.run();
  EXPECT_EQ(r.interp.global("y"), 11u + 1 + 2 + 3 + 0);
}

TEST(EswInterpreterTest, ScriptedInputs) {
  class Script : public minic::InputProvider {
   public:
    std::uint32_t input(int, const std::string&) override {
      return values[next_ == values.size() ? values.size() - 1 : next_++];
    }
    std::vector<std::uint32_t> values{10, 20, 30};

   private:
    std::size_t next_ = 0;
  };
  Script script;
  Runner r(R"(
    int total;
    void main(void) {
      total = __in(req) + __in(req) + __in(req);
    }
  )", &script);
  r.run();
  EXPECT_EQ(r.interp.global("total"), 60u);
}

TEST(EswInterpreterTest, AssertFailureThrows) {
  Runner r(R"(
    int x;
    void main(void) {
      x = 3;
      assert(x == 3);
      assert(x == 4);
    }
  )");
  EXPECT_THROW(r.interp.run(1000), AssertionFailure);
}

TEST(EswInterpreterTest, DivisionByZeroFaults) {
  Runner r("int x; void main(void) { x = 1 / (x - x); }");
  EXPECT_THROW(r.interp.run(1000), RuntimeFault);
}

TEST(EswInterpreterTest, ResetRestartsProgram) {
  Runner r("int x; void main(void) { x = x + 1; }");
  r.run();
  EXPECT_EQ(r.interp.global("x"), 1u);
  r.interp.reset();
  EXPECT_FALSE(r.interp.finished());
  r.run();
  EXPECT_EQ(r.interp.global("x"), 1u);  // globals re-initialized
}

TEST(EswInterpreterTest, StepCountsAreStatementLevel) {
  Runner r(R"(
    int x;
    void main(void) {
      x = 1;       // step (+ SetFname step before it)
      x = 2;       // step
      x = 3;       // step
    }
  )");
  // SetFname, three Evals, Return = 5 steps.
  EXPECT_TRUE(r.interp.step());
  EXPECT_TRUE(r.interp.step());
  EXPECT_TRUE(r.interp.step());
  EXPECT_TRUE(r.interp.step());
  EXPECT_FALSE(r.interp.step());  // Return of main ends the program
  EXPECT_EQ(r.interp.steps_executed(), 5u);
}

TEST(EswInterpreterTest, MemoryMappedFlashAccess) {
  flash::FlashConfig cfg;
  cfg.pages = 2;
  cfg.words_per_page = 4;
  cfg.program_busy_ticks = 2;
  flash::FlashController flash_dev(cfg);
  Runner r(R"(
    unsigned status;
    void main(void) {
      // program word 0 = 0xAB via the controller
      *(0xF0000004) = 0;        // ADDR
      *(0xF0000008) = 0xAB;     // DATA
      *(0xF0000000) = 2;        // CMD = PROGRAM_WORD
      status = *(0xF000000C);   // read STATUS (busy)
      while ((*(0xF000000C) & 1) == 1) { status = 1; }
      status = *(0xF000000C);
    }
  )");
  r.memory.map_device(0xF0000000, flash_dev.window_bytes(), flash_dev);
  r.run();
  EXPECT_EQ(flash_dev.word_at(0), 0xABu);
  EXPECT_EQ(r.interp.global("status") & flash::FlashController::kStatusReady,
            flash::FlashController::kStatusReady);
}

TEST(EswModelTest, PcEventDrivesChecker) {
  minic::Program program = minic::compile(R"(
    int x;
    void main(void) {
      x = 1;
      x = 2;
      x = 3;
    }
  )");
  EswProgram lowered = lower_program(program);
  mem::AddressSpace memory(0x10000);
  minic::ZeroInputProvider inputs;
  sim::Simulation sim;
  EswModel model(sim, "esw", program, lowered, memory, inputs);
  sctc::TemporalChecker checker(sim, "sctc");
  checker.register_proposition("x_is_3", [&memory, &program] {
    return memory.sctc_read_uint(program.find_global("x")->address) == 3;
  });
  checker.add_property("reaches3", "F x_is_3");
  checker.bind_trigger(model.pc_event());
  sim.run();
  EXPECT_TRUE(model.finished());
  EXPECT_EQ(checker.validated_count(), 1u);
  // 5 statements = 5 pc events.
  EXPECT_EQ(checker.steps(), 5u);
}

}  // namespace
}  // namespace esv::esw
