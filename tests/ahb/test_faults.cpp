// Fault-injection tests: RETRY/ERROR/SPLIT responses from a faulty slave
// (the FaultySlave suite: a MemorySlave under the every-Nth cadence hook
// test::fail_every), the scripted master's retry machinery, and the
// default slave's error responses.

#include <gtest/gtest.h>

#include "ahb/ahb.hpp"
#include "power/estimator.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

using sim::SimError;
using test::Bench;
using test::fail_every;
using Op = ScriptedMaster::Op;

Op write_op(std::uint32_t addr, std::uint32_t data) {
  return Op{Op::Kind::kWrite, addr, data, 0};
}
Op read_op(std::uint32_t addr) { return Op{Op::Kind::kRead, addr, 0, 0}; }

TEST(FaultySlave, RejectsBadConfigs) {
  Bench b;
  EXPECT_THROW(MemorySlave(&b.top, "f1", b.bus, {.size = 6}), SimError);
  // A SPLIT cadence with the default resume delay is accepted.  (A fresh
  // address range: the throwing constructor above already claimed the
  // default one in the decoder before its config check fired.)
  EXPECT_NO_THROW(MemorySlave(&b.top, "f5", b.bus,
                              {.base = 0x4000, .fault_hook = fail_every(1, Resp::kSplit)}));
}

TEST(FaultySlave, RetryResponseReachesMaster) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  // Every transfer fails -> a non-retrying master records the RETRY.
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x10, 1)},
                   ScriptedMaster::Options{.retry = false});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(1)});
  b.bus.finalize();
  b.run_cycles(30);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 1u);
  EXPECT_EQ(m.results()[0].resp, Resp::kRetry);
  EXPECT_EQ(fs.stats().retries, 1u);
  EXPECT_EQ(fs.stats().writes, 0u);
}

TEST(FaultySlave, RetryingMasterEventuallySucceeds) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x20, 0xBEEF), read_op(0x20)},
                   ScriptedMaster::Options{.retry = true});
  // Every 2nd transfer fails: first write attempt fails, retry succeeds...
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(2)});
  b.bus.finalize();
  BusMonitor::Config cfg{.fatal = false};
  BusMonitor mon(&b.top, "mon", b.bus, cfg);

  b.run_cycles(100);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_EQ(m.results()[0].resp, Resp::kOkay);
  EXPECT_EQ(m.results()[1].resp, Resp::kOkay);
  EXPECT_EQ(m.results()[1].data, 0xBEEFu);
  EXPECT_GT(m.retries(), 0u);
  EXPECT_EQ(fs.peek(0x20), 0xBEEFu);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(FaultySlave, MaxRetriesGivesUp) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x10, 1)},
                   ScriptedMaster::Options{.retry = true, .max_retries = 3});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(1)});  // always fails
  b.bus.finalize();
  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.retries(), 3u);
  EXPECT_EQ(m.results()[0].resp, Resp::kRetry);  // gave up, recorded RETRY
}

TEST(FaultySlave, ErrorsAreNotRetried) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x10, 1), read_op(0x14)},
                   ScriptedMaster::Options{.retry = true});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(2, Resp::kError)});
  b.bus.finalize();
  b.run_cycles(100);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_EQ(m.retries(), 0u);
  // Exactly one of the two transfers hit the every-2nd failure.
  const int errors = (m.results()[0].resp == Resp::kError ? 1 : 0) +
                     (m.results()[1].resp == Resp::kError ? 1 : 0);
  EXPECT_EQ(errors, 1);
}

TEST(FaultySlave, FailureCadenceIsExact) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  std::vector<Op> script;
  for (int i = 0; i < 9; ++i) script.push_back(write_op(0x100 + 4 * i, i));
  ScriptedMaster m(&b.top, "m", b.bus, script,
                   ScriptedMaster::Options{.retry = false});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(3)});
  b.bus.finalize();
  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(fs.stats().retries, 3u);   // transfers 3, 6, 9
  EXPECT_EQ(fs.stats().writes, 6u);
}

TEST(FaultySlave, SplitReworkEventuallySucceeds) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x30, 0xCAFE), read_op(0x30)},
                   ScriptedMaster::Options{.retry = true});
  // Every 2nd transfer SPLITs: the arbiter masks the master, the slave's
  // resume countdown re-grants it, and the re-issued transfer lands.
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0, .size = 0x1000, .fault_hook = fail_every(2, Resp::kSplit, 3)});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});

  b.run_cycles(200);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 2u);
  EXPECT_EQ(m.results()[0].resp, Resp::kOkay);
  EXPECT_EQ(m.results()[1].resp, Resp::kOkay);
  EXPECT_EQ(m.results()[1].data, 0xCAFEu);
  EXPECT_GT(m.splits(), 0u);
  EXPECT_EQ(fs.peek(0x30), 0xCAFEu);
  EXPECT_GT(b.bus.arbiter().split_count(), 0u);
  EXPECT_EQ(b.bus.arbiter().split_mask(), 0u);  // every split resumed
  EXPECT_TRUE(mon.violations().empty()) << mon.violations()[0];
  EXPECT_GT(mon.stats().split_responses, 0u);
}

TEST(FaultySlave, SplitRetryExhaustionGivesUp) {
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus, {write_op(0x10, 1)},
                   ScriptedMaster::Options{.retry = true, .max_retries = 3});
  MemorySlave fs(&b.top, "fs", b.bus,
                 {.base = 0,
                  .size = 0x1000,
                  .fault_hook = fail_every(1, Resp::kSplit, 2)});  // always SPLITs
  b.bus.finalize();
  b.run_cycles(300);
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.retries(), 3u);
  EXPECT_EQ(m.splits(), 3u);
  EXPECT_EQ(m.results()[0].resp, Resp::kSplit);  // gave up, recorded SPLIT
  EXPECT_EQ(fs.stats().writes, 0u);
}

TEST(DefaultSlave, BackToBackUnmappedTransfersAllError) {
  // A pipelined master shows the next unmapped address phase during the
  // second ERROR cycle; the default slave must accept it at that edge.
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  ScriptedMaster m(&b.top, "m", b.bus,
                   {write_op(0x8000, 1), write_op(0x8004, 2), write_op(0x8008, 3)},
                   ScriptedMaster::Options{.retry = false});
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(60);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m.results()[i].resp, Resp::kError) << "op " << i;
  }
  EXPECT_EQ(mon.stats().error_responses, 3u);
  EXPECT_TRUE(mon.violations().empty()) << mon.violations()[0];
}

TEST(MemorySlave, FaultHookInjectsSplitRework) {
  // The MemorySlave hook path: every 3rd transfer SPLITs, everything
  // retried to completion, memory ends up consistent.
  Bench b;
  DefaultMaster dm(&b.top, "dm", b.bus);
  std::vector<Op> script;
  for (int i = 0; i < 6; ++i) script.push_back(write_op(0x100 + 4 * i, 0xB0 + i));
  for (int i = 0; i < 6; ++i) script.push_back(read_op(0x100 + 4 * i));
  ScriptedMaster m(&b.top, "m", b.bus, script,
                   ScriptedMaster::Options{.retry = true, .max_retries = 8});
  MemorySlave ms(&b.top, "ms", b.bus,
                 {.base = 0,
                  .size = 0x1000,
                  .wait_states = 0,
                  .fault_hook = [](const FaultQuery& q) {
                    FaultDecision d;
                    if (q.transfer_index % 3 == 2) {
                      d.resp = Resp::kSplit;
                      d.split_resume_cycles = 2;
                    }
                    return d;
                  }});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(400);
  ASSERT_TRUE(m.finished());
  ASSERT_EQ(m.results().size(), script.size());
  for (std::size_t i = 0; i < m.results().size(); ++i) {
    EXPECT_EQ(m.results()[i].resp, Resp::kOkay) << "op " << i;
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ms.peek(0x100 + 4 * i), 0xB0u + static_cast<unsigned>(i));
  }
  EXPECT_GT(ms.stats().splits, 0u);
  EXPECT_TRUE(mon.violations().empty()) << mon.violations()[0];
}

TEST(FaultySlave, PowerAnalysisSeesRetryTraffic) {
  // Failure cycles are bus activity too: the estimator keeps working and
  // records extra energy relative to a clean run.
  auto run = [](unsigned fail_every_n) {
    Bench b;
    DefaultMaster dm(&b.top, "dm", b.bus);
    std::vector<Op> script;
    for (int i = 0; i < 16; ++i) script.push_back(write_op(0x100 + 4 * i, 0xA0 + i));
    ScriptedMaster m(&b.top, "m", b.bus, script,
                     ScriptedMaster::Options{.retry = true});
    MemorySlave fs(&b.top, "fs", b.bus,
                   {.base = 0, .size = 0x1000, .fault_hook = fail_every(fail_every_n)});
    b.bus.finalize();
    power::AhbPowerEstimator est(&b.top, "pwr", b.bus);
    b.run_cycles(400);
    return est.total_energy();
  };
  const double clean = run(1000000);  // effectively never fails
  const double faulty = run(2);
  EXPECT_GT(faulty, clean);
}

}  // namespace
}  // namespace ahbp::ahb
