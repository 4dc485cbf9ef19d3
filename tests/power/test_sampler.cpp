// The bus's one per-cycle sampler: it exists only once an observer
// attaches, it delivers one view per cycle to every observer in attach
// order, and any number of observers cost the kernel one process
// activation per cycle. Also pins the monitor's statistics, which it
// counts from the sampler's views.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "campaign/system.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp {
namespace {

using campaign::kCycle;

/// Logs which observer ran, in order, and the views it saw.
struct Recorder : ahb::CycleObserver {
  Recorder(int id, std::vector<int>& order) : id(id), order(order) {}
  void on_cycle(const ahb::CycleView& v) override {
    order.push_back(id);
    views.push_back(v);
  }
  int id;
  std::vector<int>& order;
  std::vector<ahb::CycleView> views;
};

TEST(Sampler, NoObserverNoSamplingProcess) {
  // The fabric alone, then the fabric plus one observer: the observer
  // adds exactly one activation, and one falling-edge delta, per sampled
  // cycle (a falling edge nobody listens to costs the kernel nothing).
  std::uint64_t bare_activations = 0, bare_deltas = 0;
  {
    campaign::System bare({.power = false});
    bare.kernel.run(kCycle * 2000);
    bare_activations = bare.kernel.stats().processes_executed;
    bare_deltas = bare.kernel.delta_count();
  }
  campaign::System observed({.power = false});
  std::vector<int> order;
  Recorder r(0, order);
  observed.bus.attach_observer(r);
  observed.kernel.run(kCycle * 2000);
  EXPECT_EQ(r.views.size(), 1999u);
  EXPECT_EQ(observed.kernel.stats().processes_executed - bare_activations,
            r.views.size());
  EXPECT_EQ(observed.kernel.delta_count() - bare_deltas, r.views.size());
}

TEST(Sampler, DeliversOneViewToEveryObserverInAttachOrder) {
  campaign::System s({.power = false});
  std::vector<int> order;
  Recorder a(1, order), b(2, order), c(3, order);
  s.bus.attach_observer(b);
  s.bus.attach_observer(a);
  s.bus.attach_observer(c);
  s.kernel.run(kCycle * 100);
  ASSERT_EQ(order.size(), 3u * 99u);
  for (std::size_t i = 0; i < order.size(); i += 3) {
    EXPECT_EQ(order[i], 2);
    EXPECT_EQ(order[i + 1], 1);
    EXPECT_EQ(order[i + 2], 3);
  }
  ASSERT_EQ(a.views.size(), b.views.size());
  for (std::size_t i = 0; i < a.views.size(); ++i) {
    const ahb::CycleView& x = a.views[i];
    const ahb::CycleView& y = b.views[i];
    EXPECT_EQ(x.haddr, y.haddr);
    EXPECT_EQ(x.hwdata, y.hwdata);
    EXPECT_EQ(x.hrdata, y.hrdata);
    EXPECT_EQ(x.hmaster, y.hmaster);
    EXPECT_EQ(x.req_vector, y.req_vector);
    EXPECT_EQ(x.grant_vector, y.grant_vector);
  }
}

TEST(KernelWork, ObserversShareOneSamplingProcess) {
  // The estimator, monitor, trace recorder and global analyzer all ride
  // on the one sampling process, so the kernel does exactly the work of
  // KernelWork.PaperTestbenchExactCounts (estimator alone).
  campaign::System s({.monitor = true});
  ahb::TraceRecorder rec(&s.top, "recorder", s.bus);
  power::GlobalPowerAnalyzer an(
      &s.top, "analyzer",
      power::PowerFsm::Config{.n_masters = s.bus.n_masters(),
                              .n_slaves = s.bus.n_slaves()});
  s.bus.attach_observer(an);
  s.kernel.run(kCycle * 20000);
  EXPECT_EQ(s.kernel.delta_count(), 69983u);
  EXPECT_EQ(s.kernel.stats().processes_executed, 270655u);
  EXPECT_EQ(an.fsm().cycles(), s.est->fsm().cycles());
  EXPECT_EQ(rec.trace().size(), s.mon->stats().transfers);
}

TEST(MonitorStats, FourMastersRoundRobinWaitStateFaults) {
  // GoldenStats.FourMastersRoundRobinWaitStateFaults's system; every
  // BusMonitor::Stats field as the edge-sampling monitor counted it.
  campaign::System s({.policy = ahb::ArbitrationPolicy::kRoundRobin,
                      .wait_states = 1,
                      .seeds = campaign::strided_seeds(1, 4),
                      .fault_seed = 7,
                      .monitor = true});
  s.kernel.run(kCycle * 20000);
  const ahb::BusMonitor::Stats& st = s.mon->stats();
  const std::string got =
      "cycles " + std::to_string(st.cycles) + " transfers " +
      std::to_string(st.transfers) + " reads " + std::to_string(st.reads) +
      " writes " + std::to_string(st.writes) + " wait_cycles " +
      std::to_string(st.wait_cycles) + " idle_cycles " +
      std::to_string(st.idle_cycles) + " handovers " +
      std::to_string(st.handovers) + " error_responses " +
      std::to_string(st.error_responses) + " retry_responses " +
      std::to_string(st.retry_responses) + " split_responses " +
      std::to_string(st.split_responses);
  EXPECT_EQ(got,
            "cycles 20000 transfers 9176 reads 4588 writes 4588 wait_cycles "
            "10144 idle_cycles 1055 handovers 339 error_responses 40 "
            "retry_responses 194 split_responses 0");
  EXPECT_TRUE(s.mon->violations().empty());
}

}  // namespace
}  // namespace ahbp
