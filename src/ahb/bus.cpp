#include "ahb/bus.hpp"

#include "ahb/slave.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;

AhbBus::AhbBus(sim::Module* parent, std::string name, sim::Clock& clk)
    : AhbBus(parent, std::move(name), clk, Config{}) {}

AhbBus::AhbBus(sim::Module* parent, std::string name, sim::Clock& clk, Config cfg)
    : Module(parent, std::move(name)),
      clk_(clk),
      cfg_(cfg),
      sig_(this, "sig"),
      arbiter_(this, "arbiter", clk, sig_, cfg.policy, cfg.default_master),
      decoder_(this, "decoder", sig_),
      m2s_(this, "m2s", sig_),
      pipeline_(this, "pipeline", clk, sig_, decoder_),
      s2m_(this, "s2m", sig_, pipeline_.data_phase_slave()) {}

AhbBus::~AhbBus() = default;

unsigned AhbBus::attach_master(MasterSignals& m) {
  if (finalized_) throw SimError("AhbBus: attach_master after finalize");
  const unsigned idx = arbiter_.attach(m.hbusreq);
  m2s_.attach(m);
  return idx;
}

unsigned AhbBus::attach_slave(SlaveSignals& s, AddressRange range) {
  if (finalized_) throw SimError("AhbBus: attach_slave after finalize");
  const unsigned idx = decoder_.attach(range);
  s2m_.attach(s);
  return idx;
}

void AhbBus::finalize() {
  if (finalized_) throw SimError("AhbBus: finalize called twice");
  if (m2s_.n_inputs() == 0) throw SimError("AhbBus: no masters attached");
  // The built-in default slave catches unmapped addresses; constructing
  // it self-attaches as the last slave index.
  default_slave_ = std::make_unique<DefaultSlave>(this, "default_slave", *this);
  decoder_.set_fallback(default_slave_->index());
  arbiter_.finalize();
  decoder_.finalize();
  m2s_.finalize();
  s2m_.finalize();
  finalized_ = true;
}

void AhbBus::attach_observer(CycleObserver& o) {
  observers_.push_back(&o);
  if (sampler_) return;
  sampler_ = std::make_unique<sim::Method>(this, "sampler", [this] {
    const CycleView v = sample_view();
    for (CycleObserver* o : observers_) o->on_cycle(v);
  });
  // Sample at the falling edge: every value driven at the rising edge has
  // settled by mid-cycle, so one sample sees the whole cycle's state.
  sampler_->sensitive(clk_.negedge_event()).dont_initialize();
}

CycleView AhbBus::reset_view() const {
  CycleView v;
  v.hmaster = static_cast<std::uint8_t>(cfg_.default_master);
  v.grant_vector = 1u << cfg_.default_master;
  return v;
}

CycleView AhbBus::sample_view() {
  const BusSignals& b = sig_;
  CycleView v;
  v.haddr = b.haddr.read();
  v.htrans = b.htrans.read();
  v.hwrite = b.hwrite.read();
  v.hsize = b.hsize.read();
  v.hburst = b.hburst.read();
  v.hwdata = b.hwdata.read();
  v.hrdata = b.hrdata.read();
  v.hready = b.hready.read();
  v.hresp = b.hresp.read();
  v.hmaster = b.hmaster.read();
  v.hmaster_data = b.hmaster_data.read();
  v.data_slave = pipeline_.data_phase_slave().read();
  v.data_active = pipeline_.data_phase_active().read();
  v.data_write = pipeline_.data_phase_write().read();
  // Request and grant vectors, assembled from the arbiter's attachments.
  for (unsigned m = 0; m < n_masters(); ++m) {
    if (arbiter_.hgrant(m).read()) v.grant_vector |= 1u << m;
  }
  v.req_vector = arbiter_.request_vector();
  v.split_vector = arbiter_.split_mask();
  return v;
}

}  // namespace ahbp::ahb
