#include "ahb/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "ahb/bus.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;
using sim::Task;
using sim::wait;

// ---------------------------------------------------------------------------
// TransactionTrace

TransactionTrace TransactionTrace::filter_master(std::uint8_t master) const {
  TransactionTrace out;
  for (const TransferRecord& r : records_) {
    if (r.master == master) out.add(r);
  }
  return out;
}

void TransactionTrace::save(std::ostream& os) const {
  os << "# ahbpower transaction trace v1: cycle master W|R addr data\n";
  for (const TransferRecord& r : records_) {
    os << r.cycle << ' ' << static_cast<unsigned>(r.master) << ' '
       << (r.write ? 'W' : 'R') << ' ' << std::hex << "0x" << r.addr << " 0x"
       << r.data << std::dec << '\n';
  }
}

TransactionTrace TransactionTrace::load(std::istream& is) {
  TransactionTrace t;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    TransferRecord r;
    unsigned master = 0;
    char rw = 0;
    std::string addr_s, data_s;
    if (!(ls >> r.cycle)) continue;  // blank line
    if (!(ls >> master >> rw >> addr_s >> data_s) || (rw != 'W' && rw != 'R')) {
      throw SimError("TransactionTrace: malformed line " + std::to_string(lineno));
    }
    r.master = static_cast<std::uint8_t>(master);
    r.write = rw == 'W';
    r.addr = static_cast<std::uint32_t>(std::stoul(addr_s, nullptr, 0));
    r.data = static_cast<std::uint32_t>(std::stoul(data_s, nullptr, 0));
    t.add(r);
  }
  return t;
}

// ---------------------------------------------------------------------------
// TraceRecorder

TraceRecorder::TraceRecorder(sim::Module* parent, std::string name, AhbBus& bus)
    : Module(parent, std::move(name)), bus_(bus) {
  if (!bus.finalized()) throw SimError("TraceRecorder: bus must be finalized");
  bus.attach_observer(*this);
}

void TraceRecorder::on_cycle(const CycleView& v) {
  ++cycle_;
  if (!v.data_active || !v.hready) return;
  TransferRecord r;
  r.cycle = cycle_;
  r.master = v.hmaster_data;
  r.write = v.data_write;
  // The view carries no data-phase address: read it live, at the same
  // instant the view was built.
  r.addr = bus_.pipeline().data_phase_addr().read();
  r.data = r.write ? v.hwdata : v.hrdata;
  trace_.add(r);
}

// ---------------------------------------------------------------------------
// TraceMaster

TraceMaster::TraceMaster(sim::Module* parent, std::string name, AhbBus& bus,
                         TransactionTrace trace)
    : AhbMaster(parent, std::move(name), bus),
      trace_(std::move(trace)),
      thread_(this, "proc", [this] { return body(); }) {}

Task TraceMaster::body() {
  BusSignals& bus = bus_signals();
  sim::Event& edge = clock().posedge_event();
  if (trace_.records().empty()) co_return;

  const std::uint64_t t0 = trace_.records().front().cycle;
  std::uint64_t cycle = 0;
  bool have_pending = false;
  TransferRecord pending{};

  // Completes the pending transfer's bookkeeping at a ready edge.
  auto settle_pending = [&] {
    if (!have_pending) return;
    if (!pending.write && bus.hrdata.read() != pending.data) {
      ++stats_.read_mismatches;
    }
    ++stats_.replayed;
    have_pending = false;
  };

  for (const TransferRecord& r : trace_.records()) {
    const std::uint64_t due = r.cycle - t0;

    // A gap before this record: drain the in-flight transfer, then idle
    // with the bus released (pacing preserves the recorded rhythm).
    if (cycle < due && have_pending) {
      sig_.htrans.write(raw(Trans::kIdle));
      sig_.hbusreq.write(false);
      if (pending.write) sig_.hwdata.write(pending.data);
      do {
        co_await wait(edge);
        ++cycle;
      } while (!bus.hready.read());
      settle_pending();
    }
    while (cycle < due) {
      co_await wait(edge);
      ++cycle;
    }

    // Own the bus.
    if (!granted() || !sig_.hbusreq.read()) {
      sig_.hbusreq.write(true);
      while (!(granted() && bus.hready.read())) {
        co_await wait(edge);
        ++cycle;
      }
    }

    // Pipelined: address phase of this record beside the pending
    // record's data phase, exactly like the original masters.
    sig_.htrans.write(raw(Trans::kNonSeq));
    sig_.haddr.write(r.addr);
    sig_.hwrite.write(r.write);
    sig_.hburst.write(raw(Burst::kSingle));
    sig_.hsize.write(raw(Size::kWord));
    if (have_pending && pending.write) sig_.hwdata.write(pending.data);
    do {
      co_await wait(edge);
      ++cycle;
    } while (!bus.hready.read());
    settle_pending();
    pending = r;
    have_pending = true;
  }

  // Drain the final transfer.
  sig_.htrans.write(raw(Trans::kIdle));
  sig_.hbusreq.write(false);
  if (pending.write) sig_.hwdata.write(pending.data);
  do {
    co_await wait(edge);
    ++cycle;
  } while (!bus.hready.read());
  settle_pending();
}

}  // namespace ahbp::ahb
