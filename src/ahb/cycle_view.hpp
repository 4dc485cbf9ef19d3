#pragma once
// CycleView: one bus cycle's settled signal values, and the observer
// interface through which AhbBus's per-cycle sampler delivers it. This
// is the reporting protocol of the paper's global integration style
// (Fig. 1): the estimator, the protocol monitor, the trace recorder and
// every other per-cycle analyzer consume the same view.

#include <cstdint>

namespace ahbp::ahb {

/// One cycle's settled bus values, as sampled mid-cycle (falling edge).
struct CycleView {
  std::uint32_t haddr = 0;
  std::uint8_t htrans = 0;
  bool hwrite = false;
  std::uint8_t hsize = 0;
  std::uint8_t hburst = 0;
  std::uint32_t hwdata = 0;
  std::uint32_t hrdata = 0;
  bool hready = true;
  std::uint8_t hresp = 0;
  std::uint8_t hmaster = 0;
  std::uint8_t hmaster_data = 0;  ///< data-phase bus owner
  std::uint8_t data_slave = 0xFF;
  bool data_active = false;
  bool data_write = false;
  std::uint32_t req_vector = 0;    ///< HBUSREQx, bit per master
  std::uint32_t grant_vector = 0;  ///< HGRANTx, bit per master
  /// Split-masked masters (arbiter HSPLITx mask, bit per master). A
  /// masked master's pending request is *not* arbitration work -- the
  /// arbiter ignores it until resume -- so it must not classify the
  /// cycle as IDLE_HO.
  std::uint32_t split_vector = 0;
};
static_assert(sizeof(CycleView) == 36);

/// A per-cycle consumer of CycleView. Attach it with
/// AhbBus::attach_observer(), or feed it views from any other source
/// (a TLM bus, a recorded stream). The bus keeps its address, so it is
/// neither copied nor moved.
class CycleObserver {
public:
  CycleObserver() = default;
  CycleObserver(const CycleObserver&) = delete;
  CycleObserver& operator=(const CycleObserver&) = delete;
  virtual ~CycleObserver() = default;
  /// Delivers one cycle's view. Signals the view lacks may be read live
  /// here: they hold the same settled values the view was built from.
  virtual void on_cycle(const CycleView& v) = 0;
};

}  // namespace ahbp::ahb
