// Unit tests for the sub-block energy macromodels.

#include "power/macromodel.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sim/report.hpp"

namespace ahbp::power {
namespace {

using sim::SimError;

TEST(LinearModel, EvaluatesAffineForm) {
  LinearModel m({1.0, 2.0, 3.0});  // 1 + 2*x0 + 3*x1
  EXPECT_DOUBLE_EQ(m.energy({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(m.energy({1.0, 1.0}), 6.0);
  EXPECT_DOUBLE_EQ(m.energy({2.0, -1.0}), 2.0);
}

TEST(LinearModel, RejectsMisuse) {
  LinearModel empty;
  EXPECT_THROW((void)empty.energy({1.0}), SimError);
  LinearModel m({1.0, 2.0});
  EXPECT_THROW((void)m.energy({1.0, 2.0}), SimError);
}

TEST(DecoderModel, MatchesPaperClosedForm) {
  // E_DEC = VDD^2/4 * (nO*nI*C_PD*HD_IN + 2*HD_OUT*C_O)
  gate::Technology tech;
  tech.vdd = 2.0;
  tech.c_node = 10e-15;
  tech.c_out = 40e-15;
  DecoderModel m(4, tech);  // nO=4 -> nI=2
  const double vdd2_4 = 1.0;  // 2^2/4
  EXPECT_DOUBLE_EQ(m.energy(0u), 0.0);
  EXPECT_DOUBLE_EQ(m.energy(1u),
                   vdd2_4 * (4.0 * 2.0 * 10e-15 * 1 + 2.0 * 40e-15));
  EXPECT_DOUBLE_EQ(m.energy(2u),
                   vdd2_4 * (4.0 * 2.0 * 10e-15 * 2 + 2.0 * 40e-15));
}

TEST(DecoderModel, InputCountFollowsPaperRule) {
  gate::Technology tech;
  EXPECT_EQ(DecoderModel(2, tech).n_inputs(), 1u);
  EXPECT_EQ(DecoderModel(4, tech).n_inputs(), 2u);
  EXPECT_EQ(DecoderModel(5, tech).n_inputs(), 3u);
  EXPECT_EQ(DecoderModel(16, tech).n_inputs(), 4u);
}

TEST(DecoderModel, WordOverloadComputesHd) {
  gate::Technology tech;
  DecoderModel m(8, tech);
  EXPECT_DOUBLE_EQ(m.energy(0b000u, 0b101u), m.energy(2u));
  EXPECT_DOUBLE_EQ(m.energy(0b111u, 0b111u), 0.0);
}

TEST(DecoderModel, MonotonicInActivityAndSize) {
  gate::Technology tech;
  DecoderModel m4(4, tech), m16(16, tech);
  EXPECT_LT(m4.energy(1u), m4.energy(2u));
  EXPECT_LT(m4.energy(2u), m16.energy(2u));
}

TEST(DecoderModel, RejectsDegenerate) {
  EXPECT_THROW(DecoderModel(1, gate::Technology{}), SimError);
}

TEST(MuxModel, ZeroActivityZeroEnergy) {
  MuxModel m(32, 4, gate::Technology{});
  EXPECT_DOUBLE_EQ(m.energy(0, 0, 0), 0.0);
}

TEST(MuxModel, SelectSwitchScalesWithWidth) {
  gate::Technology tech;
  MuxModel narrow(8, 4, tech), wide(64, 4, tech);
  // A select change re-steers every bit slice.
  EXPECT_DOUBLE_EQ(wide.energy(0, 1, 0) / narrow.energy(0, 1, 0), 8.0);
}

TEST(MuxModel, LinearInFeatures) {
  MuxModel m(32, 4, gate::Technology{});
  const double e1 = m.energy(1, 0, 0);
  EXPECT_NEAR(m.energy(3, 0, 0), 3 * e1, 1e-20);
  const double es = m.energy(0, 1, 0);
  const double eo = m.energy(0, 0, 1);
  EXPECT_NEAR(m.energy(2, 1, 3), 2 * e1 + es + 3 * eo, 1e-20);
}

TEST(MuxModel, CustomCoefficients) {
  gate::Technology tech;
  MuxModel m(16, 2, tech, MuxModel::Coefficients{.k_in = 1.0, .k_sel = 0.0, .k_out = 0.0});
  const double unit = tech.vdd * tech.vdd / 4.0 * tech.c_node;
  EXPECT_DOUBLE_EQ(m.energy(5, 7, 9), 5 * unit);
}

TEST(MuxModel, RejectsDegenerate) {
  EXPECT_THROW(MuxModel(0, 4, gate::Technology{}), SimError);
  EXPECT_THROW(MuxModel(8, 1, gate::Technology{}), SimError);
}

TEST(ArbiterFsmModel, ComponentsAddUp) {
  gate::Technology tech;
  ArbiterFsmModel m(3, tech);
  EXPECT_DOUBLE_EQ(m.energy(0, false), m.idle_energy());
  EXPECT_DOUBLE_EQ(m.energy(2, false), m.idle_energy() + 2 * m.request_energy());
  EXPECT_DOUBLE_EQ(m.energy(1, true),
                   m.idle_energy() + m.request_energy() + m.handover_energy());
}

TEST(ArbiterFsmModel, HandoverDominatesIdle) {
  ArbiterFsmModel m(3, gate::Technology{});
  EXPECT_GT(m.handover_energy(), m.idle_energy());
}

TEST(ArbiterFsmModel, RejectsDegenerate) {
  EXPECT_THROW(ArbiterFsmModel(1, gate::Technology{}), SimError);
}

// The inline energy() of each macromodel folds its constant factors at
// construction. These check it bit for bit (EXPECT_EQ on doubles)
// against the closed form written out in full, for every Hamming
// distance the model can see: the folding must keep the expression's
// association order, or the pinned joules of GoldenStats would move.

TEST(DecoderModel, InlineEnergyIsTheClosedFormBitForBit) {
  gate::Technology odd;
  odd.vdd = 1.7;
  odd.c_node = 7.3e-15;
  odd.c_out = 41e-15;
  for (const gate::Technology& tech : {gate::Technology{}, odd}) {
    for (const unsigned n_o : {2u, 4u, 5u, 16u}) {
      const DecoderModel m(n_o, tech);
      const unsigned n_i = m.n_inputs();
      for (unsigned hd = 0; hd <= 64; ++hd) {
        const unsigned hd_out = hd >= 1 ? 1u : 0u;
        const double closed =
            tech.vdd * tech.vdd / 4.0 *
            (static_cast<double>(n_o) * n_i * tech.c_node * hd +
             2.0 * hd_out * tech.c_out);
        EXPECT_EQ(m.energy(hd), closed) << "n_o=" << n_o << " hd=" << hd;
      }
    }
  }
}

TEST(MuxModel, InlineEnergyIsTheClosedFormBitForBit) {
  struct Shape {
    unsigned w, n;
    MuxModel::Coefficients k;
  };
  // The PowerFsm's M2S (addr+control+data) and S2M (data+resp) muxes,
  // plus a charlib-style re-fitted coefficient set.
  const Shape shapes[] = {{72, 3, {}},
                          {35, 4, {}},
                          {16, 2, {.k_in = 1.37, .k_sel = 0.61, .k_out = 2.9}}};
  const gate::Technology tech;
  for (const Shape& sh : shapes) {
    const MuxModel m(sh.w, sh.n, tech, sh.k);
    for (unsigned hd_sel = 0; hd_sel <= 4; ++hd_sel) {
      for (unsigned hd_in = 0; hd_in <= sh.w; ++hd_in) {
        for (unsigned hd_out = 0; hd_out <= sh.w; ++hd_out) {
          const double closed =
              tech.vdd * tech.vdd / 4.0 * tech.c_node *
              (sh.k.k_in * hd_in +
               sh.k.k_sel * static_cast<double>(sh.w) * hd_sel +
               sh.k.k_out * hd_out * (tech.c_out / tech.c_node));
          ASSERT_EQ(m.energy(hd_in, hd_sel, hd_out), closed)
              << "w=" << sh.w << " hd_in=" << hd_in << " hd_sel=" << hd_sel
              << " hd_out=" << hd_out;
        }
      }
    }
  }
}

TEST(ArbiterFsmModel, InlineEnergyIsTheClosedFormBitForBit) {
  const gate::Technology tech;
  const double vdd2_4 = tech.vdd * tech.vdd / 4.0;
  // state_bits = ceil(log2 n_masters)
  for (const auto& [n, state_bits] : {std::pair{2u, 1u}, std::pair{3u, 2u},
                                     std::pair{4u, 2u}, std::pair{5u, 3u}}) {
    const ArbiterFsmModel m(n, tech);
    const double e_idle = vdd2_4 * tech.c_node * 0.5 * state_bits;
    const double e_req = vdd2_4 * tech.c_node * 10.0;
    const double e_grant =
        vdd2_4 * (tech.c_node * 5.0 * state_bits + 2.0 * tech.c_out);
    for (unsigned hd_req = 0; hd_req <= n; ++hd_req) {
      for (const bool handover : {false, true}) {
        EXPECT_EQ(m.energy(hd_req, handover),
                  e_idle + e_req * hd_req + (handover ? e_grant : 0.0))
            << "n=" << n << " hd_req=" << hd_req << " handover=" << handover;
      }
    }
  }
}

TEST(Macromodels, EnergyScalesWithVddSquared) {
  gate::Technology lo, hi;
  lo.vdd = 1.0;
  hi.vdd = 3.0;
  DecoderModel dlo(4, lo), dhi(4, hi);
  EXPECT_NEAR(dhi.energy(2u) / dlo.energy(2u), 9.0, 1e-12);
  MuxModel mlo(16, 4, lo), mhi(16, 4, hi);
  EXPECT_NEAR(mhi.energy(3, 1, 3) / mlo.energy(3, 1, 3), 9.0, 1e-12);
}

}  // namespace
}  // namespace ahbp::power
