/**
 * @file
 * Energy-model and analytic-validation tests: monotone scaling of the
 * CACTI-like SRAM/cache models, the relative cost relationships the
 * paper's conclusions rest on, and agreement between the event-driven
 * simulator and the closed-form model for the baseline DMA flow.
 */

#include <gtest/gtest.h>

#include "core/soc.hh"
#include "core/validation.hh"
#include "power/energy_model.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

TEST(EnergyModel, SramEnergyGrowsWithCapacity)
{
    double prev = 0.0;
    for (double kb : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
        double e = EnergyModel::sramAccessEnergy(kb, false);
        EXPECT_GT(e, prev);
        prev = e;
    }
}

TEST(EnergyModel, WritesCostMoreThanReads)
{
    EXPECT_GT(EnergyModel::sramAccessEnergy(4.0, true),
              EnergyModel::sramAccessEnergy(4.0, false));
    EXPECT_GT(EnergyModel::cacheAccessEnergy(16.0, 4, 1, true),
              EnergyModel::cacheAccessEnergy(16.0, 4, 1, false));
}

TEST(EnergyModel, CacheCostsMoreThanSameSizedSram)
{
    // The tag array, comparators, and associativity make a cache
    // access strictly more expensive than a scratchpad access of the
    // same capacity — the premise of the paper's power comparisons.
    for (double kb : {2.0, 8.0, 32.0}) {
        EXPECT_GT(EnergyModel::cacheAccessEnergy(kb, 4, 1, false),
                  EnergyModel::sramAccessEnergy(kb, false));
    }
}

TEST(EnergyModel, PortsArePunishinglyExpensiveForCaches)
{
    double p1 = EnergyModel::cacheAccessEnergy(16.0, 4, 1, false);
    double p8 = EnergyModel::cacheAccessEnergy(16.0, 4, 8, false);
    EXPECT_GT(p8, 4.0 * p1)
        << "multi-ported caches must cost superlinearly (Sec. V-B3)";
    EXPECT_GT(EnergyModel::cacheLeakage(16.0, 4, 8),
              4.0 * EnergyModel::cacheLeakage(16.0, 4, 1));
}

TEST(EnergyModel, PartitionedSramCheaperPerAccessThanMonolithic)
{
    // Partitioning shrinks each bank, so per-access energy drops.
    double mono = EnergyModel::sramAccessEnergy(16.0, false);
    double banked = EnergyModel::sramAccessEnergy(16.0 / 8, false);
    EXPECT_LT(banked, mono);
}

TEST(EnergyModel, FpOpsCostMoreThanIntOps)
{
    EXPECT_GT(EnergyModel::opEnergy(FuKind::FpAdd),
              EnergyModel::opEnergy(FuKind::IntAlu));
    EXPECT_GT(EnergyModel::opEnergy(FuKind::FpMul),
              EnergyModel::opEnergy(FuKind::FpAdd));
    EXPECT_GT(EnergyModel::opEnergy(FuKind::FpDiv),
              EnergyModel::opEnergy(FuKind::FpMul));
}

TEST(EnergyModel, AssociativityAddsTagEnergy)
{
    EXPECT_GT(EnergyModel::cacheAccessEnergy(16.0, 8, 1, false),
              EnergyModel::cacheAccessEnergy(16.0, 4, 1, false));
}

// ---------------------------------------------------------------
// Analytic validation (the Figure 4 methodology).
// ---------------------------------------------------------------

class ValidationTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(ValidationTest, SimulatorAgreesWithAnalyticModel)
{
    auto w = makeWorkload(GetParam());
    auto out = w->build();
    Dddg dddg(out.trace);

    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.busWidthBits = 64;

    SocResults sim = runDesign(cfg, out.trace, dddg);
    ValidationPrediction pred =
        ValidationModel::predictDmaBaseline(cfg, out.trace, dddg);

    double error =
        std::abs(static_cast<double>(sim.totalTicks) -
                 static_cast<double>(pred.total())) /
        static_cast<double>(sim.totalTicks);
    // The paper validates against hardware it calibrated on and
    // reports ~6% error. Our analytic stand-in is an uncalibrated
    // lower bound (it assumes conflict-free scratchpad banking and
    // ideal issue), so the band is wider; the Figure 4 bench reports
    // the per-benchmark numbers. The test still catches gross drift.
    EXPECT_LT(error, 0.50)
        << "sim " << sim.totalTicks << " vs model " << pred.total();
    EXPECT_LE(pred.total(), sim.totalTicks + sim.totalTicks / 20)
        << "the analytic model must stay a (near) lower bound";
    // The analytic model is a lower-bound-flavored estimate: each
    // component must not exceed what the simulator measured overall.
    EXPECT_LT(pred.flush, sim.totalTicks);
    EXPECT_LT(pred.dmaIn, sim.totalTicks);
    EXPECT_LT(pred.compute, sim.totalTicks);
}

INSTANTIATE_TEST_SUITE_P(
    DmaBaseline, ValidationTest,
    ::testing::ValuesIn(figure8Workloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

class BoundParamTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(BoundParamTest, ComputeBoundBracketsSimulatedCycles)
{
    auto out = makeWorkload(GetParam())->build();
    Dddg dddg(out.trace);
    for (unsigned lanes : {1u, 4u, 16u}) {
        SocConfig cfg;
        cfg.isolated = true;
        cfg.lanes = lanes;
        cfg.spadPartitions = lanes;
        SocResults sim = runDesign(cfg, out.trace, dddg);
        Cycles bound =
            ValidationModel::computeBound(cfg, out.trace, dddg);
        // The bound never exceeds the simulator (it is a lower
        // bound), and stays within an order of magnitude below it.
        // It is loosest for kernels whose iterations serialize
        // through memory dependences (viterbi, radix passes): the
        // per-wave resource estimate assumes lanes work in parallel
        // that the dependences actually serialize.
        EXPECT_LE(bound, sim.accelCycles + sim.accelCycles / 20)
            << GetParam() << " lanes=" << lanes;
        EXPECT_GE(bound * 16, sim.accelCycles)
            << GetParam() << " lanes=" << lanes;
    }
}

TEST_P(BoundParamTest, BarrierPathShrinksWithLanes)
{
    auto out = makeWorkload(GetParam())->build();
    Dddg dddg(out.trace);
    Cycles prev = 0;
    bool first = true;
    for (unsigned lanes : {1u, 2u, 4u, 8u, 16u}) {
        Cycles cp = ValidationModel::barrierCriticalPathCycles(
            out.trace, dddg, lanes);
        if (!first) {
            EXPECT_LE(cp, prev) << GetParam() << " lanes=" << lanes;
        }
        prev = cp;
        first = false;
        // Never below the unbarriered critical path.
        EXPECT_GE(cp, dddg.criticalPathCycles(out.trace));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BoundParamTest,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(ValidationModel, ComputeBoundRespectsCriticalPath)
{
    auto out = makeWorkload("nw-nw")->build();
    Dddg dddg(out.trace);
    SocConfig cfg;
    cfg.lanes = 16;
    cfg.spadPartitions = 16;
    Cycles bound = ValidationModel::computeBound(cfg, out.trace, dddg);
    EXPECT_GE(bound, dddg.criticalPathCycles(out.trace));
}

TEST(ValidationModel, DmaTimeScalesWithBytesAndShrinksWithWidth)
{
    SocConfig narrow;
    narrow.busWidthBits = 32;
    SocConfig wide;
    wide.busWidthBits = 64;
    Tick t1 = ValidationModel::dmaTransferTime(narrow, 4096, 1);
    Tick t2 = ValidationModel::dmaTransferTime(narrow, 8192, 1);
    Tick t3 = ValidationModel::dmaTransferTime(wide, 4096, 1);
    EXPECT_GT(t2, t1);
    EXPECT_LT(t3, t1);
    EXPECT_EQ(ValidationModel::dmaTransferTime(narrow, 0, 1), 0u);
}

} // namespace
} // namespace genie
