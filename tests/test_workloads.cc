/**
 * @file
 * Workload correctness tests: every kernel's trace-building execution
 * must produce the same output checksum as its independent reference
 * implementation, its trace must be structurally sound, and its
 * memory behavior must match the paper's characterization.
 */

#include <gtest/gtest.h>

#include <map>

#include "accel/dddg.hh"
#include "sim/logging.hh"
#include "trace_checks.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

class WorkloadParamTest
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadParamTest, ChecksumMatchesReference)
{
    auto w = makeWorkload(GetParam());
    WorkloadOutput out = w->build();
    EXPECT_NEAR(out.checksum, w->reference(),
                std::abs(w->reference()) * 1e-9 + 1e-9)
        << "trace-building execution diverged from the reference";
}

TEST_P(WorkloadParamTest, TraceIsNonTrivial)
{
    auto w = makeWorkload(GetParam());
    WorkloadOutput out = w->build();
    EXPECT_GT(out.trace.ops.size(), 100u);
    EXPECT_GE(out.trace.numIterations, 1u);
    EXPECT_FALSE(out.trace.arrays.empty());
    EXPECT_GT(out.trace.totalInputBytes(), 0u);
    EXPECT_GT(out.trace.totalOutputBytes(), 0u);
}

TEST_P(WorkloadParamTest, DependencesPointBackward)
{
    const Trace trace = makeWorkload(GetParam())->build().trace;
    EXPECT_TRUE(depsAreFlatAndBackward(trace));
}

TEST_P(WorkloadParamTest, IterationsAreMonotonic)
{
    auto w = makeWorkload(GetParam());
    WorkloadOutput out = w->build();
    std::uint32_t last = 0;
    for (const auto &op : out.trace.ops) {
        ASSERT_GE(op.iteration, last);
        last = op.iteration;
    }
    EXPECT_EQ(last + 1, out.trace.numIterations);
}

TEST_P(WorkloadParamTest, MemoryAccessesInBounds)
{
    auto w = makeWorkload(GetParam());
    WorkloadOutput out = w->build();
    for (const auto &op : out.trace.ops) {
        if (!isMemoryOp(op.op))
            continue;
        ASSERT_GE(op.arrayId, 0);
        const auto &arr =
            out.trace.arrays[static_cast<std::size_t>(op.arrayId)];
        ASSERT_LE(op.offset + op.size, arr.sizeBytes);
    }
}

TEST_P(WorkloadParamTest, DddgBuildsAndHasCriticalPath)
{
    auto w = makeWorkload(GetParam());
    WorkloadOutput out = w->build();
    Dddg dddg(out.trace);
    EXPECT_EQ(dddg.numNodes(), out.trace.ops.size());
    EXPECT_GT(dddg.numEdges(), 0u);
    std::uint64_t cp = dddg.criticalPathCycles(out.trace);
    EXPECT_GT(cp, 0u);
    // The critical path can never exceed the serial latency sum.
    std::uint64_t serial = 0;
    for (const auto &op : out.trace.ops)
        serial += latencyOf(op.op);
    EXPECT_LE(cp, serial);
}

TEST_P(WorkloadParamTest, BuildIsDeterministic)
{
    auto w = makeWorkload(GetParam());
    WorkloadOutput a = w->build();
    WorkloadOutput b = w->build();
    EXPECT_EQ(a.trace.ops.size(), b.trace.ops.size());
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadParamTest,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(WorkloadRegistry, KnowsSixteenKernels)
{
    EXPECT_EQ(workloadNames().size(), 16u);
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_THROW(makeWorkload("does-not-exist"), FatalError);
}

TEST(WorkloadRegistry, Figure8SetIsTheEightPaperKernels)
{
    auto f8 = figure8Workloads();
    EXPECT_EQ(f8.size(), 8u);
    for (const auto &name : f8) {
        EXPECT_NO_THROW(makeWorkload(name));
    }
}

TEST(WorkloadCharacter, AesHasTinyFootprint)
{
    auto out = makeWorkload("aes-aes")->build();
    EXPECT_LT(out.trace.totalInputBytes(), 1024u);
}

TEST(WorkloadCharacter, NwKeepsScoreMatrixPrivate)
{
    auto out = makeWorkload("nw-nw")->build();
    bool hasPrivate = false;
    for (const auto &a : out.trace.arrays)
        hasPrivate = hasPrivate || a.privateScratch;
    EXPECT_TRUE(hasPrivate);
    // Transfer footprint stays small even though the matrix is large.
    EXPECT_LT(out.trace.totalInputBytes(), 2048u);
    EXPECT_GT(out.trace.totalArrayBytes(), 8u * 1024u);
}

TEST(WorkloadCharacter, SpmvHasIndirectLoads)
{
    auto out = makeWorkload("spmv-crs")->build();
    // Indirect gathers: some loads must depend on earlier loads.
    std::size_t indirect = 0;
    for (NodeId i = 0; i < out.trace.ops.size(); ++i) {
        if (out.trace.ops[i].op != Opcode::Load)
            continue;
        for (NodeId d : out.trace.deps(i)) {
            if (out.trace.ops[d].op == Opcode::Load)
                ++indirect;
        }
    }
    EXPECT_GT(indirect, 100u);
}

TEST(WorkloadCharacter, FftStrideIs512Bytes)
{
    auto out = makeWorkload("fft-transpose")->build();
    // Successive same-array loads within one work item are 512 B
    // apart.
    std::size_t bigStrides = 0;
    std::map<int, Addr> lastLoad;
    for (const auto &op : out.trace.ops) {
        if (op.op != Opcode::Load)
            continue;
        auto it = lastLoad.find(op.arrayId);
        if (it != lastLoad.end() && op.offset > it->second &&
            op.offset - it->second == 512) {
            ++bigStrides;
        }
        lastLoad[op.arrayId] = op.offset;
    }
    EXPECT_GT(bigStrides, 100u);
}

TEST(WorkloadCharacter, MdKnnIsFpMultiplyHeavy)
{
    auto out = makeWorkload("md-knn")->build();
    std::size_t fpMul = 0, total = 0;
    for (const auto &op : out.trace.ops) {
        if (op.op == Opcode::FpMul)
            ++fpMul;
        if (isComputeOp(op.op))
            ++total;
    }
    EXPECT_GT(fpMul * 100, total * 35)
        << "md-knn should be dominated by FP multiplies";
}

} // namespace
} // namespace genie
