/**
 * @file
 * The structural check every trace must pass: its flat (CSR)
 * register dependences are well formed and point backward.
 */

#ifndef GENIE_TESTS_TRACE_CHECKS_HH
#define GENIE_TESTS_TRACE_CHECKS_HH

#include <gtest/gtest.h>

#include "accel/trace.hh"

namespace genie
{

/** Whether @p trace's depOff has one entry per op plus one, never
 * decreases and ends at depIds.size(), and every dependence names an
 * earlier op. */
inline ::testing::AssertionResult
depsAreFlatAndBackward(const Trace &trace)
{
    if (trace.depOff.size() != trace.ops.size() + 1 ||
        trace.depOff.front() != 0 ||
        trace.depOff.back() != trace.depIds.size()) {
        return ::testing::AssertionFailure()
               << trace.depOff.size() << " offsets for " << trace.ops.size()
               << " ops and " << trace.depIds.size() << " dependences";
    }
    for (NodeId i = 0; i < trace.ops.size(); ++i) {
        if (trace.depOff[i + 1] < trace.depOff[i])
            return ::testing::AssertionFailure()
                   << "offsets decrease at op " << i;
        for (NodeId d : trace.deps(i)) {
            if (d >= i)
                return ::testing::AssertionFailure()
                       << "op " << i << " depends on op " << d;
        }
    }
    return ::testing::AssertionSuccess();
}

} // namespace genie

#endif // GENIE_TESTS_TRACE_CHECKS_HH
