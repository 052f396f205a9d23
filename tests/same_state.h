// Full-state comparison for determinism tests.
//
// "Bit-identical" in these tests means every byte a checkpoint carries:
// StateOf digests the machine's captured image section by section, and
//
//   EXPECT_PRED_FORMAT2(SameState, StateOf(a), StateOf(b));
//
// fails naming the first section the two machines disagree on. State an
// image does not carry (trace buffers, recovery stats) is compared beside
// it by the tests that care.
#ifndef TESTS_SAME_STATE_H_
#define TESTS_SAME_STATE_H_

#include "gtest/gtest.h"
#include "src/os/machine.h"
#include "src/os/machine_image_io.h"

namespace graysim {

// Digest of a quiescent machine at its current instant.
inline ImageDigest StateOf(const Machine& machine) { return StateDigest(machine.Snapshot()); }

inline ::testing::AssertionResult SameState(const char* a_expr, const char* b_expr,
                                            const ImageDigest& a, const ImageDigest& b) {
  if (a == b) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a_expr << " and " << b_expr << " first differ in the "
         << FirstDifferingSection(a, b) << " section\n  " << a_expr << " = "
         << ::testing::PrintToString(a) << "\n  " << b_expr << " = "
         << ::testing::PrintToString(b);
}

}  // namespace graysim

#endif  // TESTS_SAME_STATE_H_
