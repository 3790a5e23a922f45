// Jain fairness index.
//
// The paper plots Jain's index over time during incast: at each sample the
// index is computed over the *delivered* throughput of every flow that was
// active in the window (bytes cumulatively acked during the window / window
// length).  Using delivered bytes rather than the sender's configured rate
// keeps the metric protocol-agnostic (ack-clocked Swift has no explicit
// rate).  `run_incast` does that sampling; this header holds the index.
#pragma once

#include <span>

namespace fastcc::core {

/// Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]; 1 is a
/// perfectly equal allocation.  Zero-valued entries count toward n.
/// Returns 1.0 for empty or all-zero input (vacuously fair).
double jain_index(std::span<const double> allocations);

}  // namespace fastcc::core
