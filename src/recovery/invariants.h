/**
 * @file
 * Cross-layer invariant registry of the run stack.
 *
 * The soak tool (after every kill-and-resume cycle), `ssdcheck run
 * --check-invariants` and every chaos shard assert that the
 * simulation is not just CRC-intact but *semantically* coherent
 * across layers: FTL maps agree with NAND, victim selection matches a
 * from-scratch scan, buffers respect capacity, and every layer's
 * counters add up to the same story about how many requests happened.
 * A serialization bug that loses or double-counts state shows up here
 * long before it would surface as an accuracy anomaly.
 */
#pragma once

#include <string>
#include <vector>

#include "recovery/run_state.h"

namespace ssdcheck::recovery {

/**
 * Check every cross-layer invariant of @p run (a CheckpointableRun, a
 * chaos shard, any RunStack) at a request barrier.
 * @return one description per violated invariant (empty = coherent).
 */
std::vector<std::string> checkInvariants(const RunStack &run);

} // namespace ssdcheck::recovery
