// Best Possible Resource Utilization (paper Algorithm 1, line 19).
//
// BPRU(P) is the maximum resource utilization reachable from P by
// accommodating further VMs — the maximum utilization among the endpoints
// (sinks) of the paths through P; a sink's BPRU is its own utilization.
// Multiplying PageRank scores by BPRU discounts profiles whose every future
// dead-ends short of the best profile.
#pragma once

#include <vector>

#include "core/profile_graph.hpp"

namespace prvm {

/// BPRU per node, in [0, 1]. One sweep over the DAG from the fullest usage
/// level down.
std::vector<double> compute_bpru(const ProfileGraph& graph);

}  // namespace prvm
