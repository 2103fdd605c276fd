// Distributed query planner (Section 6.2).
//
// Stratica's planner descends from the paper's optimizer lineage: like
// StarOpt it prefers joining the fact stream against its most selective
// dimensions first with highly compressed, sorted projections chosen per
// table; like V2Opt it plans by physical properties (column selectivity,
// projection sort order, data segmentation) and plans distribution:
// co-located joins and aggregations run fully local per node, otherwise the
// smaller side is broadcast; aggregation is two-stage (local partial +
// final combine), with a partial HashGroupBy in every intra-node morsel
// fragment (Figure 3's prepass GroupBys). When nodes are down, plans transparently replace a
// projection's storage with its buddy's on a surviving node and re-cost.
//
// Techniques implemented from the paper's list: projection selection with
// compression-aware I/O costing, predicate pushdown with min/max prune
// bounds, transitive predicates across join keys, outer-to-inner join
// conversion under null-rejecting WHERE clauses, SIP filter placement,
// pipelined (sort-exploiting) aggregation, sort elimination, late
// materialization at the scan, and prepass (partial) aggregation.
#ifndef STRATICA_OPT_PLANNER_H_
#define STRATICA_OPT_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "exec/operator.h"
#include "sql/parser.h"

namespace stratica {

struct PhysicalPlan {
  OperatorPtr root;  ///< runs at the initiator node
  std::vector<std::string> column_names;
  std::vector<TypeId> column_types;
  /// Admission reservation: summed MemoryEstimateBytes over the tree. The
  /// resource manager clamps it into [min reserve, pool size] at Admit.
  size_t estimated_memory_bytes = 0;
  /// Morsel fragments per scan unit actually planned (DESIGN.md §12): the
  /// requested intra-node parallelism, or 1 when the plan gated it off
  /// (small fact, order-carrying scan, RIGHT/FULL join). The executor maps
  /// this to worker fan-out; admission may replan at a smaller value.
  size_t fanout = 1;
  /// True when the plan runs serial *specifically* because the scan carries
  /// order (sorted output) and so cannot ride the morsel path. Surfaced
  /// as ExecStats::morsel_bypasses so AllowedFanout accounting is honest
  /// about the bypass instead of silently planning serial (DESIGN.md §12).
  bool morsel_bypass = false;
};

class Planner {
 public:
  explicit Planner(Cluster* cluster) : cluster_(cluster) {}

  /// Plan a SELECT into an executable operator tree. When
  /// `intra_node_parallelism` > 1, each scan-unit pipeline is split into
  /// that many morsel-driven fragments sharing one dispenser and one build
  /// per join (DESIGN.md §12), subject to the gates noted on
  /// PhysicalPlan::fanout.
  Result<PhysicalPlan> PlanSelect(const SelectStmt& stmt,
                                  size_t intra_node_parallelism = 1);

  /// Plan and render the EXPLAIN tree without executing.
  Result<std::string> Explain(const SelectStmt& stmt,
                              size_t intra_node_parallelism = 1);

 private:
  struct TableSlot;  // resolved FROM entry
  struct Scope;      // full planning scope

  Cluster* cluster_;
};

}  // namespace stratica

#endif  // STRATICA_OPT_PLANNER_H_
