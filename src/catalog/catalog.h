// The metadata catalog: tables and projections (Sections 3.1-3.6, 5.3).
//
// Tables are purely logical. Projections are the only physical data
// structure: sorted subsets of a table's columns with per-column encodings,
// a sort order, and a segmentation (or replication) clause. Every table
// must keep at least one *super* projection containing all of its columns —
// Vertica dropped C-Store's join indices entirely (Section 3.2).
//
// As in the paper, the catalog is a memory-resident structure persisted via
// its own mechanism (a versioned snapshot file), not stored in database
// tables.
#ifndef STRATICA_CATALOG_CATALOG_H_
#define STRATICA_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/status.h"
#include "common/types.h"
#include "expr/expr.h"
#include "storage/encoding.h"

namespace stratica {

struct ColumnDef {
  std::string name;
  TypeId type = TypeId::kInt64;
  bool nullable = true;
};

/// \brief Logical table: columns plus an optional intra-node partition
/// expression (Section 3.5). Partitioning is a *table* property (not a
/// projection property) so bulk drop works across all projections.
struct TableDef {
  std::string name;
  std::vector<ColumnDef> columns;
  ExprPtr partition_by;  // bound against the table schema; null = none

  int FindColumn(const std::string& col_name) const;
  BindSchema ToBindSchema() const;
};

/// \brief Inter-node data placement for one projection (Section 3.6).
///
/// Replicated projections store every tuple on every node. Segmented
/// projections map each tuple to exactly one node via the ring position of
/// `expr` (most commonly HASH(high-cardinality-columns)). `node_offset`
/// rotates the ring assignment and is how buddy projections guarantee that
/// no row lands on the same node as its primary copy (Section 5.2).
struct SegmentationSpec {
  bool replicated = false;
  ExprPtr expr;              // bound against the projection's columns
  uint32_t node_offset = 0;  // ring rotation; buddies use 1..K

  std::string ToString() const;
};

/// One stored column of a projection. Every projection column is a column
/// of its anchor table: a projection stores only its anchor table's rows.
struct ProjectionColumnDef {
  std::string name;       // anchor-table column name
  int table_column = -1;  // index into the anchor table's columns; set (>= 0)
                          // by validation and kept by catalog load
  EncodingId encoding = EncodingId::kAuto;
};

struct ProjectionDef {
  std::string name;
  std::string anchor_table;
  std::vector<ProjectionColumnDef> columns;
  std::vector<uint32_t> sort_columns;  // indexes into `columns`, major first
  SegmentationSpec segmentation;
  bool is_super = false;
  std::string buddy_of;  // primary projection name when this is a buddy copy

  int FindColumn(const std::string& col_name) const;
  /// Schema of the projection's stored rows (a validated def only).
  BindSchema ToBindSchema(const TableDef& table) const;
};

/// \brief Thread-safe catalog with DDL operations and snapshot persistence.
class Catalog {
 public:
  Catalog() = default;

  Status CreateTable(TableDef table);
  Status DropTable(const std::string& name);
  Result<TableDef> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Validates and registers a projection: anchor exists, all columns
  /// resolve, sort columns valid, segmentation expression binds, and super
  /// flag set automatically when the projection covers all anchor columns.
  Status CreateProjection(ProjectionDef proj);
  Status DropProjection(const std::string& name);
  Result<ProjectionDef> GetProjection(const std::string& name) const;
  std::vector<ProjectionDef> ProjectionsForTable(const std::string& table) const;
  std::vector<std::string> ProjectionNames() const;

  /// True if the table has at least one super projection (required before
  /// data can be loaded).
  bool HasSuperProjection(const std::string& table) const;

  /// Monotone DDL version, bumped on every change.
  uint64_t version() const;

  /// Snapshot persistence ("its own mechanism", Section 5.3).
  Status Save(FileSystem* fs, const std::string& path) const;
  Status Load(FileSystem* fs, const std::string& path);

 private:
  Status ValidateProjection(ProjectionDef* proj) const;

  mutable std::mutex mu_;
  std::map<std::string, TableDef> tables_;
  std::map<std::string, ProjectionDef> projections_;
  uint64_t version_ = 0;
};

/// Build the default super projection for a table: all columns, sorted by
/// the first few columns, segmented by hash of the first column (or
/// replicated if `replicated`). Mirrors what the Database Designer proposes
/// as a baseline (Section 6.3).
ProjectionDef MakeDefaultSuperProjection(const TableDef& table, bool replicated = false);

/// Derive the buddy projection (same columns, ring offset k) used for
/// K-safety (Section 5.2).
ProjectionDef MakeBuddyProjection(const ProjectionDef& primary, uint32_t offset);

}  // namespace stratica

#endif  // STRATICA_CATALOG_CATALOG_H_
