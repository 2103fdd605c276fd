#include "catalog/catalog.h"

#include <algorithm>
#include <sstream>

#include "common/checksum.h"
#include "expr/serialize.h"

namespace stratica {

int TableDef::FindColumn(const std::string& col_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == col_name) return static_cast<int>(i);
  }
  return -1;
}

BindSchema TableDef::ToBindSchema() const {
  BindSchema s;
  for (const auto& c : columns) s.Add(c.name, c.type);
  return s;
}

std::string SegmentationSpec::ToString() const {
  if (replicated) return "UNSEGMENTED ALL NODES";
  std::string s = "SEGMENTED BY " + (expr ? expr->ToString() : "<none>");
  if (node_offset != 0) s += " OFFSET " + std::to_string(node_offset);
  return s;
}

int ProjectionDef::FindColumn(const std::string& col_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == col_name) return static_cast<int>(i);
  }
  return -1;
}

BindSchema ProjectionDef::ToBindSchema(const TableDef& table) const {
  BindSchema s;
  for (const auto& pc : columns) s.Add(pc.name, table.columns[pc.table_column].type);
  return s;
}

Status Catalog::CreateTable(TableDef table) {
  std::lock_guard lock(mu_);
  if (tables_.count(table.name))
    return Status::AlreadyExists("table exists: ", table.name);
  if (table.columns.empty())
    return Status::InvalidArgument("table needs at least one column: ", table.name);
  for (size_t i = 0; i < table.columns.size(); ++i) {
    for (size_t j = i + 1; j < table.columns.size(); ++j) {
      if (table.columns[i].name == table.columns[j].name)
        return Status::InvalidArgument("duplicate column: ", table.columns[i].name);
    }
  }
  if (table.partition_by) {
    STRATICA_RETURN_NOT_OK(BindExpr(table.partition_by, table.ToBindSchema()));
    if (!IsIntegerLike(table.partition_by->type))
      return Status::InvalidArgument("partition expression must be integral");
  }
  tables_.emplace(table.name, std::move(table));
  ++version_;
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  std::lock_guard lock(mu_);
  if (tables_.erase(name) == 0) return Status::NotFound("no such table: ", name);
  for (auto it = projections_.begin(); it != projections_.end();) {
    if (it->second.anchor_table == name) {
      it = projections_.erase(it);
    } else {
      ++it;
    }
  }
  ++version_;
  return Status::OK();
}

Result<TableDef> Catalog::GetTable(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: ", name);
  return it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, def] : tables_) names.push_back(name);
  return names;
}

Status Catalog::ValidateProjection(ProjectionDef* proj) const {
  auto it = tables_.find(proj->anchor_table);
  if (it == tables_.end())
    return Status::NotFound("anchor table not found: ", proj->anchor_table);
  const TableDef& table = it->second;

  if (proj->columns.empty())
    return Status::InvalidArgument("projection needs columns: ", proj->name);

  // Resolve every column against the anchor table.
  for (auto& pc : proj->columns) {
    int idx = table.FindColumn(pc.name);
    if (idx < 0)
      return Status::AnalysisError("projection column not in table: ", pc.name);
    pc.table_column = idx;
    if (!EncodingSupports(pc.encoding, StorageClassOf(table.columns[idx].type)))
      return Status::InvalidArgument("encoding ", EncodingName(pc.encoding),
                                     " unsupported for column ", pc.name);
  }
  for (uint32_t s : proj->sort_columns) {
    if (s >= proj->columns.size())
      return Status::InvalidArgument("sort column index out of range in ", proj->name);
  }
  // Super: covers every anchor column.
  size_t covered = 0;
  for (const auto& c : table.columns) {
    if (proj->FindColumn(c.name) >= 0) ++covered;
  }
  proj->is_super = covered == table.columns.size();

  if (!proj->segmentation.replicated) {
    if (!proj->segmentation.expr)
      return Status::InvalidArgument("segmented projection needs an expression");
    STRATICA_RETURN_NOT_OK(
        BindExpr(proj->segmentation.expr, proj->ToBindSchema(table)));
    if (!IsIntegerLike(proj->segmentation.expr->type))
      return Status::InvalidArgument("segmentation expression must be integral");
  }
  return Status::OK();
}

Status Catalog::CreateProjection(ProjectionDef proj) {
  std::lock_guard lock(mu_);
  if (projections_.count(proj.name))
    return Status::AlreadyExists("projection exists: ", proj.name);
  STRATICA_RETURN_NOT_OK(ValidateProjection(&proj));
  projections_.emplace(proj.name, std::move(proj));
  ++version_;
  return Status::OK();
}

Status Catalog::DropProjection(const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = projections_.find(name);
  if (it == projections_.end()) return Status::NotFound("no such projection: ", name);
  // Enforce the super-projection invariant: the last super projection of a
  // table (and its buddies) cannot be dropped while the table exists.
  if (it->second.is_super && it->second.buddy_of.empty()) {
    int supers = 0;
    for (const auto& [n, p] : projections_) {
      if (p.anchor_table == it->second.anchor_table && p.is_super && p.buddy_of.empty())
        ++supers;
    }
    if (supers <= 1 && tables_.count(it->second.anchor_table))
      return Status::InvalidArgument("cannot drop the last super projection of ",
                                     it->second.anchor_table);
  }
  projections_.erase(it);
  ++version_;
  return Status::OK();
}

Result<ProjectionDef> Catalog::GetProjection(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = projections_.find(name);
  if (it == projections_.end()) return Status::NotFound("no such projection: ", name);
  return it->second;
}

std::vector<ProjectionDef> Catalog::ProjectionsForTable(const std::string& table) const {
  std::lock_guard lock(mu_);
  std::vector<ProjectionDef> out;
  for (const auto& [name, p] : projections_) {
    if (p.anchor_table == table) out.push_back(p);
  }
  return out;
}

std::vector<std::string> Catalog::ProjectionNames() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, p] : projections_) names.push_back(name);
  return names;
}

bool Catalog::HasSuperProjection(const std::string& table) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, p] : projections_) {
    if (p.anchor_table == table && p.is_super) return true;
  }
  return false;
}

uint64_t Catalog::version() const {
  std::lock_guard lock(mu_);
  return version_;
}

// ---------------------------------------------------------------------------
// Persistence: line-oriented text snapshot. Each record is one line;
// embedded expressions use the s-expression serializer.

namespace {
std::string JoinInts(const std::vector<uint32_t>& v) {
  std::string s;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(v[i]);
  }
  return s;
}
}  // namespace

Status Catalog::Save(FileSystem* fs, const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ostringstream out;
  out << "stratica_catalog_v1\n";
  out << "version\t" << version_ << "\n";
  for (const auto& [name, t] : tables_) {
    out << "table\t" << name << "\t" << t.columns.size() << "\t"
        << (t.partition_by ? SerializeExpr(*t.partition_by) : "-") << "\n";
    for (const auto& c : t.columns) {
      out << "column\t" << c.name << "\t" << static_cast<int>(c.type) << "\t"
          << (c.nullable ? 1 : 0) << "\n";
    }
  }
  for (const auto& [name, p] : projections_) {
    out << "projection\t" << name << "\t" << p.anchor_table << "\t"
        << p.columns.size() << "\t" << JoinInts(p.sort_columns) << "\t"
        << (p.segmentation.replicated ? "-" : SerializeExpr(*p.segmentation.expr))
        << "\t" << p.segmentation.node_offset << "\t" << (p.is_super ? 1 : 0) << "\t"
        << (p.buddy_of.empty() ? "-" : p.buddy_of) << "\n";
    for (const auto& pc : p.columns) {
      out << "pcolumn\t" << pc.name << "\t" << pc.table_column << "\t"
          << static_cast<int>(pc.encoding) << "\n";
    }
  }
  // Catalog snapshots carry the integrity footer: a torn backup must fail
  // restore loudly, not parse a prefix (DESIGN.md §10).
  return WriteFileChecksummed(fs, path, out.str());
}

namespace {
std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  if (s.empty()) return out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ',') {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}
}  // namespace

Status Catalog::Load(FileSystem* fs, const std::string& path) {
  STRATICA_ASSIGN_OR_RETURN(std::string data, ReadFileChecksummed(fs, path));
  std::lock_guard lock(mu_);
  tables_.clear();
  projections_.clear();
  std::istringstream in(data);
  std::string line;
  if (!std::getline(in, line) || line != "stratica_catalog_v1")
    return Status::Corruption("bad catalog header");
  TableDef* cur_table = nullptr;
  ProjectionDef* cur_proj = nullptr;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto f = SplitTabs(line);
    if (f[0] == "version") {
      version_ = std::strtoull(f[1].c_str(), nullptr, 10);
    } else if (f[0] == "table") {
      TableDef t;
      t.name = f[1];
      if (f[3] != "-") {
        STRATICA_ASSIGN_OR_RETURN(t.partition_by, ParseSerializedExpr(f[3]));
      }
      cur_table = &tables_.emplace(t.name, std::move(t)).first->second;
      cur_proj = nullptr;
    } else if (f[0] == "column") {
      if (!cur_table) return Status::Corruption("column before table");
      cur_table->columns.push_back(
          {f[1], static_cast<TypeId>(std::atoi(f[2].c_str())), f[3] == "1"});
    } else if (f[0] == "projection") {
      ProjectionDef p;
      p.name = f[1];
      p.anchor_table = f[2];
      for (const auto& s : SplitCommas(f[4]))
        p.sort_columns.push_back(static_cast<uint32_t>(std::atoi(s.c_str())));
      if (f[5] == "-") {
        p.segmentation.replicated = true;
      } else {
        STRATICA_ASSIGN_OR_RETURN(p.segmentation.expr, ParseSerializedExpr(f[5]));
      }
      p.segmentation.node_offset = static_cast<uint32_t>(std::atoi(f[6].c_str()));
      p.is_super = f[7] == "1";
      if (f[8] != "-") p.buddy_of = f[8];
      cur_proj = &projections_.emplace(p.name, std::move(p)).first->second;
      cur_table = nullptr;
    } else if (f[0] == "pcolumn") {
      if (!cur_proj) return Status::Corruption("pcolumn before projection");
      cur_proj->columns.push_back(
          {f[1], std::atoi(f[2].c_str()),
           static_cast<EncodingId>(std::atoi(f[3].c_str()))});
    } else {
      return Status::Corruption("unknown catalog record: ", f[0]);
    }
  }
  // Rebind expressions against the loaded schemas.
  for (auto& [name, t] : tables_) {
    if (t.partition_by) STRATICA_RETURN_NOT_OK(BindExpr(t.partition_by, t.ToBindSchema()));
  }
  for (auto& [name, p] : projections_) {
    auto it = tables_.find(p.anchor_table);
    if (it == tables_.end()) return Status::Corruption("projection without table");
    for (const auto& pc : p.columns) {
      if (pc.table_column < 0 ||
          pc.table_column >= static_cast<int>(it->second.columns.size()))
        return Status::Corruption("projection column not in table: ", pc.name);
    }
    if (!p.segmentation.replicated) {
      STRATICA_RETURN_NOT_OK(
          BindExpr(p.segmentation.expr, p.ToBindSchema(it->second)));
    }
  }
  return Status::OK();
}

ProjectionDef MakeDefaultSuperProjection(const TableDef& table, bool replicated) {
  ProjectionDef p;
  p.name = table.name + "_super";
  p.anchor_table = table.name;
  for (const auto& c : table.columns) {
    p.columns.push_back({c.name, table.FindColumn(c.name), EncodingId::kAuto});
  }
  // Sort by the leading columns (up to 3), a reasonable DBD-like default.
  for (uint32_t i = 0; i < table.columns.size() && i < 3; ++i)
    p.sort_columns.push_back(i);
  if (replicated) {
    p.segmentation.replicated = true;
  } else {
    p.segmentation.expr = Func(FuncKind::kHash, {Col(table.columns[0].name)});
  }
  p.is_super = true;
  return p;
}

ProjectionDef MakeBuddyProjection(const ProjectionDef& primary, uint32_t offset) {
  ProjectionDef buddy = primary;
  buddy.name = primary.name + "_b" + std::to_string(offset);
  buddy.buddy_of = primary.name;
  buddy.segmentation.node_offset = offset;
  if (buddy.segmentation.expr) buddy.segmentation.expr = CloneExpr(buddy.segmentation.expr);
  return buddy;
}

}  // namespace stratica
