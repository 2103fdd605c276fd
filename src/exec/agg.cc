#include "exec/agg.h"

#include "common/bitutil.h"
#include "storage/encoding.h"

namespace stratica {

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kCountStar: return "COUNT(*)";
    case AggKind::kCount: return "COUNT";
    case AggKind::kSum: return "SUM";
    case AggKind::kAvg: return "AVG";
    case AggKind::kMin: return "MIN";
    case AggKind::kMax: return "MAX";
    case AggKind::kCountDistinct: return "COUNT(DISTINCT)";
  }
  return "?";
}

TypeId AggSpec::OutputType() const {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
    case AggKind::kCountDistinct:
      return TypeId::kInt64;
    case AggKind::kSum:
      return input_type == TypeId::kFloat64 ? TypeId::kFloat64 : TypeId::kInt64;
    case AggKind::kAvg:
      return TypeId::kFloat64;
    case AggKind::kMin:
    case AggKind::kMax:
      return input_type;
  }
  return TypeId::kInt64;
}

std::vector<TypeId> AggSpec::PartialTypes() const {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return {TypeId::kInt64};
    case AggKind::kSum:
      return {OutputType()};
    case AggKind::kAvg:
      return {TypeId::kFloat64, TypeId::kInt64};  // (sum, count)
    case AggKind::kMin:
    case AggKind::kMax:
      return {input_type};
    case AggKind::kCountDistinct:
      return {TypeId::kInt64};  // not partialable; single-phase only
  }
  return {};
}

void AggState::Update(const AggSpec& spec, const ColumnVector& col, size_t phys,
                      uint32_t run) {
  if (spec.kind == AggKind::kCountStar) {
    count += run;
    return;
  }
  if (col.IsNull(phys)) return;  // SQL: aggregates ignore NULL inputs
  switch (spec.kind) {
    case AggKind::kCount:
      count += run;
      break;
    case AggKind::kSum:
    case AggKind::kAvg: {
      // Dict-coded input: resolve the value through the dictionary; the
      // run multiplier is what makes this the RLE building block too.
      const ColumnVector& v = col.IsDictCoded() ? *col.dict : col;
      size_t p = col.IsDictCoded() ? static_cast<size_t>(col.ints[phys]) : phys;
      if (StorageClassOf(col.type) == StorageClass::kFloat64) {
        dsum += v.doubles[p] * run;
      } else {
        isum += v.ints[p] * static_cast<int64_t>(run);
        dsum += static_cast<double>(v.ints[p]) * run;
      }
      count += run;
      break;
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      Value v = col.GetValue(phys);
      if (!has_value || (spec.kind == AggKind::kMin ? v.Compare(extreme) < 0
                                                    : v.Compare(extreme) > 0)) {
        extreme = v;
        has_value = true;
      }
      break;
    }
    case AggKind::kCountDistinct: {
      if (!distinct) distinct = std::make_unique<DistinctSet>();
      std::string key;
      EncodeValue(&key, col.GetValue(phys));
      distinct->Insert(std::move(key));
      break;
    }
    case AggKind::kCountStar:
      break;
  }
}

void AggState::Merge(const AggSpec& spec, const AggState& other) {
  count += other.count;
  isum += other.isum;
  dsum += other.dsum;
  if (other.has_value) {
    if (!has_value || (spec.kind == AggKind::kMin ? other.extreme.Compare(extreme) < 0
                                                  : other.extreme.Compare(extreme) > 0)) {
      extreme = other.extreme;
      has_value = true;
    }
  }
  if (other.distinct) {
    if (!distinct) distinct = std::make_unique<DistinctSet>();
    for (const auto& v : other.distinct->values) distinct->Insert(v);
  }
}

void AggState::UpdatePartial(const AggSpec& spec, const RowBlock& block,
                             size_t first_col, size_t row) {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      count += block.columns[first_col].ints[row];
      break;
    case AggKind::kSum:
      if (StorageClassOf(block.columns[first_col].type) == StorageClass::kFloat64) {
        dsum += block.columns[first_col].doubles[row];
      } else {
        isum += block.columns[first_col].ints[row];
      }
      if (!block.columns[first_col].IsNull(row)) count += 1;
      break;
    case AggKind::kAvg:
      dsum += block.columns[first_col].doubles[row];
      count += block.columns[first_col + 1].ints[row];
      break;
    case AggKind::kMin:
    case AggKind::kMax: {
      if (block.columns[first_col].IsNull(row)) break;
      Value v = block.columns[first_col].GetValue(row);
      if (!has_value || (spec.kind == AggKind::kMin ? v.Compare(extreme) < 0
                                                    : v.Compare(extreme) > 0)) {
        extreme = v;
        has_value = true;
      }
      break;
    }
    case AggKind::kCountDistinct:
      count += block.columns[first_col].ints[row];
      break;
  }
}

Value AggState::Final(const AggSpec& spec) const {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(count);
    case AggKind::kSum:
      if (count == 0) return Value::Null(spec.OutputType());
      return spec.OutputType() == TypeId::kFloat64 ? Value::Float64(dsum)
                                                   : Value::Int64(isum);
    case AggKind::kAvg:
      if (count == 0) return Value::Null(TypeId::kFloat64);
      return Value::Float64(dsum / static_cast<double>(count));
    case AggKind::kMin:
    case AggKind::kMax:
      return has_value ? extreme : Value::Null(spec.input_type);
    case AggKind::kCountDistinct:
      return Value::Int64(distinct ? static_cast<int64_t>(distinct->values.size()) : 0);
  }
  return Value::Null(TypeId::kInt64);
}

void AggState::EmitPartial(const AggSpec& spec, std::vector<ColumnVector>* cols,
                           size_t first_col) const {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      (*cols)[first_col].Append(Value::Int64(count));
      break;
    case AggKind::kSum:
      if (count == 0) {
        (*cols)[first_col].Append(Value::Null(spec.OutputType()));
      } else if (spec.OutputType() == TypeId::kFloat64) {
        (*cols)[first_col].Append(Value::Float64(dsum));
      } else {
        (*cols)[first_col].Append(Value::Int64(isum));
      }
      break;
    case AggKind::kAvg:
      (*cols)[first_col].Append(Value::Float64(dsum));
      (*cols)[first_col + 1].Append(Value::Int64(count));
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      (*cols)[first_col].Append(has_value ? extreme : Value::Null(spec.input_type));
      break;
    case AggKind::kCountDistinct:
      (*cols)[first_col].Append(
          Value::Int64(distinct ? static_cast<int64_t>(distinct->values.size()) : 0));
      break;
  }
}

std::string AggState::Serialize(const AggSpec& spec) const {
  std::string out;
  PutVarint64(&out, static_cast<uint64_t>(count));
  PutVarint64(&out, ZigZagEncode(isum));
  PutFixed(&out, dsum);
  out.push_back(has_value ? 1 : 0);
  if (has_value) EncodeValue(&out, extreme);
  uint64_t nd = distinct ? distinct->values.size() : 0;
  PutVarint64(&out, nd);
  if (distinct) {
    for (const auto& s : distinct->values) {
      PutVarint64(&out, s.size());
      out.append(s);
    }
  }
  (void)spec;
  return out;
}

Result<AggState> AggState::Parse(const AggSpec& spec, const std::string& data) {
  AggState st;
  size_t offset = 0;
  uint64_t v;
  if (!GetVarint64(data, &offset, &v)) return Status::Corruption("agg: count");
  st.count = static_cast<int64_t>(v);
  if (!GetVarint64(data, &offset, &v)) return Status::Corruption("agg: isum");
  st.isum = ZigZagDecode(v);
  if (!GetFixed(data, &offset, &st.dsum)) return Status::Corruption("agg: dsum");
  if (offset >= data.size()) return Status::Corruption("agg: flags");
  st.has_value = data[offset++] != 0;
  if (st.has_value) {
    STRATICA_RETURN_NOT_OK(DecodeValue(data, &offset, spec.input_type, &st.extreme));
  }
  uint64_t nd;
  if (!GetVarint64(data, &offset, &nd)) return Status::Corruption("agg: nd");
  if (nd > 0) {
    st.distinct = std::make_unique<DistinctSet>();
    for (uint64_t i = 0; i < nd; ++i) {
      uint64_t len;
      if (!GetVarint64(data, &offset, &len) || offset + len > data.size())
        return Status::Corruption("agg: distinct entry");
      st.distinct->Insert(data.substr(offset, len));
      offset += len;
    }
  }
  return st;
}

std::vector<TypeId> GroupByOutputTypes(const std::vector<TypeId>& group_types,
                                       const std::vector<AggSpec>& aggs,
                                       AggPhase phase) {
  std::vector<TypeId> out = group_types;
  for (const auto& agg : aggs) {
    if (phase == AggPhase::kPartial) {
      for (TypeId t : agg.PartialTypes()) out.push_back(t);
    } else {
      out.push_back(agg.OutputType());
    }
  }
  return out;
}

}  // namespace stratica
