#include "storage/schema.h"

#include <sstream>

#include "common/bytes.h"

namespace fedaqp {

Status Schema::AddDimension(const std::string& name, Value domain_size) {
  if (name.empty()) {
    return Status::InvalidArgument("dimension name must be non-empty");
  }
  if (domain_size <= 0) {
    return Status::InvalidArgument("dimension '" + name +
                                   "' must have a positive domain size");
  }
  for (const auto& d : dims_) {
    if (d.name == name) {
      return Status::InvalidArgument("duplicate dimension name '" + name + "'");
    }
  }
  dims_.push_back(Dimension{name, domain_size});
  return Status::OK();
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i].name == name) return i;
  }
  return Status::NotFound("no dimension named '" + name + "'");
}

Result<Schema> Schema::Project(const std::vector<size_t>& keep) const {
  Schema out;
  for (size_t idx : keep) {
    if (idx >= dims_.size()) {
      return Status::OutOfRange("projection index out of range");
    }
    FEDAQP_RETURN_IF_ERROR(out.AddDimension(dims_[idx].name, dims_[idx].domain_size));
  }
  return out;
}

bool Schema::operator==(const Schema& other) const {
  if (dims_.size() != other.dims_.size()) return false;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i].name != other.dims_[i].name ||
        dims_[i].domain_size != other.dims_[i].domain_size) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ", ";
    os << dims_[i].name << "[" << dims_[i].domain_size << "]";
  }
  return os.str();
}

void EncodeSchema(const Schema& schema, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(schema.num_dims()));
  for (const Dimension& d : schema.dims()) {
    w->PutString(d.name);
    w->PutI64(d.domain_size);
  }
}

Result<Schema> DecodeSchema(ByteReader* r) {
  FEDAQP_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  // Each dimension is at least a u32 name length + an i64 domain.
  if (n > r->remaining() / 12) {
    return Status::OutOfRange("schema: dimension count exceeds the bytes left");
  }
  Schema schema;
  for (uint32_t i = 0; i < n; ++i) {
    FEDAQP_ASSIGN_OR_RETURN(std::string name, r->GetString());
    FEDAQP_ASSIGN_OR_RETURN(int64_t domain, r->GetI64());
    FEDAQP_RETURN_IF_ERROR(schema.AddDimension(name, domain));
  }
  return schema;
}

}  // namespace fedaqp
