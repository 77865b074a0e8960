#ifndef FEDAQP_STORAGE_SCHEMA_H_
#define FEDAQP_STORAGE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fedaqp {

class ByteReader;  // common/bytes.h
class ByteWriter;

/// Dimension values are discrete, totally ordered integers in
/// [0, domain_size), matching the paper's data model (Sec. 3): every
/// attribute is assumed to have a discrete and totally ordered domain.
using Value = int64_t;

/// One dimension (attribute) of a table.
struct Dimension {
  /// Attribute name, e.g. "age".
  std::string name;
  /// Number of distinct values; the domain is {0, 1, ..., domain_size-1}.
  Value domain_size = 0;
};

/// Ordered list of dimensions shared by every provider in a federation
/// (the paper assumes a public, common schema for the horizontal partition).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Dimension> dims) : dims_(std::move(dims)) {}

  /// Appends a dimension. Returns InvalidArgument on duplicate name or
  /// non-positive domain.
  Status AddDimension(const std::string& name, Value domain_size);

  /// Number of dimensions.
  size_t num_dims() const { return dims_.size(); }

  /// Dimension at `index` (bounds-checked by assert in debug builds).
  const Dimension& dim(size_t index) const { return dims_[index]; }

  const std::vector<Dimension>& dims() const { return dims_; }

  /// Index of the dimension named `name`, or NotFound.
  Result<size_t> IndexOf(const std::string& name) const;

  /// True iff `v` lies inside dimension `index`'s domain.
  bool InDomain(size_t index, Value v) const {
    return index < dims_.size() && v >= 0 && v < dims_[index].domain_size;
  }

  /// Schema with only the dimensions whose indexes are listed in `keep`
  /// (used when building a count tensor over a subset of attributes).
  Result<Schema> Project(const std::vector<size_t>& keep) const;

  /// Structural equality (names and domains).
  bool operator==(const Schema& other) const;

  /// Human-readable one-liner: "age[100], income[50], ...".
  std::string ToString() const;

 private:
  std::vector<Dimension> dims_;
};

/// The one schema codec, shared by the wire protocol and the store file
/// formats: a u32 dimension count, then per dimension a length-prefixed
/// name and an i64 domain size.
void EncodeSchema(const Schema& schema, ByteWriter* w);

/// Reads EncodeSchema's bytes. A dimension count the remaining bytes
/// cannot hold (each dimension takes at least 12) is OutOfRange before
/// anything is read, and every dimension is re-validated through
/// AddDimension, so corrupt or hostile bytes yield a Status, never a
/// malformed schema.
Result<Schema> DecodeSchema(ByteReader* r);

}  // namespace fedaqp

#endif  // FEDAQP_STORAGE_SCHEMA_H_
