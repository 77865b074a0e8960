#include "storage/persistence.h"

#include <cstdio>
#include <fstream>

#include "storage/store_file.h"

namespace fedaqp {

namespace {

constexpr uint32_t kTableMagic = 0xFEDA0001;
constexpr uint32_t kStoreMagic = 0xFEDA0002;
constexpr uint32_t kVersion = 1;

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::Internal("short read from '" + path + "'");
  }
  return bytes;
}

Status CheckHeader(ByteReader* r, uint32_t expected_magic) {
  FEDAQP_ASSIGN_OR_RETURN(uint32_t magic, r->GetU32());
  if (magic != expected_magic) {
    return Status::InvalidArgument("bad file magic");
  }
  FEDAQP_ASSIGN_OR_RETURN(uint32_t version, r->GetU32());
  if (version != kVersion) {
    return Status::NotSupported("unsupported file version " +
                                std::to_string(version));
  }
  return Status::OK();
}

}  // namespace

void SerializeTable(const Table& table, ByteWriter* w) {
  EncodeSchema(table.schema(), w);
  w->PutU64(table.num_rows());
  for (const auto& row : table.rows()) {
    for (Value v : row.values) w->PutI64(v);
    w->PutI64(row.measure);
  }
}

Result<Table> DeserializeTable(ByteReader* r) {
  FEDAQP_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  FEDAQP_ASSIGN_OR_RETURN(uint64_t rows, r->GetU64());
  const size_t dims = schema.num_dims();
  Table table(std::move(schema));
  for (uint64_t i = 0; i < rows; ++i) {
    Row row;
    row.values.resize(dims);
    for (size_t d = 0; d < dims; ++d) {
      FEDAQP_ASSIGN_OR_RETURN(row.values[d], r->GetI64());
    }
    FEDAQP_ASSIGN_OR_RETURN(row.measure, r->GetI64());
    FEDAQP_RETURN_IF_ERROR(table.Append(std::move(row)));
  }
  return table;
}

Status SaveTable(const Table& table, const std::string& path) {
  ByteWriter w;
  w.PutU32(kTableMagic);
  w.PutU32(kVersion);
  SerializeTable(table, &w);
  return WriteFile(path, w.bytes());
}

Result<Table> LoadTable(const std::string& path) {
  FEDAQP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  ByteReader r(bytes);
  FEDAQP_RETURN_IF_ERROR(CheckHeader(&r, kTableMagic));
  return DeserializeTable(&r);
}

Status SaveClusterStore(const ClusterStore& store, const std::string& path) {
  ByteWriter w;
  w.PutU32(kStoreMagic);
  w.PutU32(kVersion);
  w.PutU64(store.options().cluster_capacity);
  // Rows are materialized in physical (cluster) order; reloading rebuilds
  // with the sequential layout, which reproduces the exact same balanced
  // clusters regardless of the layout used at original build time.
  EncodeSchema(store.schema(), &w);
  w.PutU64(store.TotalRows());
  store.ForEachCluster([&](const Cluster& cluster) {
    for (size_t i = 0; i < cluster.num_rows(); ++i) {
      for (size_t d = 0; d < cluster.num_dims(); ++d) {
        w.PutI64(cluster.at(i, d));
      }
      w.PutI64(cluster.measure(i));
    }
  });
  return WriteFile(path, w.bytes());
}

Result<ClusterStore> LoadClusterStore(const std::string& path) {
  // Sniff the magic first: mapped-format files (storage/store_file.h)
  // route to the mmap opener, so callers load either format through this
  // one entry point.
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open '" + path + "'");
    uint8_t m[4] = {0, 0, 0, 0};
    in.read(reinterpret_cast<char*>(m), 4);
    const uint32_t magic = static_cast<uint32_t>(m[0]) |
                           (static_cast<uint32_t>(m[1]) << 8) |
                           (static_cast<uint32_t>(m[2]) << 16) |
                           (static_cast<uint32_t>(m[3]) << 24);
    if (in.gcount() == 4 && magic == kMappedStoreMagic) {
      return ClusterStore::OpenMapped(path);
    }
  }
  FEDAQP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path));
  ByteReader r(bytes);
  FEDAQP_RETURN_IF_ERROR(CheckHeader(&r, kStoreMagic));
  FEDAQP_ASSIGN_OR_RETURN(uint64_t capacity, r.GetU64());
  FEDAQP_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(&r));
  FEDAQP_ASSIGN_OR_RETURN(uint64_t rows, r.GetU64());
  const size_t dims = schema.num_dims();
  Table table(std::move(schema));
  for (uint64_t i = 0; i < rows; ++i) {
    Row row;
    row.values.resize(dims);
    for (size_t d = 0; d < dims; ++d) {
      FEDAQP_ASSIGN_OR_RETURN(row.values[d], r.GetI64());
    }
    FEDAQP_ASSIGN_OR_RETURN(row.measure, r.GetI64());
    FEDAQP_RETURN_IF_ERROR(table.Append(std::move(row)));
  }
  ClusterStoreOptions opts;
  opts.cluster_capacity = static_cast<size_t>(capacity);
  opts.layout = ClusterLayout::kSequential;
  return ClusterStore::Build(table, opts);
}

}  // namespace fedaqp
