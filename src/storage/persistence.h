#ifndef FEDAQP_STORAGE_PERSISTENCE_H_
#define FEDAQP_STORAGE_PERSISTENCE_H_

#include <string>

#include "common/result.h"
#include "storage/cluster_store.h"
#include "storage/table.h"

namespace fedaqp {

/// Binary persistence for tables and cluster stores so a provider's
/// offline phase (tensor construction, clustering, metadata) can be done
/// once and reloaded on restart — the operational mode the paper's
/// PostgreSQL proof-of-concept gets for free from the DBMS.
///
/// Format: a magic tag + version, then the ByteWriter-encoded payload.
/// Loads reject bad magic, bad version, and truncated files.

/// Serializes a full table (schema + rows).
void SerializeTable(const Table& table, ByteWriter* w);
Result<Table> DeserializeTable(ByteReader* r);

/// Writes `table` to `path` (overwriting), fsync-free.
Status SaveTable(const Table& table, const std::string& path);
Result<Table> LoadTable(const std::string& path);

/// Persists a cluster store: schema, options and clusters with rows. The
/// rebuilt store is bit-identical in content (ids, order, min/max).
Status SaveClusterStore(const ClusterStore& store, const std::string& path);
Result<ClusterStore> LoadClusterStore(const std::string& path);

}  // namespace fedaqp

#endif  // FEDAQP_STORAGE_PERSISTENCE_H_
