#ifndef MINIHIVE_QL_TABLE_OPS_H_
#define MINIHIVE_QL_TABLE_OPS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "dfs/file_system.h"
#include "ql/ast.h"
#include "ql/catalog.h"

namespace minihive::ql {

/// Hive-style partition path component for one value: "col=<encoded>".
/// '%'-escapes the characters that would break the directory grammar
/// ('/', '=', '%', control bytes); NULL encodes as the Hive sentinel
/// "__HIVE_DEFAULT_PARTITION__".
std::string EncodePartitionComponent(const std::string& column,
                                     const Value& value);

/// Directory (relative to the table's path_prefix, no leading/trailing '/')
/// holding files of the given partition: "p1=v1/p2=v2". Empty for
/// unpartitioned tables.
std::string PartitionDirName(const TableDesc& table,
                             const std::vector<Value>& partition_values);

/// Fixed-width commit sequence for file names, so lexicographic and commit
/// order agree in listings. Wide enough for any uint64_t — a narrower pad
/// would silently break the ordering invariant once it overflowed.
std::string SeqString(uint64_t seq);

/// The unique-key index's key for a key column value: its ascending shuffle
/// key bytes. INSERT coerces a value to its column's kind first, so one
/// column's values share one encoding (-0.0 and 0.0 are one key).
std::string UniqueKeyBytes(const Value& v);

/// Executes the DDL/DML statement forms over managed tables: CREATE TABLE,
/// DROP TABLE, INSERT INTO (with unique-key upsert), DELETE FROM. SELECT
/// statements are the Driver's job, not this class's.
///
/// Commit protocol (docs/TABLE_FORMAT.md): every data or sidecar file is
/// written under an attempt-scoped name and atomically Rename()d to its
/// final name; the statement's effects become visible in one snapshot swap
/// at the end. A failure at any earlier point leaves the published snapshot
/// untouched — at worst an invisible orphan attempt/part file remains,
/// which DROP TABLE and compaction's tombstone sweep clean up.
class TableOps {
 public:
  TableOps(dfs::FileSystem* fs, Catalog* catalog)
      : fs_(fs), catalog_(catalog) {}

  /// Dispatches a non-query statement; returns rows affected (inserted or
  /// deleted; 0 for DDL). Statements of kind kQuery are rejected.
  Result<uint64_t> Execute(const AstStatement& statement);

  Result<uint64_t> CreateTable(const AstCreateTable& create);
  Result<uint64_t> DropTable(const std::string& table);
  Result<uint64_t> Insert(const AstInsert& insert);
  Result<uint64_t> Delete(const AstDelete& del);

  /// Cold-start recovery: rebuilds a managed table's snapshot manifest from
  /// its on-disk files. Lists the table's directory, adopts committed
  /// `part-*` data files (dropping files superseded by a compaction
  /// output's `.r<first>-<last>` replace range, and deleting orphan
  /// `attempt-*` / `.del.attempt` files), decodes each `.del` sidecar back
  /// into the file's delete bitmap, re-derives partition values and the
  /// unique-key index by reading the files in commit order, and publishes
  /// the result as the next snapshot. Catalog metadata itself is not
  /// durable: the caller re-issues CREATE TABLE first, then calls this.
  /// Returns the number of data files adopted. See docs/TABLE_FORMAT.md
  /// for what recovery can and cannot promise.
  Result<uint64_t> RecoverTable(const std::string& name);

 private:
  dfs::FileSystem* fs_;
  Catalog* catalog_;
};

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_TABLE_OPS_H_
