#include "ql/table_ops.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/delete_bitmap.h"
#include "common/types.h"
#include "mr/shuffle_record.h"
#include "orc/reader.h"
#include "orc/writer.h"
#include "ql/analyzer.h"

namespace minihive::ql {

namespace {

/// Maps a Hive type name (already uppercased by the parser) to a schema
/// node. INTEGER/LONG are accepted as aliases, as in Hive's DDL.
Result<TypePtr> TypeFromName(const std::string& name) {
  if (name == "BOOLEAN") return TypeDescription::CreateBoolean();
  if (name == "TINYINT") return TypeDescription::CreateTinyInt();
  if (name == "SMALLINT") return TypeDescription::CreateSmallInt();
  if (name == "INT" || name == "INTEGER") return TypeDescription::CreateInt();
  if (name == "BIGINT" || name == "LONG") return TypeDescription::CreateBigInt();
  if (name == "FLOAT") return TypeDescription::CreateFloat();
  if (name == "DOUBLE") return TypeDescription::CreateDouble();
  if (name == "STRING" || name == "VARCHAR") {
    return TypeDescription::CreateString();
  }
  if (name == "TIMESTAMP") return TypeDescription::CreateTimestamp();
  return Status::InvalidArgument("unsupported column type: " + name);
}

/// Coerces an evaluated VALUES expression into the column's kind, mirroring
/// Hive's implicit numeric conversions (int -> double) but rejecting lossy
/// or cross-family ones.
Result<Value> CoerceValue(const Value& v, TypeKind kind,
                          const std::string& column) {
  if (v.is_null()) return v;
  switch (kind) {
    case TypeKind::kBoolean:
      if (v.is_int()) return Value::Bool(v.AsBool());
      break;
    case TypeKind::kTinyInt:
    case TypeKind::kSmallInt:
    case TypeKind::kInt:
    case TypeKind::kBigInt:
    case TypeKind::kTimestamp:
      if (v.is_int()) return Value::Int(v.AsInt());
      break;
    case TypeKind::kFloat:
    case TypeKind::kDouble:
      if (v.is_int() || v.is_double()) return Value::Double(v.AsDouble());
      break;
    case TypeKind::kString:
      if (v.is_string()) return v;
      break;
    default:
      break;
  }
  return Status::InvalidArgument("value " + v.ToString() +
                                 " does not fit column " + column + " (" +
                                 TypeKindName(kind) + ")");
}

/// Stages `bitmap` as `<data_path>.del.attempt`. Promotion — the atomic
/// rename onto `<data_path>.del` — happens only after the statement's
/// snapshot publishes (PromoteStagedSidecars), so an on-disk sidecar never
/// marks rows deleted that the statement's commit point has not confirmed:
/// a mid-statement failure leaves only ignorable attempt files behind.
Status StageBitmapSidecar(dfs::FileSystem* fs, const std::string& data_path,
                          const DeleteBitmap& bitmap) {
  const std::string attempt = data_path + ".del.attempt";
  fs->Delete(attempt).ok();  // A crashed statement may have left one.
  auto file = fs->Create(attempt);
  if (!file.ok()) return file.status();
  Status s = (*file)->Append(bitmap.Encode());
  if (s.ok()) s = (*file)->Close();
  if (!s.ok()) fs->Delete(attempt).ok();
  return s;
}

void DeleteStagedSidecars(
    dfs::FileSystem* fs,
    const std::unordered_map<std::string, std::shared_ptr<const DeleteBitmap>>&
        staged) {
  for (const auto& [path, bitmap] : staged) {
    fs->Delete(path + ".del.attempt").ok();
  }
}

/// Renames every staged sidecar into place. Runs after the snapshot swap:
/// the statement has already committed, so a failed rename only means the
/// durable sidecar trails the manifest — recovery would miss the newest
/// deletes for that file, but can never see a phantom delete.
void PromoteStagedSidecars(
    dfs::FileSystem* fs,
    const std::unordered_map<std::string, std::shared_ptr<const DeleteBitmap>>&
        staged) {
  for (const auto& [path, bitmap] : staged) {
    if (!fs->Rename(path + ".del.attempt", path + ".del").ok()) {
      fs->Delete(path + ".del.attempt").ok();
    }
  }
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// A data-file basename taken apart: "part-<seq>" for INSERT output,
/// "part-<seq>.r<first>-<last>" for a compaction output carrying the
/// consecutive sequence range it replaced (recovery drops files in that
/// range — they are tombstones whose reap never ran).
struct DataFileName {
  uint64_t sequence = 0;
  bool replaces = false;
  uint64_t replace_first = 0;
  uint64_t replace_last = 0;
};

bool TakeU64(std::string_view* s, uint64_t* out) {
  size_t digits = 0;
  while (digits < s->size() &&
         std::isdigit(static_cast<unsigned char>((*s)[digits]))) {
    ++digits;
  }
  if (digits == 0) return false;
  auto [p, ec] = std::from_chars(s->data(), s->data() + digits, *out);
  if (ec != std::errc() || p != s->data() + digits) return false;
  s->remove_prefix(digits);
  return true;
}

bool ParseDataFileName(std::string_view base, DataFileName* out) {
  if (base.rfind("part-", 0) != 0) return false;
  base.remove_prefix(5);
  if (!TakeU64(&base, &out->sequence)) return false;
  if (base.empty()) return true;
  if (base.rfind(".r", 0) != 0) return false;
  base.remove_prefix(2);
  if (!TakeU64(&base, &out->replace_first)) return false;
  if (base.empty() || base.front() != '-') return false;
  base.remove_prefix(1);
  if (!TakeU64(&base, &out->replace_last) || !base.empty()) return false;
  out->replaces = out->replace_first <= out->replace_last;
  return out->replaces;
}

}  // namespace

std::string EncodePartitionComponent(const std::string& column,
                                     const Value& value) {
  std::string encoded;
  if (value.is_null()) {
    encoded = "__HIVE_DEFAULT_PARTITION__";
  } else {
    const std::string raw = value.ToString();
    for (char c : raw) {
      const unsigned char u = static_cast<unsigned char>(c);
      if (c == '/' || c == '=' || c == '%' || u < 0x20) {
        char buf[4];
        std::snprintf(buf, sizeof(buf), "%%%02X", u);
        encoded += buf;
      } else {
        encoded += c;
      }
    }
  }
  return column + "=" + encoded;
}

std::string PartitionDirName(const TableDesc& table,
                             const std::vector<Value>& partition_values) {
  std::string dir;
  for (size_t i = 0; i < table.partition_cols.size(); ++i) {
    if (!dir.empty()) dir += "/";
    const Value& v =
        i < partition_values.size() ? partition_values[i] : Value::Null();
    dir += EncodePartitionComponent(table.partition_cols[i], v);
  }
  return dir;
}

std::string SeqString(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string UniqueKeyBytes(const Value& v) { return mr::EncodeKey({v}); }

Result<uint64_t> TableOps::Execute(const AstStatement& statement) {
  switch (statement.kind) {
    case AstStatementKind::kCreateTable:
      return CreateTable(*statement.create);
    case AstStatementKind::kDropTable:
      return DropTable(statement.drop_table);
    case AstStatementKind::kInsert:
      return Insert(*statement.insert);
    case AstStatementKind::kDelete:
      return Delete(*statement.delete_stmt);
    case AstStatementKind::kQuery:
      break;
  }
  return Status::InvalidArgument("not a table-mutation statement");
}

Result<uint64_t> TableOps::CreateTable(const AstCreateTable& create) {
  std::vector<std::string> names;
  std::vector<TypePtr> types;
  names.reserve(create.columns.size());
  types.reserve(create.columns.size());
  for (const AstColumnDef& col : create.columns) {
    MINIHIVE_ASSIGN_OR_RETURN(TypePtr type, TypeFromName(col.type));
    names.push_back(col.name);
    types.push_back(std::move(type));
  }
  TypePtr schema = MakeTableSchema(names, types);
  MINIHIVE_RETURN_IF_ERROR(catalog_->CreateManagedTable(
      create.table, std::move(schema), create.partition_cols,
      create.unique_key));
  return 0;
}

Result<uint64_t> TableOps::DropTable(const std::string& table) {
  MINIHIVE_RETURN_IF_ERROR(catalog_->DropTable(table));
  return 0;
}

Result<uint64_t> TableOps::Insert(const AstInsert& insert) {
  // A copy (shares ManagedTableState via shared_ptr): survives a
  // concurrent DROP TABLE, which a raw GetTable() pointer would not.
  MINIHIVE_ASSIGN_OR_RETURN(const TableDesc table,
                            catalog_->GetTableCopy(insert.table));
  if (!table.managed()) {
    return Status::InvalidArgument("INSERT INTO requires a managed table: " +
                                   insert.table);
  }
  const auto& names = table.schema->field_names();
  const size_t num_cols = names.size();
  const std::vector<int> part_idx = table.PartitionIndexes();
  const int key_idx =
      table.unique_key.empty() ? -1 : table.FieldIndex(table.unique_key);

  // Evaluate and coerce every VALUES tuple before taking the write lock:
  // a malformed row must fail the statement with nothing written.
  std::vector<Row> rows;
  rows.reserve(insert.rows.size());
  for (const auto& exprs : insert.rows) {
    if (exprs.size() != num_cols) {
      return Status::InvalidArgument(
          "INSERT INTO " + insert.table + " expects " +
          std::to_string(num_cols) + " values per row, got " +
          std::to_string(exprs.size()));
    }
    Row row(num_cols);
    for (size_t i = 0; i < num_cols; ++i) {
      MINIHIVE_ASSIGN_OR_RETURN(
          exec::ExprPtr expr, ResolveScalarExpr(*exprs[i], table.schema));
      std::vector<int> cols;
      expr->CollectColumns(&cols);
      if (!cols.empty()) {
        return Status::InvalidArgument(
            "VALUES expressions must not reference columns");
      }
      MINIHIVE_ASSIGN_OR_RETURN(
          row[i], CoerceValue(expr->Eval(Row()),
                              table.schema->children()[i]->kind(), names[i]));
    }
    for (int idx : part_idx) {
      if (row[idx].is_null()) {
        return Status::InvalidArgument("partition column " + names[idx] +
                                       " must not be NULL");
      }
    }
    if (key_idx >= 0 && row[key_idx].is_null()) {
      return Status::InvalidArgument("unique key column " +
                                     table.unique_key + " must not be NULL");
    }
    rows.push_back(std::move(row));
  }
  const uint64_t rows_affected = rows.size();

  // Statement-level upsert semantics: with a unique key, the last tuple for
  // a key wins; earlier duplicates never reach storage.
  if (key_idx >= 0) {
    std::unordered_map<std::string, size_t> last_of_key;
    for (size_t i = 0; i < rows.size(); ++i) {
      last_of_key[UniqueKeyBytes(rows[i][key_idx])] = i;
    }
    if (last_of_key.size() != rows.size()) {
      std::vector<Row> deduped;
      deduped.reserve(last_of_key.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        if (last_of_key[UniqueKeyBytes(rows[i][key_idx])] == i) {
          deduped.push_back(std::move(rows[i]));
        }
      }
      rows = std::move(deduped);
    }
  }

  // One output file per touched partition, in statement order within each.
  struct Group {
    std::vector<Value> values;
    std::vector<Row> rows;
  };
  std::map<std::string, Group> groups;  // Keyed by dir name: deterministic.
  for (Row& row : rows) {
    std::vector<Value> pv;
    pv.reserve(part_idx.size());
    for (int idx : part_idx) pv.push_back(row[idx]);
    std::string dir = PartitionDirName(table, pv);
    Group& g = groups[dir];
    if (g.rows.empty()) g.values = std::move(pv);
    g.rows.push_back(std::move(row));
  }

  ManagedTableState* state = table.state.get();
  std::lock_guard<std::mutex> lock(state->write_mu);
  // DROP TABLE won the race for write_mu: the directory is gone.
  if (state->dropped) {
    return Status::NotFound("no such table: " + insert.table);
  }

  std::vector<TableFile> new_files;
  std::vector<std::pair<std::string, RowLocation>> index_updates;
  std::unordered_map<std::string, std::vector<uint64_t>> upsert_marks;
  for (auto& [dir, group] : groups) {
    const uint64_t seq = state->next_sequence++;
    const std::string dir_path =
        dir.empty() ? table.path_prefix : table.path_prefix + "/" + dir;
    const std::string attempt_path = dir_path + "/attempt-" + SeqString(seq);
    const std::string final_path = dir_path + "/part-" + SeqString(seq);

    orc::OrcWriterOptions wopts;
    wopts.compression = table.compression;
    auto writer = orc::OrcWriter::Create(fs_, attempt_path, table.schema,
                                         wopts);
    if (!writer.ok()) {
      fs_->Delete(attempt_path).ok();
      return writer.status();
    }
    Status s = Status::OK();
    for (const Row& row : group.rows) {
      s = (*writer)->AddRow(row);
      if (!s.ok()) break;
    }
    if (s.ok()) s = (*writer)->Close();
    if (s.ok()) s = fs_->Rename(attempt_path, final_path);
    if (!s.ok()) {
      fs_->Delete(attempt_path).ok();
      return s;
    }

    TableFile f;
    f.path = final_path;
    f.partition_values = group.values;
    f.num_rows = group.rows.size();
    auto size = fs_->FileSize(final_path);
    f.bytes = size.ok() ? *size : 0;
    f.sequence = seq;
    new_files.push_back(std::move(f));

    if (key_idx >= 0) {
      for (size_t i = 0; i < group.rows.size(); ++i) {
        std::string key = UniqueKeyBytes(group.rows[i][key_idx]);
        auto it = state->key_index.find(key);
        if (it != state->key_index.end()) {
          upsert_marks[it->second.path].push_back(it->second.ordinal);
        }
        index_updates.emplace_back(
            std::move(key), RowLocation{final_path, static_cast<uint64_t>(i)});
      }
    }
  }

  // Upsert losers: grow the loser file's bitmap and stage the sidecar;
  // promotion to `.del` waits until the snapshot swap has committed the
  // statement, so disk never claims a delete the manifest doesn't show.
  std::unordered_map<std::string, std::shared_ptr<const DeleteBitmap>>
      new_bitmaps;
  std::shared_ptr<const TableSnapshot> snapshot = catalog_->Snapshot(table);
  for (auto& [path, ordinals] : upsert_marks) {
    const TableFile* found = nullptr;
    for (const TableFile& f : snapshot->files) {
      if (f.path == path) {
        found = &f;
        break;
      }
    }
    if (found == nullptr) continue;  // Compacted away concurrently: stale.
    auto bm = found->delete_bitmap != nullptr
                  ? std::make_shared<DeleteBitmap>(*found->delete_bitmap)
                  : std::make_shared<DeleteBitmap>(found->num_rows);
    for (uint64_t ordinal : ordinals) bm->MarkDeleted(ordinal);
    Status staged = StageBitmapSidecar(fs_, path, *bm);
    if (!staged.ok()) {
      DeleteStagedSidecars(fs_, new_bitmaps);
      return staged;
    }
    new_bitmaps[path] = std::move(bm);
  }

  Status published = catalog_->PublishSnapshot(
      table, [&](TableSnapshot* snap) {
        for (TableFile& f : snap->files) {
          auto it = new_bitmaps.find(f.path);
          if (it != new_bitmaps.end()) f.delete_bitmap = it->second;
        }
        for (TableFile& f : new_files) snap->files.push_back(std::move(f));
        return Status::OK();
      });
  if (!published.ok()) {
    DeleteStagedSidecars(fs_, new_bitmaps);
    return published;
  }
  PromoteStagedSidecars(fs_, new_bitmaps);
  for (auto& [key, location] : index_updates) {
    state->key_index[key] = location;
  }
  return rows_affected;
}

Result<uint64_t> TableOps::Delete(const AstDelete& del) {
  // A copy (shares ManagedTableState via shared_ptr): survives a
  // concurrent DROP TABLE, which a raw GetTable() pointer would not.
  MINIHIVE_ASSIGN_OR_RETURN(const TableDesc table,
                            catalog_->GetTableCopy(del.table));
  if (!table.managed()) {
    return Status::InvalidArgument("DELETE FROM requires a managed table: " +
                                   del.table);
  }
  exec::ExprPtr predicate;
  if (del.where != nullptr) {
    MINIHIVE_ASSIGN_OR_RETURN(predicate,
                              ResolveScalarExpr(*del.where, table.schema));
  }
  const int key_idx =
      table.unique_key.empty() ? -1 : table.FieldIndex(table.unique_key);

  ManagedTableState* state = table.state.get();
  std::lock_guard<std::mutex> lock(state->write_mu);
  // DROP TABLE won the race for write_mu: the directory is gone.
  if (state->dropped) return Status::NotFound("no such table: " + del.table);
  std::shared_ptr<const TableSnapshot> snapshot = catalog_->Snapshot(table);

  uint64_t deleted = 0;
  std::unordered_map<std::string, std::shared_ptr<const DeleteBitmap>>
      new_bitmaps;
  std::vector<std::string> removed_keys;
  for (const TableFile& file : snapshot->files) {
    // Scan the file WITHOUT its bitmap: the matcher needs physical row
    // ordinals, and already-deleted rows are skipped here instead.
    MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<orc::OrcReader> reader,
                              orc::OrcReader::Open(fs_, file.path));
    Row row;
    uint64_t ordinal = 0;
    std::shared_ptr<DeleteBitmap> bm;
    while (true) {
      MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->NextRow(&row));
      if (!more) break;
      const uint64_t o = ordinal++;
      if (file.delete_bitmap != nullptr && file.delete_bitmap->IsDeleted(o)) {
        continue;
      }
      if (predicate != nullptr) {
        const Value verdict = predicate->Eval(row);
        if (verdict.is_null() || !verdict.AsBool()) continue;
      }
      if (bm == nullptr) {
        bm = file.delete_bitmap != nullptr
                 ? std::make_shared<DeleteBitmap>(*file.delete_bitmap)
                 : std::make_shared<DeleteBitmap>(file.num_rows);
      }
      if (bm->MarkDeleted(o)) ++deleted;
      if (key_idx >= 0 && !row[key_idx].is_null()) {
        removed_keys.push_back(UniqueKeyBytes(row[key_idx]));
      }
    }
    if (bm != nullptr) {
      // Staged, not promoted: a failure on a later file must not leave
      // this one's on-disk sidecar claiming uncommitted deletes.
      Status staged = StageBitmapSidecar(fs_, file.path, *bm);
      if (!staged.ok()) {
        DeleteStagedSidecars(fs_, new_bitmaps);
        return staged;
      }
      new_bitmaps[file.path] = std::move(bm);
    }
  }
  if (new_bitmaps.empty()) return 0;

  Status published = catalog_->PublishSnapshot(
      table, [&](TableSnapshot* snap) {
        for (TableFile& f : snap->files) {
          auto it = new_bitmaps.find(f.path);
          if (it != new_bitmaps.end()) f.delete_bitmap = it->second;
        }
        return Status::OK();
      });
  if (!published.ok()) {
    DeleteStagedSidecars(fs_, new_bitmaps);
    return published;
  }
  PromoteStagedSidecars(fs_, new_bitmaps);
  for (const std::string& key : removed_keys) state->key_index.erase(key);
  return deleted;
}

Result<uint64_t> TableOps::RecoverTable(const std::string& name) {
  MINIHIVE_ASSIGN_OR_RETURN(const TableDesc table,
                            catalog_->GetTableCopy(name));
  if (!table.managed()) {
    return Status::InvalidArgument("recovery requires a managed table: " +
                                   name);
  }
  const std::vector<int> part_idx = table.PartitionIndexes();
  const int key_idx =
      table.unique_key.empty() ? -1 : table.FieldIndex(table.unique_key);

  ManagedTableState* state = table.state.get();
  std::lock_guard<std::mutex> lock(state->write_mu);
  if (state->dropped) return Status::NotFound("no such table: " + name);

  // Pass 1: classify every file under the prefix. Orphans of interrupted
  // statements (attempt-* data files, .del.attempt sidecars that were
  // staged but never promoted) are deleted — they never committed.
  struct FoundFile {
    std::string path;
    std::string dir;
    DataFileName name;
  };
  std::vector<FoundFile> found;
  // Replace ranges per directory, from every compaction output seen — even
  // a superseded one: ranges chain across repeated compactions, so a file
  // that itself gets dropped still testifies against the run it replaced.
  std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>> replaced;
  uint64_t max_sequence = 0;
  for (const std::string& path : fs_->List(table.path_prefix + "/")) {
    const size_t slash = path.find_last_of('/');
    const std::string base = path.substr(slash + 1);
    if (EndsWith(base, ".del.attempt") || base.rfind("attempt-", 0) == 0) {
      fs_->Delete(path).ok();
      continue;
    }
    if (EndsWith(base, ".del")) continue;  // Read with its data file below.
    DataFileName parsed;
    if (!ParseDataFileName(base, &parsed)) continue;  // Foreign: leave it.
    max_sequence = std::max(max_sequence, parsed.sequence);
    if (parsed.replaces) {
      max_sequence = std::max(max_sequence, parsed.replace_last);
      replaced[path.substr(0, slash)].emplace_back(parsed.replace_first,
                                                   parsed.replace_last);
    }
    found.push_back({path, path.substr(0, slash), parsed});
  }

  // Pass 2: adopt surviving data files — decode sidecars, count rows, read
  // the partition values off the first row (they are stored in-file by
  // design, precisely so nothing needs to parse directory names), and
  // collect live unique keys for the index rebuild.
  std::vector<TableFile> files;
  std::vector<std::vector<std::pair<std::string, uint64_t>>> live_keys;
  for (const FoundFile& f : found) {
    bool superseded = false;
    auto it = replaced.find(f.dir);
    if (it != replaced.end()) {
      for (const auto& [first, last] : it->second) {
        if (f.name.sequence >= first && f.name.sequence <= last) {
          superseded = true;
          break;
        }
      }
    }
    if (superseded) {
      // A tombstone whose reap never ran: its live rows already exist in
      // the compaction output that names this file's sequence range.
      fs_->Delete(f.path).ok();
      fs_->Delete(f.path + ".del").ok();
      continue;
    }
    std::shared_ptr<const DeleteBitmap> bitmap;
    if (fs_->Exists(f.path + ".del")) {
      MINIHIVE_ASSIGN_OR_RETURN(std::shared_ptr<dfs::ReadableFile> sidecar,
                                fs_->Open(f.path + ".del"));
      std::string encoded;
      MINIHIVE_RETURN_IF_ERROR(
          sidecar->ReadAt(0, sidecar->Size(), &encoded));
      MINIHIVE_ASSIGN_OR_RETURN(DeleteBitmap decoded,
                                DeleteBitmap::Decode(encoded));
      bitmap = std::make_shared<const DeleteBitmap>(std::move(decoded));
    }
    MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<orc::OrcReader> reader,
                              orc::OrcReader::Open(fs_, f.path));
    Row row;
    uint64_t num_rows = 0;
    std::vector<Value> partition_values;
    std::vector<std::pair<std::string, uint64_t>> keys;
    while (true) {
      MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->NextRow(&row));
      if (!more) break;
      if (num_rows == 0) {
        for (int idx : part_idx) partition_values.push_back(row[idx]);
      }
      const uint64_t ordinal = num_rows++;
      if (key_idx >= 0 && !row[key_idx].is_null() &&
          (bitmap == nullptr || !bitmap->IsDeleted(ordinal))) {
        keys.emplace_back(UniqueKeyBytes(row[key_idx]), ordinal);
      }
    }
    if (num_rows == 0) continue;  // Nothing to adopt.
    TableFile tf;
    tf.path = f.path;
    tf.partition_values = std::move(partition_values);
    tf.num_rows = num_rows;
    auto size = fs_->FileSize(f.path);
    tf.bytes = size.ok() ? *size : 0;
    tf.sequence = f.name.sequence;
    tf.delete_bitmap = std::move(bitmap);
    files.push_back(std::move(tf));
    live_keys.push_back(std::move(keys));
  }

  // Pass 3: publish in commit order and rebuild the key index the same way
  // the writers built it — later sequences overwrite earlier ones.
  std::vector<size_t> order(files.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return files[a].sequence < files[b].sequence;
  });
  std::unordered_map<std::string, RowLocation> key_index;
  std::vector<TableFile> ordered;
  ordered.reserve(files.size());
  for (size_t i : order) {
    for (const auto& [key, ordinal] : live_keys[i]) {
      key_index[key] = RowLocation{files[i].path, ordinal};
    }
    ordered.push_back(std::move(files[i]));
  }
  const uint64_t adopted = ordered.size();
  MINIHIVE_RETURN_IF_ERROR(
      catalog_->PublishSnapshot(table, [&](TableSnapshot* snap) {
        snap->files = std::move(ordered);
        return Status::OK();
      }));
  state->key_index = std::move(key_index);
  state->tombstones.clear();
  state->next_sequence = std::max(state->next_sequence, max_sequence + 1);
  return adopted;
}

}  // namespace minihive::ql
