#include "dfs/dfs.h"

#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "common/file_io.h"
#include "common/serial.h"

namespace treeserver {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestFile[] = "_manifest.bin";

void WriteSchema(const Schema& schema, BinaryWriter* w) {
  w->Write<int32_t>(schema.num_columns());
  for (int i = 0; i < schema.num_columns(); ++i) {
    const ColumnMeta& m = schema.column(i);
    w->WriteString(m.name);
    w->Write(static_cast<uint8_t>(m.type));
    w->Write(m.cardinality);
  }
  w->Write<int32_t>(schema.target_index());
  w->Write(static_cast<uint8_t>(schema.task_kind()));
}

Status ReadSchemaBody(BinaryReader* r, Schema* out) {
  int32_t cols;
  TS_RETURN_IF_ERROR(r->Read(&cols));
  std::vector<ColumnMeta> metas(cols);
  for (int32_t i = 0; i < cols; ++i) {
    TS_RETURN_IF_ERROR(r->ReadString(&metas[i].name));
    uint8_t type;
    TS_RETURN_IF_ERROR(r->Read(&type));
    metas[i].type = static_cast<DataType>(type);
    TS_RETURN_IF_ERROR(r->Read(&metas[i].cardinality));
  }
  int32_t target;
  TS_RETURN_IF_ERROR(r->Read(&target));
  uint8_t kind;
  TS_RETURN_IF_ERROR(r->Read(&kind));
  *out = Schema(std::move(metas), target, static_cast<TaskKind>(kind));
  return Status::OK();
}

}  // namespace

LocalDfs::LocalDfs(std::string root, int64_t connect_cost_us)
    : root_(std::move(root)), connect_cost_us_(connect_cost_us) {
  std::error_code ec;
  fs::create_directories(root_, ec);
}

std::string LocalDfs::DatasetDir(const std::string& dataset) const {
  return root_ + "/" + dataset;
}

std::string LocalDfs::GroupFile(const std::string& dataset, int col_group,
                                size_t row_group) const {
  return DatasetDir(dataset) + "/cg" + std::to_string(col_group) + "_rg" +
         std::to_string(row_group) + ".bin";
}

void LocalDfs::ChargeOpen() const {
  opens_.Inc();
  if (connect_cost_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(connect_cost_us_));
  }
}

Status LocalDfs::Put(const DataTable& table, const std::string& dataset,
                     const DfsLayout& layout) {
  if (layout.columns_per_group <= 0 || layout.rows_per_group == 0) {
    return Status::InvalidArgument("invalid DFS layout");
  }
  std::error_code ec;
  fs::remove_all(DatasetDir(dataset), ec);
  fs::create_directories(DatasetDir(dataset), ec);
  if (ec) return Status::IOError("cannot create " + DatasetDir(dataset));

  const int m = table.num_columns();
  const size_t n = table.num_rows();
  const int col_groups =
      (m + layout.columns_per_group - 1) / layout.columns_per_group;
  const size_t row_groups =
      (n + layout.rows_per_group - 1) / layout.rows_per_group;

  for (int cg = 0; cg < col_groups; ++cg) {
    const int col_begin = cg * layout.columns_per_group;
    const int col_end = std::min(m, col_begin + layout.columns_per_group);
    for (size_t rg = 0; rg < row_groups; ++rg) {
      const size_t row_begin = rg * layout.rows_per_group;
      const size_t row_end =
          std::min(n, row_begin + layout.rows_per_group);
      BinaryWriter w;
      for (int c = col_begin; c < col_end; ++c) {
        const ColumnPtr& col = table.column(c);
        if (col->type() == DataType::kNumeric) {
          std::vector<double> chunk(
              col->numeric_values().begin() + row_begin,
              col->numeric_values().begin() + row_end);
          w.WriteVector(chunk);
        } else {
          std::vector<int32_t> chunk(
              col->categorical_codes().begin() + row_begin,
              col->categorical_codes().begin() + row_end);
          w.WriteVector(chunk);
        }
      }
      ChargeOpen();
      TS_RETURN_IF_ERROR(
          WriteFileAtomic(GroupFile(dataset, cg, rg), w.buffer()));
    }
  }

  BinaryWriter w;
  WriteSchema(table.schema(), &w);
  w.Write<int32_t>(layout.columns_per_group);
  w.Write<uint64_t>(layout.rows_per_group);
  w.Write<uint64_t>(n);
  ChargeOpen();
  return WriteFileAtomic(DatasetDir(dataset) + "/" + kManifestFile,
                         w.buffer());
}

Result<LocalDfs::Manifest> LocalDfs::ReadManifest(
    const std::string& dataset) const {
  std::string bytes;
  ChargeOpen();
  TS_RETURN_IF_ERROR(
      ReadFile(DatasetDir(dataset) + "/" + kManifestFile, &bytes));
  BinaryReader r(bytes);
  Manifest manifest;
  TS_RETURN_IF_ERROR(ReadSchemaBody(&r, &manifest.schema));
  int32_t cpg;
  TS_RETURN_IF_ERROR(r.Read(&cpg));
  manifest.layout.columns_per_group = cpg;
  uint64_t rpg;
  TS_RETURN_IF_ERROR(r.Read(&rpg));
  manifest.layout.rows_per_group = rpg;
  uint64_t rows;
  TS_RETURN_IF_ERROR(r.Read(&rows));
  manifest.num_rows = rows;
  return manifest;
}

Result<Schema> LocalDfs::ReadSchema(const std::string& dataset) const {
  TS_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dataset));
  return manifest.schema;
}

Result<std::vector<ColumnPtr>> LocalDfs::ReadColumns(
    const std::string& dataset, const std::vector<int>& columns) const {
  TS_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dataset));
  const DfsLayout& layout = manifest.layout;
  const size_t n = manifest.num_rows;
  const size_t row_groups =
      n == 0 ? 0 : (n + layout.rows_per_group - 1) / layout.rows_per_group;

  std::vector<ColumnPtr> out;
  // Cache decoded group files: requesting several columns of the same
  // group reads the file once (the point of grouping).
  std::map<std::pair<int, size_t>, std::string> file_cache;

  for (int col : columns) {
    if (col < 0 || col >= manifest.schema.num_columns()) {
      return Status::InvalidArgument("column out of range");
    }
    const ColumnMeta& meta = manifest.schema.column(col);
    const int cg = col / layout.columns_per_group;
    const int offset_in_group = col % layout.columns_per_group;
    const int col_begin = cg * layout.columns_per_group;
    const int col_end = std::min(manifest.schema.num_columns(),
                                 col_begin + layout.columns_per_group);

    std::vector<double> nums;
    std::vector<int32_t> cats;
    for (size_t rg = 0; rg < row_groups; ++rg) {
      auto key = std::make_pair(cg, rg);
      auto it = file_cache.find(key);
      if (it == file_cache.end()) {
        std::string bytes;
        ChargeOpen();
        TS_RETURN_IF_ERROR(ReadFile(GroupFile(dataset, cg, rg), &bytes));
        it = file_cache.emplace(key, std::move(bytes)).first;
      }
      BinaryReader r(it->second);
      // Skip earlier columns of the group.
      for (int c = col_begin; c < col_begin + offset_in_group; ++c) {
        if (manifest.schema.column(c).type == DataType::kNumeric) {
          std::vector<double> skip;
          TS_RETURN_IF_ERROR(r.ReadVector(&skip));
        } else {
          std::vector<int32_t> skip;
          TS_RETURN_IF_ERROR(r.ReadVector(&skip));
        }
      }
      (void)col_end;
      if (meta.type == DataType::kNumeric) {
        std::vector<double> chunk;
        TS_RETURN_IF_ERROR(r.ReadVector(&chunk));
        nums.insert(nums.end(), chunk.begin(), chunk.end());
      } else {
        std::vector<int32_t> chunk;
        TS_RETURN_IF_ERROR(r.ReadVector(&chunk));
        cats.insert(cats.end(), chunk.begin(), chunk.end());
      }
    }
    if (meta.type == DataType::kNumeric) {
      out.push_back(Column::Numeric(meta.name, std::move(nums)));
    } else {
      out.push_back(
          Column::Categorical(meta.name, std::move(cats), meta.cardinality));
    }
  }
  return out;
}

Result<DataTable> LocalDfs::ReadRows(const std::string& dataset,
                                     size_t begin_row, size_t end_row) const {
  TS_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dataset));
  const DfsLayout& layout = manifest.layout;
  if (begin_row > end_row || end_row > manifest.num_rows) {
    return Status::InvalidArgument("row range out of bounds");
  }
  const int m = manifest.schema.num_columns();
  const int col_groups =
      (m + layout.columns_per_group - 1) / layout.columns_per_group;

  std::vector<std::vector<double>> nums(m);
  std::vector<std::vector<int32_t>> cats(m);

  const size_t rg_begin = begin_row / layout.rows_per_group;
  const size_t rg_end = end_row == begin_row
                            ? rg_begin
                            : (end_row - 1) / layout.rows_per_group + 1;
  for (size_t rg = rg_begin; rg < rg_end; ++rg) {
    const size_t group_start = rg * layout.rows_per_group;
    const size_t lo = std::max(begin_row, group_start);
    const size_t hi = std::min(end_row, group_start + layout.rows_per_group);
    for (int cg = 0; cg < col_groups; ++cg) {
      std::string bytes;
      ChargeOpen();
      TS_RETURN_IF_ERROR(ReadFile(GroupFile(dataset, cg, rg), &bytes));
      BinaryReader r(bytes);
      const int col_begin = cg * layout.columns_per_group;
      const int col_end = std::min(m, col_begin + layout.columns_per_group);
      for (int c = col_begin; c < col_end; ++c) {
        if (manifest.schema.column(c).type == DataType::kNumeric) {
          std::vector<double> chunk;
          TS_RETURN_IF_ERROR(r.ReadVector(&chunk));
          nums[c].insert(nums[c].end(), chunk.begin() + (lo - group_start),
                         chunk.begin() + (hi - group_start));
        } else {
          std::vector<int32_t> chunk;
          TS_RETURN_IF_ERROR(r.ReadVector(&chunk));
          cats[c].insert(cats[c].end(), chunk.begin() + (lo - group_start),
                         chunk.begin() + (hi - group_start));
        }
      }
    }
  }

  std::vector<ColumnPtr> cols(m);
  for (int c = 0; c < m; ++c) {
    const ColumnMeta& meta = manifest.schema.column(c);
    if (meta.type == DataType::kNumeric) {
      cols[c] = Column::Numeric(meta.name, std::move(nums[c]));
    } else {
      cols[c] =
          Column::Categorical(meta.name, std::move(cats[c]), meta.cardinality);
    }
  }
  return DataTable::Make(manifest.schema, std::move(cols));
}

Result<DataTable> LocalDfs::ReadTable(const std::string& dataset) const {
  TS_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dataset));
  return ReadRows(dataset, 0, manifest.num_rows);
}

}  // namespace treeserver
