#include "telemetry/interval_recorder.hpp"

#include <fstream>
#include <optional>
#include <stdexcept>

#include "common/json.hpp"

namespace esteem::telemetry {

IntervalRecorder::IntervalRecorder(std::vector<std::string> columns)
    : columns_(std::move(columns)), series_(columns_.size()) {}

void IntervalRecorder::record(std::uint64_t cycle, const std::vector<double>& values) {
  if (values.size() != columns_.size()) {
    throw std::invalid_argument("IntervalRecorder: row has " +
                                std::to_string(values.size()) + " values, expected " +
                                std::to_string(columns_.size()));
  }
  cycles_.push_back(cycle);
  for (std::size_t c = 0; c < values.size(); ++c) series_[c].push_back(values[c]);
}

const std::vector<double>& IntervalRecorder::series(const std::string& column) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == column) return series_[c];
  }
  throw std::out_of_range("IntervalRecorder: no column '" + column + "'");
}

void IntervalRecorder::write_jsonl(std::ostream& os) const {
  std::string line;
  for (std::size_t r = 0; r < rows(); ++r) {
    line.clear();
    line += "{\"cycle\":";
    line += std::to_string(cycles_[r]);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      line += ",\"";
      line += columns_[c];
      line += "\":";
      line += fmt_f64(series_[c][r]);
    }
    line += "}\n";
    os << line;
  }
}

void IntervalRecorder::write_csv(std::ostream& os) const {
  std::string line = "cycle";
  for (const std::string& c : columns_) {
    line += ',';
    line += c;
  }
  os << line << '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    line = std::to_string(cycles_[r]);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      line += ',';
      line += fmt_f64(series_[c][r]);
    }
    os << line << '\n';
  }
}

bool IntervalRecorder::write_jsonl_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  write_jsonl(out);
  return out.good();
}

IntervalRecorder IntervalRecorder::read_jsonl(std::istream& is) {
  using json::Value;
  std::vector<std::string> columns;
  std::vector<std::uint64_t> cycles;
  std::vector<std::vector<double>> values;  // [row][column]

  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    json::ParseError err;
    const std::optional<Value> row_obj = json::parse(line, &err);
    if (!row_obj) {
      throw std::runtime_error("interval jsonl: " + err.reason + " at column " +
                               std::to_string(err.offset));
    }
    if (!row_obj->is(Value::Kind::Object)) {
      throw std::runtime_error("interval jsonl: row is not an object");
    }
    std::vector<std::string> keys;
    std::vector<double> row;
    std::uint64_t cycle = 0;
    bool have_cycle = false;
    for (const auto& [key, v] : row_obj->members) {
      if (key == "cycle") {
        if (!v.is(Value::Kind::Number) || !to_u64(v.text, cycle)) {
          throw std::runtime_error("interval jsonl: \"cycle\" is not a u64");
        }
        have_cycle = true;
        continue;
      }
      double x = 0.0;
      if (!v.is(Value::Kind::Number) || !to_f64(v.text, x)) {
        throw std::runtime_error("interval jsonl: \"" + key + "\" is not a number");
      }
      keys.push_back(key);
      row.push_back(x);
    }
    if (!have_cycle) throw std::runtime_error("interval jsonl: row without \"cycle\"");
    if (columns.empty() && cycles.empty()) {
      columns = keys;
    } else if (keys != columns) {
      throw std::runtime_error("interval jsonl: inconsistent columns across rows");
    }
    cycles.push_back(cycle);
    values.push_back(std::move(row));
  }

  IntervalRecorder rec(std::move(columns));
  for (std::size_t r = 0; r < cycles.size(); ++r) rec.record(cycles[r], values[r]);
  return rec;
}

}  // namespace esteem::telemetry
