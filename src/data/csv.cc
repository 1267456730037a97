#include "data/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace privtree {

Result<PointSet> LoadPointsCsv(const std::string& path, std::size_t dim) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  PointSet points(dim);
  std::vector<double> row(dim);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    std::string field;
    std::size_t j = 0;
    while (std::getline(ss, field, ',')) {
      if (j >= dim) {
        return Status::InvalidArgument(
            path + ":" + std::to_string(line_number) + ": expected " +
            std::to_string(dim) + " fields, got more");
      }
      errno = 0;
      char* end = nullptr;
      row[j] = std::strtod(field.c_str(), &end);
      // strtod accepts "nan" and "inf"; no spatial pipeline can place them.
      if (end == field.c_str() || errno != 0 || !std::isfinite(row[j])) {
        return Status::InvalidArgument(path + ":" +
                                       std::to_string(line_number) +
                                       ": bad numeric field '" + field + "'");
      }
      ++j;
    }
    if (j != dim) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) + ": expected " +
          std::to_string(dim) + " fields, got " + std::to_string(j));
    }
    points.Add(row);
  }
  return points;
}

Status SavePointsCsv(const std::string& path, const PointSet& points) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.precision(17);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto p = points.point(i);
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (j > 0) out << ',';
      out << p[j];
    }
    out << '\n';
  }
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

Result<SequenceDataset> LoadSequencesCsv(const std::string& path,
                                         std::size_t alphabet_size) {
  if (alphabet_size == 0) {
    return Status::InvalidArgument("alphabet_size must be positive");
  }
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  SequenceDataset data(alphabet_size);
  std::string line;
  std::size_t line_number = 0;
  std::vector<Symbol> sequence;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    sequence.clear();
    long value = 0;
    while (ss >> value) {
      if (value < 0 || static_cast<std::size_t>(value) >= alphabet_size) {
        return Status::InvalidArgument(
            path + ":" + std::to_string(line_number) + ": symbol " +
            std::to_string(value) + " outside [0, " +
            std::to_string(alphabet_size) + ")");
      }
      sequence.push_back(static_cast<Symbol>(value));
    }
    if (!ss.eof()) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) + ": bad symbol field");
    }
    if (!sequence.empty()) data.Add(sequence);
  }
  return data;
}

Status SaveSequencesCsv(const std::string& path,
                        const SequenceDataset& data) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto s = data.sequence(i);
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (j > 0) out << ' ';
      out << s[j];
    }
    out << '\n';
  }
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

}  // namespace privtree
