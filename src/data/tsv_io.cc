#include "data/tsv_io.h"

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/string_util.h"

namespace cem::data {
namespace {

// Record kinds in the TSV stream.
constexpr char kAuthorTag[] = "A";
constexpr char kPaperTag[] = "P";
constexpr char kAuthoredTag[] = "W";  // "wrote"
constexpr char kCitesTag[] = "C";

/// A buffered Authored or Cites record and the line it came from.
struct Tuple {
  EntityId from = 0;
  EntityId to = 0;
  size_t line = 0;
};

/// Parses all of `field` as a T; false on anything else (a sign on an
/// unsigned type, a value out of T's range, trailing characters).
template <typename T>
bool ParseField(std::string_view field, T& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// True if `field` holds a field or record separator, which LoadDatasetTsv
/// would split on.
bool BreaksRecord(std::string_view field) {
  return field.find_first_of("\t\n") != std::string_view::npos;
}

}  // namespace

Status SaveDatasetTsv(const Dataset& dataset, const std::string& path) {
  for (const Entity& e : dataset.entities()) {
    if (BreaksRecord(e.first_name) || BreaksRecord(e.last_name) ||
        BreaksRecord(e.title)) {
      return InvalidArgumentError("entity " + std::to_string(e.id) +
                                  ": a name or title holds a tab or newline");
    }
  }
  std::ofstream out(path);
  if (!out) return InvalidArgumentError("cannot open for writing: " + path);
  for (const Entity& e : dataset.entities()) {
    if (e.type == EntityType::kAuthorRef) {
      out << kAuthorTag << '\t' << e.id << '\t' << e.first_name << '\t'
          << e.last_name << '\t' << static_cast<int64_t>(e.truth) << '\n';
    } else {
      out << kPaperTag << '\t' << e.id << '\t' << e.title << '\t' << e.year
          << '\t' << static_cast<int64_t>(e.truth) << '\n';
    }
  }
  for (const Entity& e : dataset.entities()) {
    if (e.type != EntityType::kAuthorRef) continue;
    for (EntityId paper : dataset.authored().Neighbors(e.id)) {
      out << kAuthoredTag << '\t' << e.id << '\t' << paper << '\n';
    }
  }
  for (const Entity& e : dataset.entities()) {
    if (e.type != EntityType::kPaper) continue;
    for (EntityId to : dataset.cites().Neighbors(e.id)) {
      out << kCitesTag << '\t' << e.id << '\t' << to << '\n';
    }
  }
  if (!out.good()) return InternalError("write failed: " + path);
  return OkStatus();
}

Result<std::unique_ptr<Dataset>> LoadDatasetTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return InvalidArgumentError("cannot open for reading: " + path);
  auto dataset = std::make_unique<Dataset>();
  // Entity ids in the file must be dense and in insertion order; we verify.
  std::string line;
  size_t line_no = 0;
  const auto bad_at = [&](size_t at, const std::string& why) {
    return InvalidArgumentError(path + ":" + std::to_string(at) + ": " + why);
  };
  const auto bad = [&](const std::string& why) {
    return bad_at(line_no, why);
  };
  // Relation tuples are buffered until all entities exist.
  std::vector<Tuple> authored_tuples;
  std::vector<Tuple> cites_tuples;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    const bool author = fields[0] == kAuthorTag;
    if (author || fields[0] == kPaperTag) {
      if (fields.size() != 5) {
        return bad(std::string(author ? "author" : "paper") +
                   " record needs 5 fields");
      }
      EntityId id = 0;
      uint32_t truth = 0;
      if (!ParseField(fields[1], id)) return bad("bad entity id");
      if (!ParseField(fields[4], truth)) return bad("bad truth label");
      if (id != dataset->num_entities()) return bad("non-dense entity id");
      if (author) {
        dataset->AddAuthorRef(fields[2], fields[3], truth);
      } else {
        int year = 0;
        if (!ParseField(fields[3], year)) return bad("bad year");
        dataset->AddPaper(fields[2], year, truth);
      }
    } else if (fields[0] == kAuthoredTag || fields[0] == kCitesTag) {
      if (fields.size() != 3) return bad("relation record needs 3 fields");
      Tuple tuple{.line = line_no};
      if (!ParseField(fields[1], tuple.from) ||
          !ParseField(fields[2], tuple.to)) {
        return bad("bad entity id");
      }
      (fields[0] == kAuthoredTag ? authored_tuples : cites_tuples)
          .push_back(tuple);
    } else {
      return bad("unknown record tag '" + fields[0] + "'");
    }
  }
  const auto has_type = [&](EntityId e, EntityType type) {
    return e < dataset->num_entities() && dataset->entity(e).type == type;
  };
  for (const Tuple& t : authored_tuples) {
    if (!has_type(t.from, EntityType::kAuthorRef) ||
        !has_type(t.to, EntityType::kPaper)) {
      return bad_at(t.line,
                    "authored tuple must name an author reference, then a "
                    "paper");
    }
    dataset->AddAuthored(t.from, t.to);
  }
  for (const Tuple& t : cites_tuples) {
    if (!has_type(t.from, EntityType::kPaper) ||
        !has_type(t.to, EntityType::kPaper)) {
      return bad_at(t.line, "cites tuple must name two papers");
    }
    dataset->AddCites(t.from, t.to);
  }
  dataset->Finalize();
  return dataset;
}

}  // namespace cem::data
