#ifndef CEM_DATA_TSV_IO_H_
#define CEM_DATA_TSV_IO_H_

#include <memory>
#include <string>

#include "data/dataset.h"
#include "util/status.h"

namespace cem::data {

/// Saves `dataset` (entities, Authored, Cites, ground truth) to a TSV file.
/// Candidate pairs are not saved; rebuild them after loading. Returns
/// InvalidArgument naming the entity, before the file is opened, when a
/// first name, last name or title holds a tab or newline: LoadDatasetTsv
/// could not read it back.
Status SaveDatasetTsv(const Dataset& dataset, const std::string& path);

/// Loads a dataset saved by SaveDatasetTsv. The result is Finalize()d but
/// candidate pairs are NOT built; call BuildCandidatePairs() as needed.
/// Malformed input yields InvalidArgument naming the file line: a field
/// that is not a number of its exact type (ids and truth labels uint32, the
/// year int), a non-dense id, or a tuple naming the wrong entity types.
Result<std::unique_ptr<Dataset>> LoadDatasetTsv(const std::string& path);

}  // namespace cem::data

#endif  // CEM_DATA_TSV_IO_H_
