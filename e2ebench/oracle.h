// Correctness oracles of the end-to-end benchmark: reference
// implementations of the four database rankers, written from the
// formulas in selection/db_selection.h rather than calling them, and the
// checks every run applies to the program's outputs. Each check returns
// an empty string on success and a description of the first violation
// otherwise; SelfTest() feeds every check a corrupted output and
// expects that description, so no check passes vacuously.
#ifndef QBS_E2EBENCH_ORACLE_H_
#define QBS_E2EBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lm/model_view.h"
#include "selection/db_selection.h"

namespace e2e {

/// One database as the reference rankers see it.
struct NamedModel {
  std::string name;
  const qbs::LanguageModelView* model = nullptr;
};

/// The full ranking `ranker` ("cori", "bgloss", "vgloss", "kl") gives
/// `fleet` for the analyzed `terms`: best first, ties by name.
std::vector<qbs::DatabaseScore> ReferenceRank(
    const std::string& ranker, const std::vector<NamedModel>& fleet,
    const std::vector<std::string>& terms);

/// `got` is the top min(k, size) of `reference`: at every rank the
/// scores agree, and the database named there has that score in the
/// reference (so exact ties may come in either order).
std::string CheckTopK(const std::vector<qbs::DatabaseScore>& reference,
                      const std::vector<qbs::DatabaseScore>& got, size_t k);

/// Two rankings are identical, name for name and bit for bit.
std::string CheckIdentical(const std::vector<qbs::DatabaseScore>& direct,
                           const std::vector<qbs::DatabaseScore>& other);

/// Every term of `learned` exists in `actual` with df and ctf no larger.
std::string CheckWithinActual(const qbs::LanguageModelView& learned,
                              const qbs::LanguageModelView& actual);

/// Share of the actual model's term occurrences covered by the learned
/// vocabulary (the paper's ctf ratio, Fig. 1b).
double CtfRatio(const qbs::LanguageModelView& learned,
                const qbs::LanguageModelView& actual);

/// `stored` holds exactly the terms of `source`, each with equal stats,
/// and the same corpus counters.
std::string CheckSameModel(const qbs::LanguageModelView& source,
                           const qbs::LanguageModelView& stored);

/// Runs every check on a correct and on a corrupted output. Returns the
/// failures (empty when every check accepted the good output and
/// rejected the corrupted one). `scratch_path` is a file the store check
/// may write.
std::vector<std::string> SelfTest(const std::string& scratch_path);

}  // namespace e2e

#endif  // QBS_E2EBENCH_ORACLE_H_
