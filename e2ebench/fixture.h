// Inputs of the end-to-end benchmark: the fixed-seed database fleet (remote
// corpora in three homogeneity shapes plus directly generated models) and
// the seeded query streams the serve phases send.
//
// The fleet and the Zipf query pool never depend on the workload seed, so
// the learned models, the packed store and every learning counter are the
// same in every run, and so are the pool's costly queries that set the
// tail latency; the workload seed drives the order and mix of the queries
// each caller sends, the unique queries, and the refresh order.
#ifndef QBS_E2EBENCH_FIXTURE_H_
#define QBS_E2EBENCH_FIXTURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/synthetic.h"
#include "lm/language_model.h"
#include "util/random.h"

namespace e2e {

/// Seed of every fleet input (corpora, generated models, sampler seeds).
inline constexpr uint64_t kFleetSeed = 19990601;

/// One remote database: its corpus spec and the shape it was scaled from.
struct RemoteSpec {
  qbs::SyntheticCorpusSpec corpus;
  std::string shape;  // "cacm", "wsj88" or "trec"
};

/// `n` remote corpora cycling through the CACM-, WSJ88- and TREC-like
/// shapes, scaled to a few hundred short documents each.
std::vector<RemoteSpec> RemoteSpecs(size_t n);

/// A model standing in for a database learned earlier: stemmed, stopped
/// terms with df <= num_docs and df <= ctf, as a learned model has.
struct GeneratedModel {
  std::string name;
  qbs::LanguageModel model;
};

/// `n` generated models over the synthetic vocabulary, each with its own
/// size and topical band.
std::vector<GeneratedModel> GenerateModels(size_t n);

/// Bootstrap terms every synthetic corpus contains: the head of the
/// background vocabulary.
std::vector<std::string> SeedTerms();

/// Query texts for one caller. With a pool, queries repeat with Zipf
/// frequency (exponent kPoolZipf over kPoolSize entries); without one,
/// every query is new.
class QueryStream {
 public:
  static constexpr size_t kPoolSize = 512;
  static constexpr double kPoolZipf = 1.0;

  /// `pool` is shared by every caller of a workload (nullptr for unique
  /// queries); `seed` names this caller's stream.
  QueryStream(const std::vector<std::string>* pool, uint64_t seed);

  std::string Next();

 private:
  const std::vector<std::string>* pool_;
  qbs::Rng rng_;
  qbs::ZipfSampler pick_;
};

/// A Zipf pool of kPoolSize queries, drawn from `seed`.
std::vector<std::string> QueryPool(uint64_t seed);

/// A query of two or three content words, drawn from `rng`.
std::string RandomQuery(qbs::Rng& rng);

}  // namespace e2e

#endif  // QBS_E2EBENCH_FIXTURE_H_
