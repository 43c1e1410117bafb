#include "fixture.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "text/porter_stemmer.h"

namespace e2e {

namespace {

// Content words of the queries: background ranks in [kQueryLo, kQueryHi),
// frequent enough that most models hold them, rare enough to discriminate.
constexpr uint64_t kQueryLo = 10;
constexpr uint64_t kQueryHi = 4000;

// Vocabulary of the generated models (background ranks).
constexpr uint64_t kGeneratedVocab = 60'000;

std::string Indexed(const char* prefix, size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s-%04zu", prefix, i);
  return buf;
}

}  // namespace

std::vector<RemoteSpec> RemoteSpecs(size_t n) {
  std::vector<RemoteSpec> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RemoteSpec r;
    qbs::Rng rng(kFleetSeed * 31 + i);
    switch (i % 3) {
      case 0:
        r.shape = "cacm";
        r.corpus = qbs::CacmLikeSpec();
        r.corpus.vocab_size = 20'000;
        break;
      case 1:
        r.shape = "wsj88";
        r.corpus = qbs::Wsj88LikeSpec();
        r.corpus.vocab_size = 60'000;
        r.corpus.num_topics = 24;
        r.corpus.doc_length_mu = 4.2;
        break;
      default:
        r.shape = "trec";
        r.corpus = qbs::Trec123LikeSpec();
        r.corpus.vocab_size = 120'000;
        r.corpus.num_topics = 64;
        r.corpus.doc_length_mu = 4.3;
        break;
    }
    // Scaled to a few hundred documents — more than any sampling budget
    // (500), so every database can supply its budget in full.
    r.corpus.num_docs = 700 + static_cast<uint32_t>(rng.UniformBelow(300));
    r.corpus.name = Indexed(r.shape.c_str(), i);
    r.corpus.seed = kFleetSeed + 7919 * i;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<GeneratedModel> GenerateModels(size_t n) {
  // Stems of the generated vocabulary, computed once and shared.
  std::vector<std::string> stems(kGeneratedVocab);
  for (uint64_t id = 0; id < kGeneratedVocab; ++id) {
    stems[id] = qbs::PorterStemmer::Stem(qbs::SyntheticWordForId(id));
  }
  const qbs::ZipfSampler background(kGeneratedVocab, 1.2, 2.7);
  const qbs::ZipfSampler topical(1'500, 1.1);

  std::vector<GeneratedModel> out;
  out.reserve(n);
  std::unordered_map<uint64_t, uint64_t> counts;
  for (size_t i = 0; i < n; ++i) {
    qbs::Rng rng(kFleetSeed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    const uint64_t num_docs = 200 + rng.UniformBelow(2'800);
    const uint64_t band = rng.UniformBelow(kGeneratedVocab - 1'500);
    const uint64_t draws = 1'500 + rng.UniformBelow(3'000);
    counts.clear();
    for (uint64_t d = 0; d < draws; ++d) {
      uint64_t id = rng.Bernoulli(0.3) ? band + topical.Sample(rng) - 1
                                       : background.Sample(rng) - 1;
      ++counts[id];
    }
    // Draws stand for occurrences in a sample; scale them to the model's
    // size and spread them over documents (df <= ctf, df <= num_docs).
    const uint64_t scale = 1 + num_docs / 300;
    GeneratedModel g;
    g.name = Indexed("gen", i);
    std::vector<std::pair<uint64_t, uint64_t>> sorted(counts.begin(),
                                                      counts.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [id, c] : sorted) {
      uint64_t ctf = c * scale;
      uint64_t df = std::min<uint64_t>(num_docs, 1 + (ctf * 2) / 3);
      g.model.AddTerm(stems[id], std::min(df, ctf), ctf);
    }
    g.model.set_num_docs(num_docs);
    out.push_back(std::move(g));
  }
  return out;
}

std::vector<std::string> SeedTerms() {
  std::vector<std::string> terms;
  for (uint64_t id = 0; id < 12; ++id) {
    terms.push_back(qbs::SyntheticWordForId(id));
  }
  return terms;
}

std::string RandomQuery(qbs::Rng& rng) {
  size_t words = 2 + rng.UniformBelow(2);
  std::string q;
  for (size_t w = 0; w < words; ++w) {
    if (!q.empty()) q.push_back(' ');
    q += qbs::SyntheticWordForId(kQueryLo +
                                 rng.UniformBelow(kQueryHi - kQueryLo));
  }
  return q;
}

std::vector<std::string> QueryPool(uint64_t seed) {
  qbs::Rng rng(seed * 0x2545F4914F6CDD1DULL + 17);
  std::vector<std::string> pool;
  pool.reserve(QueryStream::kPoolSize);
  for (size_t i = 0; i < QueryStream::kPoolSize; ++i) {
    pool.push_back(RandomQuery(rng));
  }
  return pool;
}

QueryStream::QueryStream(const std::vector<std::string>* pool, uint64_t seed)
    : pool_(pool),
      rng_(seed),
      pick_(pool != nullptr ? pool->size() : 1, kPoolZipf) {}

std::string QueryStream::Next() {
  if (pool_ == nullptr) return RandomQuery(rng_);
  return (*pool_)[pick_.Sample(rng_) - 1];
}

}  // namespace e2e
