#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "lm/language_model.h"
#include "mstore/mapped_model_store.h"
#include "mstore/model_store_writer.h"

namespace e2e {

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string Str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::vector<qbs::DatabaseScore> ReferenceRank(
    const std::string& ranker, const std::vector<NamedModel>& fleet,
    const std::vector<std::string>& terms) {
  const double n = static_cast<double>(fleet.size());
  // Per-term database counts and summed occurrences over the fleet.
  std::vector<double> cf(terms.size(), 0.0);
  std::vector<double> union_ctf(terms.size(), 0.0);
  uint64_t sum_cw = 0;
  for (const NamedModel& db : fleet) {
    sum_cw += db.model->total_term_count();
    for (size_t t = 0; t < terms.size(); ++t) {
      qbs::TermStats s;
      if (db.model->FindStats(terms[t], &s)) {
        cf[t] += 1.0;
        union_ctf[t] += static_cast<double>(s.ctf);
      }
    }
  }
  const double avg_cw = fleet.empty() ? 0.0 : static_cast<double>(sum_cw) / n;
  const double union_total = std::max(1.0, static_cast<double>(sum_cw));

  std::vector<qbs::DatabaseScore> out;
  out.reserve(fleet.size());
  for (const NamedModel& db : fleet) {
    const qbs::LanguageModelView& m = *db.model;
    const double cw = static_cast<double>(m.total_term_count());
    double score = 0.0;
    if (ranker == "cori") {
      // INQUERY belief with default 0.4, averaged over the query terms.
      double sum = 0.0;
      for (size_t t = 0; t < terms.size(); ++t) {
        qbs::TermStats s;
        double belief = 0.4;
        if (m.FindStats(terms[t], &s) && cf[t] > 0) {
          double df = static_cast<double>(s.df);
          double tt = df / (df + 50.0 + 150.0 * (avg_cw > 0 ? cw / avg_cw : 1.0));
          double ii = std::log((n + 0.5) / cf[t]) / std::log(n + 1.0);
          belief = 0.4 + 0.6 * tt * ii;
        }
        sum += belief;
      }
      score = terms.empty() ? 0.0 : sum / static_cast<double>(terms.size());
    } else if (ranker == "bgloss") {
      // Expected documents holding every term, terms independent.
      double docs = static_cast<double>(m.num_docs());
      double est = docs;
      for (const std::string& term : terms) {
        qbs::TermStats s;
        if (docs == 0.0 || !m.FindStats(term, &s)) {
          est = 0.0;
          break;
        }
        est *= static_cast<double>(s.df) / docs;
      }
      score = terms.empty() ? 0.0 : est;
    } else if (ranker == "vgloss") {
      for (size_t t = 0; t < terms.size(); ++t) {
        qbs::TermStats s;
        if (cf[t] > 0 && m.FindStats(terms[t], &s)) {
          score += static_cast<double>(s.ctf) * std::log(1.0 + n / cf[t]);
        }
      }
    } else if (ranker == "kl") {
      // Query likelihood, Jelinek-Mercer lambda 0.7 against the union.
      const double total = std::max(1.0, cw);
      for (size_t t = 0; t < terms.size(); ++t) {
        qbs::TermStats s;
        double p_db = m.FindStats(terms[t], &s) ? s.ctf / total : 0.0;
        double p_bg = union_ctf[t] / union_total;
        score += std::log(0.7 * p_db + 0.3 * p_bg + 1e-12);
      }
    }
    out.push_back({db.name, score});
  }
  std::sort(out.begin(), out.end(),
            [](const qbs::DatabaseScore& a, const qbs::DatabaseScore& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.db_name < b.db_name;
            });
  return out;
}

std::string CheckTopK(const std::vector<qbs::DatabaseScore>& reference,
                      const std::vector<qbs::DatabaseScore>& got, size_t k) {
  const size_t want = std::min(k, reference.size());
  if (got.size() != want) {
    return "ranking has " + std::to_string(got.size()) + " entries, want " +
           std::to_string(want);
  }
  std::map<std::string, double> ref_score;
  for (const qbs::DatabaseScore& s : reference) ref_score[s.db_name] = s.score;
  for (size_t i = 0; i < want; ++i) {
    if (!Close(got[i].score, reference[i].score)) {
      return "rank " + std::to_string(i) + " scores " + Str(got[i].score) +
             ", reference " + Str(reference[i].score);
    }
    auto it = ref_score.find(got[i].db_name);
    if (it == ref_score.end() || !Close(it->second, reference[i].score)) {
      return "rank " + std::to_string(i) + " holds '" + got[i].db_name +
             "', which the reference does not rank there";
    }
  }
  return "";
}

std::string CheckIdentical(const std::vector<qbs::DatabaseScore>& direct,
                           const std::vector<qbs::DatabaseScore>& other) {
  if (direct.size() != other.size()) {
    return "rankings differ in length: " + std::to_string(direct.size()) +
           " vs " + std::to_string(other.size());
  }
  for (size_t i = 0; i < direct.size(); ++i) {
    if (direct[i].db_name != other[i].db_name ||
        direct[i].score != other[i].score) {
      return "rank " + std::to_string(i) + ": '" + direct[i].db_name + "' " +
             Str(direct[i].score) + " vs '" + other[i].db_name + "' " +
             Str(other[i].score);
    }
  }
  return "";
}

std::string CheckWithinActual(const qbs::LanguageModelView& learned,
                              const qbs::LanguageModelView& actual) {
  std::string error;
  learned.ForEachTerm([&](std::string_view term, const qbs::TermStats& s) {
    if (!error.empty()) return;
    qbs::TermStats a;
    if (!actual.FindStats(term, &a)) {
      error = "learned term '" + std::string(term) + "' is not in the database";
    } else if (s.df > a.df || s.ctf > a.ctf) {
      error = "learned term '" + std::string(term) + "' has df/ctf " +
              std::to_string(s.df) + "/" + std::to_string(s.ctf) +
              " above the database's " + std::to_string(a.df) + "/" +
              std::to_string(a.ctf);
    }
  });
  return error;
}

double CtfRatio(const qbs::LanguageModelView& learned,
                const qbs::LanguageModelView& actual) {
  uint64_t covered = 0;
  uint64_t total = 0;
  actual.ForEachTerm([&](std::string_view term, const qbs::TermStats& s) {
    total += s.ctf;
    if (learned.Contains(term)) covered += s.ctf;
  });
  return total == 0 ? 0.0 : static_cast<double>(covered) / total;
}

std::string CheckSameModel(const qbs::LanguageModelView& source,
                           const qbs::LanguageModelView& stored) {
  if (source.vocabulary_size() != stored.vocabulary_size() ||
      source.num_docs() != stored.num_docs() ||
      source.total_term_count() != stored.total_term_count()) {
    return "stored model has " + std::to_string(stored.vocabulary_size()) +
           " terms / " + std::to_string(stored.num_docs()) + " docs, source " +
           std::to_string(source.vocabulary_size()) + " / " +
           std::to_string(source.num_docs());
  }
  std::string error;
  source.ForEachTerm([&](std::string_view term, const qbs::TermStats& s) {
    if (!error.empty()) return;
    qbs::TermStats got;
    if (!stored.FindStats(term, &got) || !(got == s)) {
      error = "term '" + std::string(term) + "' reads back differently";
    }
  });
  return error;
}

std::vector<std::string> SelfTest(const std::string& scratch_path) {
  std::vector<std::string> failures;
  auto expect = [&failures](const std::string& what, const std::string& good,
                            const std::string& bad) {
    if (!good.empty()) failures.push_back(what + ": rejected good output: " + good);
    if (bad.empty()) failures.push_back(what + ": accepted corrupted output");
  };

  // A small fleet with distinct shapes, so every ranker separates it.
  std::vector<qbs::LanguageModel> models(6);
  for (size_t i = 0; i < models.size(); ++i) {
    models[i].AddTerm("alpha", 1 + i, 2 + 3 * i);
    models[i].AddTerm("beta", 7 - i, 9 - i);
    if (i % 2 == 0) models[i].AddTerm("gamma", 2, 5 + i);
    models[i].AddTerm("filler" + std::to_string(i), 3, 40 + 10 * i);
    models[i].set_num_docs(20 + 5 * i);
  }
  std::vector<NamedModel> fleet;
  for (size_t i = 0; i < models.size(); ++i) {
    fleet.push_back({"db" + std::to_string(i), &models[i]});
  }
  const std::vector<std::string> terms = {"alpha", "gamma"};

  for (const std::string& ranker : qbs::KnownRankerNames()) {
    std::vector<qbs::DatabaseScore> ref = ReferenceRank(ranker, fleet, terms);
    // The program's own ranker must agree with the reference here too.
    qbs::DatabaseCollection collection;
    for (size_t i = 0; i < models.size(); ++i) {
      collection.Add(fleet[i].name, models[i]);
    }
    auto program = qbs::MakeRanker(ranker, &collection)->Rank(terms);
    std::vector<qbs::DatabaseScore> permuted(program.begin(), program.begin() + 4);
    std::swap(permuted[0], permuted[2]);
    expect("top-k " + ranker, CheckTopK(ref, {program.begin(), program.begin() + 4}, 4),
           CheckTopK(ref, permuted, 4));
  }

  {
    qbs::LanguageModel inflated = models[1];
    inflated.AddTerm("beta", 100, 100);
    expect("within-actual", CheckWithinActual(models[0], models[0]),
           CheckWithinActual(inflated, models[1]));
  }

  {
    // A federated ranking missing one shard's databases.
    std::vector<qbs::DatabaseScore> direct = ReferenceRank("cori", fleet, terms);
    std::vector<qbs::DatabaseScore> dropped;
    for (const qbs::DatabaseScore& s : direct) {
      if (s.db_name != "db1" && s.db_name != "db4") dropped.push_back(s);
    }
    expect("federated", CheckIdentical(direct, direct),
           CheckIdentical(direct, dropped));
  }

  {
    // A store packed from a model that lost one term.
    qbs::LanguageModel missing;
    models[2].ForEachTerm([&](std::string_view term, const qbs::TermStats& s) {
      if (term != "gamma") missing.AddTerm(term, s.df, s.ctf);
    });
    missing.set_num_docs(models[2].num_docs());
    qbs::ModelStoreWriter writer;
    bool ok = writer.Add("good", models[2]).ok() &&
              writer.Add("missing", missing).ok() &&
              writer.WriteToFile(scratch_path).ok();
    auto store = qbs::MappedModelStore::Open(scratch_path);
    if (!ok || !store.ok()) {
      failures.push_back("store: cannot pack the self-test store");
    } else {
      expect("store", CheckSameModel(models[2], (*store)->model(0)),
             CheckSameModel(models[2], (*store)->model(1)));
    }
    std::remove(scratch_path.c_str());
  }
  return failures;
}

}  // namespace e2e
