// Property test for the online-update path: a long randomized (but
// seeded — failures reproduce) stream of DatasetDelta steps mixing
// adds, overwrites and retractions, including steps that introduce
// brand-new sources/items and steps that retire a source's last
// observation. After every applied step, Session::Update's report
// must stay bit-identical to rebuilding the merged data set from
// scratch and Run()ning it cold — the same acceptance bar as
// session_update_test.cc, stretched from hand-written deltas to a
// 200+ step adversarial stream for every registered detector.
#include "copydetect/session.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace copydetect {
namespace {

constexpr size_t kSteps = 200;
constexpr uint64_t kStreamSeed = 0x5eed0de17a5ULL;

void ExpectSameCopies(const CopyResult& got, const CopyResult& want) {
  EXPECT_EQ(got.NumTracked(), want.NumTracked());
  want.ForEach([&](SourceId a, SourceId b, const PairPosterior& w) {
    PairPosterior g = got.Get(a, b);
    EXPECT_EQ(g.p_indep, w.p_indep) << "pair " << a << "," << b;
    EXPECT_EQ(g.p_first_copies, w.p_first_copies)
        << "pair " << a << "," << b;
    EXPECT_EQ(g.p_second_copies, w.p_second_copies)
        << "pair " << a << "," << b;
  });
}

void ExpectSameFusion(const FusionResult& got,
                      const FusionResult& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.converged, want.converged);
  ASSERT_EQ(got.value_probs.size(), want.value_probs.size());
  for (size_t v = 0; v < want.value_probs.size(); ++v) {
    EXPECT_EQ(got.value_probs[v], want.value_probs[v]) << "slot " << v;
  }
  ASSERT_EQ(got.accuracies.size(), want.accuracies.size());
  for (size_t s = 0; s < want.accuracies.size(); ++s) {
    EXPECT_EQ(got.accuracies[s], want.accuracies[s]) << "source " << s;
  }
  EXPECT_EQ(got.truth, want.truth);
  ExpectSameCopies(got.copies, want.copies);
}

Report RunColdSession(const Dataset& data,
                      const SessionOptions& options) {
  SessionOptions cold = options;
  cold.online_updates = false;
  auto session = Session::Create(cold);
  CD_CHECK_OK(session.status());
  auto report = session->Run(data);
  CD_CHECK_OK(report.status());
  return std::move(report).value();
}

/// One random step against the current snapshot: 1-6 ops biased
/// toward adds, with at most one op per cell (the delta contract).
/// Values come from a 6-string pool so sources genuinely share and
/// conflict, feeding the copy detectors real evidence.
DatasetDelta RandomDelta(const Dataset& data, Rng& rng,
                         size_t* fresh_names) {
  DatasetDelta delta;
  std::set<std::pair<std::string, std::string>> cells;
  auto claim = [&](std::string_view source, std::string_view item) {
    return cells
        .emplace(std::string(source), std::string(item))
        .second;
  };
  // StrFormat instead of `"v" + std::to_string(...)`: the short-
  // literal concatenation trips GCC 12's -Wrestrict false positive
  // (PR105651) under the werror preset.
  auto random_value = [&] {
    return StrFormat("v%llu",
                     static_cast<unsigned long long>(rng.NextBelow(6)));
  };
  auto fresh_name = [&](const char* prefix) {
    return StrFormat("%s%zu", prefix, (*fresh_names)++);
  };

  const size_t ops = 1 + rng.NextBelow(6);
  for (size_t i = 0; i < ops; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.15 || data.num_sources() == 0) {
      // A brand-new source appears, covering 1-3 items (one possibly
      // brand-new too).
      std::string source = fresh_name("R");
      const size_t coverage = 1 + rng.NextBelow(3);
      for (size_t k = 0; k < coverage; ++k) {
        std::string item =
            (rng.Bernoulli(0.2) || data.num_items() == 0)
                ? fresh_name("D")
                : std::string(data.item_name(static_cast<ItemId>(
                      rng.NextBelow(data.num_items()))));
        if (claim(source, item)) delta.Set(source, item, random_value());
      }
      continue;
    }
    const SourceId s =
        static_cast<SourceId>(rng.NextBelow(data.num_sources()));
    std::span<const ItemId> covered = data.items_of(s);
    if (roll < 0.45 && !covered.empty() &&
        data.num_observations() > 8) {
      // Retract an existing observation — occasionally the source's
      // last one, retiring the source from the rebuilt universe.
      const ItemId item = covered[rng.NextBelow(covered.size())];
      if (claim(data.source_name(s), data.item_name(item))) {
        delta.Retract(data.source_name(s), data.item_name(item));
      }
      continue;
    }
    // Set on a random cell of an existing source: an overwrite when
    // the cell is occupied, an add otherwise.
    std::string item =
        rng.Bernoulli(0.1)
            ? fresh_name("D")
            : std::string(data.item_name(static_cast<ItemId>(
                  rng.NextBelow(data.num_items()))));
    if (claim(data.source_name(s), item)) {
      delta.Set(data.source_name(s), item, random_value());
    }
  }
  return delta;
}

/// The stream is generated once against an evolving shadow snapshot
/// (ops must reference cells that exist at their step), then replayed
/// identically for every detector.
std::vector<DatasetDelta> MakeStream(const Dataset& base, size_t steps,
                                     uint64_t seed) {
  Rng rng(seed);
  size_t fresh_names = 0;
  std::vector<DatasetDelta> deltas;
  Dataset current = base;
  for (size_t i = 0; i < steps; ++i) {
    DatasetDelta delta = RandomDelta(current, rng, &fresh_names);
    if (delta.empty()) continue;
    auto applied = current.Apply(delta);
    CD_CHECK_OK(applied.status());
    current = std::move(applied).value().data;
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

/// Replays the stream through one online session, comparing against
/// the cold yardstick every `check_every` steps and always at the
/// end. A divergence cannot slip through sampling: the next checked
/// step compares the full report, which is a function of the whole
/// accumulated state.
void ReplayStream(const Dataset& base,
                  const std::vector<DatasetDelta>& deltas,
                  const std::string& detector, size_t check_every) {
  SessionOptions options;
  options.detector = detector;
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Run(base).status());

  for (size_t step = 0; step < deltas.size(); ++step) {
    SCOPED_TRACE(detector + " step " + std::to_string(step));
    CD_CHECK_OK(session->Update(deltas[step]));
    if (step % check_every != 0 && step + 1 != deltas.size()) continue;
    ASSERT_NE(session->current_data(), nullptr);
    Dataset rebuilt = RebuildFromScratch(*session->current_data());
    Report cold = RunColdSession(rebuilt, options);
    ExpectSameFusion(session->report().fusion, cold.fusion);
    EXPECT_EQ(session->report().graph.NumPairs(),
              cold.graph.NumPairs());
  }
}

TEST(UpdateProperty, LongRandomStreamEveryRegisteredDetector) {
  World world = MotivatingExample();
  const std::vector<DatasetDelta> deltas =
      MakeStream(world.data, kSteps, kStreamSeed);
  ASSERT_GE(deltas.size(), 150u);  // few steps collapse to empty
  for (const std::string& name : ListDetectors()) {
    // The paper's quality detectors get the every-step comparison;
    // the rest are checked at every 10th accumulated state plus the
    // final one.
    const bool hot = name == "pairwise" || name == "index" ||
                     name == "hybrid" || name == "incremental";
    ReplayStream(world.data, deltas, name, hot ? 1 : 10);
  }
}

TEST(UpdateProperty, StreamSurvivesSourceRetirement) {
  // Deterministic micro-stream whose middle step retracts every
  // observation of one source — the rebuilt universe shrinks, ids
  // shift, and the update path must still match the cold run.
  World world = MotivatingExample();
  const Dataset& base = world.data;
  std::vector<DatasetDelta> deltas;
  {
    DatasetDelta grow;
    grow.Set("R-prop", base.item_name(0), "v0");
    grow.Set("R-prop", base.item_name(1), "v1");
    deltas.push_back(std::move(grow));
  }
  {
    DatasetDelta retire;
    retire.Retract("R-prop", base.item_name(0));
    retire.Retract("R-prop", base.item_name(1));
    deltas.push_back(std::move(retire));
  }
  {
    DatasetDelta comeback;
    comeback.Set("R-prop", base.item_name(2), "v2");
    deltas.push_back(std::move(comeback));
  }
  ReplayStream(base, deltas, "index", /*check_every=*/1);
}

}  // namespace
}  // namespace copydetect
