// Report::ToJson — the bytes of the served report. The committed
// golden (tests/data/report_golden.json) pins the exact rendering of a
// hand-built report that reaches every branch of the writer (a truth
// entry with no value, a cluster with no elected original, all three
// edge kinds, names that need escaping, exponent-form and subnormal
// numbers) and of the running example run through Session::Run. The
// golden is a JSON array of the two reports, in that order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "copydetect/session.h"
#include "datagen/motivating_example.h"
#include "test_util.h"

namespace copydetect {
namespace {

/// Sources, items and values whose names exercise every escape: a
/// quote, a backslash, control bytes (one with a short escape, one
/// spelled \u00XX) and multi-byte UTF-8.
Dataset EscapingData() {
  DatasetBuilder builder;
  builder.Add("plain", "item \"one\"", "v\\1");
  builder.Add("quo\"te", "item \"one\"", "v\\1");
  builder.Add("back\\slash", "item \"one\"", "tab\there");
  builder.Add(std::string("ctl\x01" "byte", 8), "caf\xc3\xa9",
              "line\nbreak");
  builder.Add("plain", "caf\xc3\xa9", std::string("nul\x1f", 4));
  builder.Add("quo\"te", "caf\xc3\xa9", "line\nbreak");
  builder.Add("\xe6\x97\xa5\xe6\x9c\xac", "new\nline", "x");
  builder.Add("back\\slash", "new\nline", "y");
  auto data = builder.Build();
  CD_CHECK_OK(data.status());
  return std::move(data).value();
}

/// A hand-built report over EscapingData(): every field ToJson reads
/// is set directly, so each branch is reached regardless of what a
/// real run would produce.
Report HandBuiltReport(const Dataset& data) {
  Report report;
  report.detector = "hy\"brid";
  report.threads = 3;
  FusionResult& fusion = report.fusion;
  fusion.rounds = 4;
  fusion.converged = false;
  // One slot short of num_slots: the last item's truth points past
  // value_probs and renders probability 0.
  fusion.value_probs = {1e-05, 5e-324, 0.0001, 1e+21};
  fusion.value_probs.resize(data.num_slots() - 1, 0.1 + 0.2);
  fusion.truth.assign(data.num_items(), kInvalidSlot);
  fusion.truth[0] = data.slot_begin(0);
  fusion.truth[1] = data.slot_begin(1) + 1;
  fusion.truth[2] = static_cast<SlotId>(data.num_slots() - 1);
  fusion.accuracies = {-0.0, DBL_MAX, 2.2250738585072014e-308, 1e-310,
                       100.0};
  fusion.accuracies.resize(data.num_sources(), 1.0 / 3.0);

  PairPosterior copying;
  copying.p_indep = 0.125;
  copying.p_first_copies = 0.75;
  copying.p_second_copies = 0.125;
  PairPosterior independent;
  independent.p_indep = 0.9;
  independent.p_first_copies = 0.05;
  independent.p_second_copies = 0.05;
  // Set out of (a, b) order: the rendering sorts by pair.
  fusion.copies.Set(3, 4, copying);
  fusion.copies.Set(0, 2, independent);  // not copying: omitted
  fusion.copies.Set(0, 1, copying);
  fusion.copies.Set(1, 4, PairPosterior{0.25, 1e-300, 0.75});

  CopyCluster orphan;  // no elected original
  orphan.members = {0, 1, 4};
  orphan.edges = {
      ClassifiedEdge{0, 1, EdgeKind::kDirect, 0.75, 0.125},
      ClassifiedEdge{1, 4, EdgeKind::kCoCopy, 1e-300, 0.75},
      ClassifiedEdge{0, 4, EdgeKind::kIndirect, 4.9406564584124654e-324,
                     1.0},
  };
  CopyCluster elected;
  elected.members = {2, 3};
  elected.original = 3;
  elected.edges = {
      ClassifiedEdge{2, 3, EdgeKind::kDirect, 0.1 + 0.2, 0.0001}};
  report.graph.clusters = {orphan, elected};
  return report;
}

/// The running example (Table I) through the facade, serial so the
/// rendered thread count does not depend on the machine.
std::string MotivatingJson() {
  World world = MotivatingExample();
  SessionOptions options;
  options.threads = 1;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  auto report = session->Run(world.data);
  CD_CHECK_OK(report.status());
  return report->ToJson(world.data);
}

std::string GoldenDocument() {
  Dataset data = EscapingData();
  std::string doc = "[";
  doc += HandBuiltReport(data).ToJson(data);
  doc += ',';
  doc += MotivatingJson();
  doc += "]\n";
  return doc;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ReportJson, MatchesCommittedGolden) {
  const std::string golden =
      ReadFile(std::string(CD_TEST_DATA_DIR) + "/report_golden.json");
  EXPECT_EQ(GoldenDocument(), golden);
}

TEST(ReportJson, GoldenIsValidJson) {
  // The writer emits no structure JsonValue could not: the document
  // parses and re-dumps to the same bytes.
  const std::string doc = GoldenDocument();
  auto parsed = ParseJson(doc);
  CD_CHECK_OK(parsed.status());
  EXPECT_EQ(parsed->Dump() + "\n", doc);
}

/// The report tree assembled through JsonValue, key for key, as the
/// writer lays it out — the reference the direct writer must match
/// on real runs.
std::string DomToJson(const Report& r, const Dataset& data) {
  auto name = [&data](SourceId s) {
    return JsonValue::Str(data.source_name(s));
  };
  JsonValue root = JsonValue::Object();
  root.Set("detector", JsonValue::Str(r.detector));
  root.Set("threads", JsonValue::Uint64(r.threads));
  root.Set("rounds", JsonValue::Int64(r.fusion.rounds));
  root.Set("converged", JsonValue::Bool(r.fusion.converged));
  root.Set("num_sources", JsonValue::Uint64(data.num_sources()));
  root.Set("num_items", JsonValue::Uint64(data.num_items()));
  JsonValue truth = JsonValue::Array();
  for (size_t item = 0; item < r.fusion.truth.size(); ++item) {
    const SlotId slot = r.fusion.truth[item];
    JsonValue entry = JsonValue::Object().Set(
        "item", JsonValue::Str(data.item_name(static_cast<ItemId>(item))));
    if (slot == kInvalidSlot) {
      entry.Set("value", JsonValue::Null());
      entry.Set("probability", JsonValue::Null());
    } else {
      entry.Set("value", JsonValue::Str(data.slot_value(slot)));
      entry.Set("probability",
                JsonValue::Double(slot < r.fusion.value_probs.size()
                                      ? r.fusion.value_probs[slot]
                                      : 0.0));
    }
    truth.Append(std::move(entry));
  }
  root.Set("truth", std::move(truth));
  JsonValue accs = JsonValue::Array();
  for (size_t s = 0; s < r.fusion.accuracies.size(); ++s) {
    accs.Append(JsonValue::Object()
                    .Set("source", name(static_cast<SourceId>(s)))
                    .Set("accuracy",
                         JsonValue::Double(r.fusion.accuracies[s])));
  }
  root.Set("accuracies", std::move(accs));
  std::vector<std::pair<uint64_t, PairPosterior>> pairs;
  r.fusion.copies.ForEach(
      [&pairs](SourceId a, SourceId b, const PairPosterior& p) {
        if (p.IsCopying()) pairs.push_back({PairKey(a, b), p});
      });
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  JsonValue copies = JsonValue::Array();
  for (const auto& [key, p] : pairs) {
    copies.Append(JsonValue::Object()
                      .Set("a", name(PairFirst(key)))
                      .Set("b", name(PairSecond(key)))
                      .Set("p_indep", JsonValue::Double(p.p_indep))
                      .Set("p_a_copies_b",
                           JsonValue::Double(p.p_first_copies))
                      .Set("p_b_copies_a",
                           JsonValue::Double(p.p_second_copies)));
  }
  root.Set("copies", std::move(copies));
  JsonValue clusters = JsonValue::Array();
  for (const CopyCluster& c : r.graph.clusters) {
    JsonValue members = JsonValue::Array();
    for (SourceId m : c.members) members.Append(name(m));
    JsonValue edges = JsonValue::Array();
    for (const ClassifiedEdge& e : c.edges) {
      const char* kind = e.kind == EdgeKind::kDirect   ? "direct"
                         : e.kind == EdgeKind::kCoCopy ? "co-copy"
                                                       : "indirect";
      edges.Append(JsonValue::Object()
                       .Set("a", name(e.a))
                       .Set("b", name(e.b))
                       .Set("kind", JsonValue::Str(kind))
                       .Set("p_a_copies_b",
                            JsonValue::Double(e.pr_a_copies_b))
                       .Set("p_b_copies_a",
                            JsonValue::Double(e.pr_b_copies_a)));
    }
    clusters.Append(JsonValue::Object()
                        .Set("original", c.original == kInvalidSource
                                             ? JsonValue::Null()
                                             : name(c.original))
                        .Set("members", std::move(members))
                        .Set("edges", std::move(edges)));
  }
  root.Set("clusters", std::move(clusters));
  return root.Dump();
}

TEST(ReportJson, DirectWriterMatchesJsonValueTree) {
  Dataset data = EscapingData();
  EXPECT_EQ(HandBuiltReport(data).ToJson(data),
            DomToJson(HandBuiltReport(data), data));
  for (uint64_t seed : {3, 11}) {
    SCOPED_TRACE(seed);
    World world = testutil::SmallWorld(seed);
    SessionOptions options;
    options.threads = 1;
    auto session = Session::Create(options);
    CD_CHECK_OK(session.status());
    auto report = session->Run(world.data);
    CD_CHECK_OK(report.status());
    ASSERT_FALSE(report->copies().NumTracked() == 0);
    EXPECT_EQ(report->ToJson(world.data), DomToJson(*report, world.data));
  }
}

}  // namespace
}  // namespace copydetect
