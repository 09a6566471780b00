// DetectorRegistry: the built-in detector table, alias resolution and
// the unknown-name error.
#include "core/detector_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "copydetect/session.h"
#include "test_util.h"

namespace copydetect {
namespace {

// Every built-in must be listed under exactly this canonical spelling.
const char* const kBuiltins[] = {
    "pairwise", "index",       "bound",       "boundplus",
    "hybrid",   "incremental", "fagin-input",
};

TEST(DetectorRegistry, EveryBuiltinResolvesAndRoundTripsName) {
  DetectionParams params;
  for (const char* name : kBuiltins) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(DetectorRegistry::Global().Contains(name));
    EXPECT_EQ(DetectorRegistry::Global().Resolve(name), name);
    auto detector = DetectorRegistry::Global().Create(name, params);
    ASSERT_TRUE(detector.ok()) << detector.status().ToString();
    ASSERT_NE(*detector, nullptr);
    EXPECT_EQ((*detector)->name(), name);
  }
}

TEST(DetectorRegistry, ListDetectorsIsSortedCanonicalSet) {
  std::vector<std::string> names = ListDetectors();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.size(), std::size(kBuiltins));
  for (const char* name : kBuiltins) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

// Each alias builds its canonical detector, is never listed, and a
// Session opened under it runs — and reports — as the canonical
// detector, bit for bit.
TEST(DetectorRegistry, AliasesResolveToCanonical) {
  struct Alias {
    const char* alias;
    const char* canonical;
  };
  const Alias kAliases[] = {{"bound+", "boundplus"},
                            {"parallel-index", "index"}};
  const std::vector<std::string> listed = ListDetectors();
  testutil::World world = testutil::SmallWorld(609, 30, 200);
  for (const Alias& a : kAliases) {
    SCOPED_TRACE(a.alias);
    EXPECT_TRUE(DetectorRegistry::Global().Contains(a.alias));
    EXPECT_EQ(DetectorRegistry::Global().Resolve(a.alias), a.canonical);
    EXPECT_EQ(std::find(listed.begin(), listed.end(), a.alias),
              listed.end());
    auto detector =
        DetectorRegistry::Global().Create(a.alias, DetectionParams());
    ASSERT_TRUE(detector.ok());
    EXPECT_EQ((*detector)->name(), a.canonical);

    auto run = [&](const char* name) {
      SessionOptions options;
      options.detector = name;
      options.threads = 4;
      auto session = Session::Create(options);
      CD_CHECK_OK(session.status());
      auto report = session->Run(world.data);
      CD_CHECK_OK(report.status());
      return std::move(report).value();
    };
    Report via_alias = run(a.alias);
    Report direct = run(a.canonical);
    EXPECT_EQ(via_alias.detector, a.canonical);
    EXPECT_EQ(via_alias.fusion.rounds, direct.fusion.rounds);
    EXPECT_EQ(via_alias.fusion.value_probs, direct.fusion.value_probs);
    EXPECT_EQ(via_alias.fusion.accuracies, direct.fusion.accuracies);
    EXPECT_EQ(via_alias.fusion.truth, direct.fusion.truth);
    EXPECT_EQ(via_alias.counters.Total(), direct.counters.Total());
    EXPECT_EQ(via_alias.ToJson(world.data), direct.ToJson(world.data));
  }
}

TEST(DetectorRegistry, UnknownNameErrorListsRegistry) {
  EXPECT_FALSE(DetectorRegistry::Global().Contains("typo"));
  EXPECT_EQ(DetectorRegistry::Global().Resolve("typo"), "");
  auto made =
      DetectorRegistry::Global().Create("typo", DetectionParams());
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kNotFound);
  EXPECT_NE(made.status().message().find("available:"),
            std::string::npos);
  for (const char* name : kBuiltins) {
    EXPECT_NE(made.status().message().find(name), std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace copydetect
