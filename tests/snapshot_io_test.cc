// snapshot::Write/Read — round-trip fidelity (every array bit for
// bit, hash-table layouts included) and the fail-closed corruption
// matrix: truncation at any prefix, foreign magic, unknown future
// versions, checksum mismatches, cross-section generation
// disagreement, and structurally inconsistent payloads. Every failure
// must be a descriptive Status, never UB (the suite runs under
// asan-ubsan in CI).
#include "snapshot/snapshot_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <unistd.h>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "model/dataset.h"
#include "simjoin/overlap.h"
#include "snapshot/framing.h"

namespace copydetect {
namespace {

using snapshot::OptionField;
using snapshot::SessionState;

std::string TempPath(const std::string& name) {
  // ctest runs each TEST of this binary as its own process, in
  // parallel; the pid keeps concurrent tests (which share TempDir and
  // reuse names like "good.cdsnap") from clobbering each other.
  return testing::TempDir() + "/" + std::to_string(getpid()) + "." +
         name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A small data set with shared values (every slot used below has
/// >= 2 providers, so an inverted index over it is non-trivial).
Dataset SmallData() {
  DatasetBuilder builder;
  builder.Add("S0", "capital-NJ", "Trenton");
  builder.Add("S1", "capital-NJ", "Trenton");
  builder.Add("S2", "capital-NJ", "Newark");
  builder.Add("S3", "capital-NJ", "Newark");
  builder.Add("S0", "capital-PA", "Harrisburg");
  builder.Add("S1", "capital-PA", "Harrisburg");
  builder.Add("S2", "capital-PA", "Philadelphia");
  builder.Add("S3", "capital-PA", "Harrisburg");
  builder.Add("S0", "capital-NY", "Albany");
  builder.Add("S2", "capital-NY", "Albany");
  builder.Add("S3", "capital-NY", "NYC");
  auto data = builder.Build();
  CD_CHECK_OK(data.status());
  return std::move(data).value();
}

/// Fills every section of a SessionState: options, dataset, overlaps,
/// and a fusion result with copies + trace.
SessionState FullState() {
  SessionState state;
  state.data = SmallData();
  state.generation = state.data.generation();

  state.options.push_back(OptionField::Text("detector", "hybrid"));
  state.options.push_back(OptionField::Real("alpha", 0.1));
  state.options.push_back(OptionField::Uint("threads", 4));
  state.options.push_back(OptionField::Bool("online_updates", true));

  state.has_overlaps = true;
  state.overlaps_generation = state.generation;
  state.overlaps = ComputeOverlaps(state.data);

  FusionResult& fusion = state.fusion;
  fusion.value_probs.assign(state.data.num_slots(), 0.0);
  for (size_t v = 0; v < fusion.value_probs.size(); ++v) {
    // Bit patterns a text round trip would mangle.
    fusion.value_probs[v] = 0.1 + static_cast<double>(v) / 3.0;
  }
  fusion.accuracies.assign(state.data.num_sources(), 0.8);
  fusion.accuracies[1] = 0.97000000000000003;
  fusion.truth.assign(state.data.num_items(), kInvalidSlot);
  fusion.truth[0] = state.data.slot_begin(0);
  fusion.rounds = 2;
  fusion.converged = true;
  PairPosterior posterior;
  posterior.p_indep = 0.25;
  posterior.p_first_copies = 0.125;
  posterior.p_second_copies = 0.625;
  fusion.copies.Set(0, 1, posterior);
  fusion.copies.Set(2, 3, posterior);
  RoundTrace trace;
  trace.round = 1;
  trace.detect_seconds = 0.5;
  trace.computations = 123;
  fusion.trace.push_back(trace);
  fusion.total_seconds = 1.5;

  return state;
}

/// FullState() under a fixed generation token instead of the
/// process-local one, so its file bytes are the same in every process.
SessionState FixedGenerationState() {
  SessionState state = FullState();
  state.generation = 0x5eed;
  state.overlaps_generation = state.generation;
  return state;
}

void ExpectSameDataset(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.num_sources(), want.num_sources());
  ASSERT_EQ(got.num_items(), want.num_items());
  ASSERT_EQ(got.num_slots(), want.num_slots());
  ASSERT_EQ(got.num_observations(), want.num_observations());
  for (SourceId s = 0; s < want.num_sources(); ++s) {
    EXPECT_EQ(got.source_name(s), want.source_name(s));
    ASSERT_EQ(got.coverage(s), want.coverage(s));
    std::span<const ItemId> gi = got.items_of(s);
    std::span<const ItemId> wi = want.items_of(s);
    std::span<const SlotId> gv = got.slots_of(s);
    std::span<const SlotId> wv = want.slots_of(s);
    for (size_t i = 0; i < wi.size(); ++i) {
      EXPECT_EQ(gi[i], wi[i]);
      EXPECT_EQ(gv[i], wv[i]);
    }
  }
  for (ItemId d = 0; d < want.num_items(); ++d) {
    EXPECT_EQ(got.item_name(d), want.item_name(d));
    EXPECT_EQ(got.slot_begin(d), want.slot_begin(d));
    EXPECT_EQ(got.slot_end(d), want.slot_end(d));
  }
  for (SlotId v = 0; v < want.num_slots(); ++v) {
    EXPECT_EQ(got.slot_value(v), want.slot_value(v));
    EXPECT_EQ(got.slot_item(v), want.slot_item(v));
    std::span<const SourceId> gp = got.providers(v);
    std::span<const SourceId> wp = want.providers(v);
    ASSERT_EQ(gp.size(), wp.size());
    for (size_t i = 0; i < wp.size(); ++i) EXPECT_EQ(gp[i], wp[i]);
  }
}

TEST(SnapshotIo, RoundTripsEverySection) {
  const std::string path = TempPath("roundtrip.cdsnap");
  SessionState state = FullState();
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  CD_CHECK_OK(loaded.status());

  EXPECT_EQ(loaded->generation, state.generation);
  ASSERT_EQ(loaded->options.size(), state.options.size());
  for (size_t i = 0; i < state.options.size(); ++i) {
    EXPECT_EQ(loaded->options[i].name, state.options[i].name);
    EXPECT_EQ(loaded->options[i].type, state.options[i].type);
    EXPECT_EQ(loaded->options[i].uint_value,
              state.options[i].uint_value);
    EXPECT_EQ(loaded->options[i].real_value,
              state.options[i].real_value);
    EXPECT_EQ(loaded->options[i].text_value,
              state.options[i].text_value);
  }
  ExpectSameDataset(loaded->data, state.data);
  // The loaded snapshot draws a fresh process-local generation.
  EXPECT_NE(loaded->data.generation(), state.data.generation());

  ASSERT_TRUE(loaded->has_overlaps);
  for (SourceId a = 0; a < state.data.num_sources(); ++a) {
    for (SourceId b = a + 1; b < state.data.num_sources(); ++b) {
      EXPECT_EQ(loaded->overlaps.Get(a, b), state.overlaps.Get(a, b));
    }
  }
  EXPECT_EQ(loaded->overlaps.NumPositivePairs(),
            state.overlaps.NumPositivePairs());

  // Bitwise — including the exact pair-map layout (raw arrays), which
  // is what makes downstream iteration order reproducible.
  EXPECT_EQ(loaded->fusion.value_probs, state.fusion.value_probs);
  EXPECT_EQ(loaded->fusion.accuracies, state.fusion.accuracies);
  EXPECT_EQ(loaded->fusion.truth, state.fusion.truth);
  EXPECT_EQ(loaded->fusion.rounds, state.fusion.rounds);
  EXPECT_EQ(loaded->fusion.converged, state.fusion.converged);
  EXPECT_EQ(loaded->fusion.copies.raw_map().raw_keys(),
            state.fusion.copies.raw_map().raw_keys());
  ASSERT_EQ(loaded->fusion.trace.size(), state.fusion.trace.size());
  EXPECT_EQ(loaded->fusion.trace[0].round, state.fusion.trace[0].round);
  EXPECT_EQ(loaded->fusion.trace[0].detect_seconds,
            state.fusion.trace[0].detect_seconds);
  EXPECT_EQ(loaded->fusion.trace[0].computations,
            state.fusion.trace[0].computations);
  EXPECT_EQ(loaded->fusion.total_seconds, state.fusion.total_seconds);

  std::remove(path.c_str());
}

TEST(SnapshotIo, RoundTripsMinimalState) {
  const std::string path = TempPath("minimal.cdsnap");
  SessionState state;
  state.data = SmallData();
  state.generation = state.data.generation();
  state.fusion.value_probs.assign(state.data.num_slots(), 0.5);
  state.fusion.accuracies.assign(state.data.num_sources(), 0.8);
  state.fusion.truth.assign(state.data.num_items(), kInvalidSlot);
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  CD_CHECK_OK(loaded.status());
  EXPECT_FALSE(loaded->has_overlaps);
  ExpectSameDataset(loaded->data, state.data);
  std::remove(path.c_str());
}

TEST(SnapshotIo, RoundTripsSparseOverlaps) {
  // Force the hash-map overlap representation (dense_threshold below
  // the source count) — the AssignRaw restore path over real counts.
  const std::string path = TempPath("sparse.cdsnap");
  SessionState state = FullState();
  state.overlaps = ComputeOverlaps(state.data, /*dense_threshold=*/2);
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  CD_CHECK_OK(loaded.status());
  ASSERT_TRUE(loaded->has_overlaps);
  for (SourceId a = 0; a < state.data.num_sources(); ++a) {
    for (SourceId b = a + 1; b < state.data.num_sources(); ++b) {
      EXPECT_EQ(loaded->overlaps.Get(a, b), state.overlaps.Get(a, b));
    }
  }
  EXPECT_EQ(loaded->overlaps.NumPositivePairs(),
            state.overlaps.NumPositivePairs());
  std::remove(path.c_str());
}

TEST(SnapshotIo, WriteIsDeterministic) {
  const std::string path_a = TempPath("det_a.cdsnap");
  const std::string path_b = TempPath("det_b.cdsnap");
  SessionState state = FullState();
  CD_CHECK_OK(snapshot::Write(path_a, state));
  CD_CHECK_OK(snapshot::Write(path_b, state));
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SnapshotIo, MissingFileIsNotFound) {
  auto loaded = snapshot::Read(TempPath("no_such_file.cdsnap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// --- The corruption matrix. Every case must produce a descriptive
// InvalidArgument Status; none may crash or read out of bounds. ---

/// Writes FullState() once and hands out its bytes.
const std::vector<uint8_t>& GoodFileBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    const std::string path = TempPath("good.cdsnap");
    CD_CHECK_OK(snapshot::Write(path, FullState()));
    auto* loaded = new std::vector<uint8_t>(ReadFileBytes(path));
    std::remove(path.c_str());
    return loaded;
  }();
  return *bytes;
}

StatusOr<SessionState> ReadBytes(const std::vector<uint8_t>& bytes,
                                 const std::string& name) {
  const std::string path = TempPath(name);
  WriteFileBytes(path, bytes);
  auto loaded = snapshot::Read(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(SnapshotIoCorruption, EveryTruncationFailsClosed) {
  const std::vector<uint8_t>& good = GoodFileBytes();
  ASSERT_GT(good.size(), 128u);
  // Every prefix of the header + section table, then a sweep through
  // the payloads, then the one-byte-short file. Sections cover the
  // file exactly, so *no* strict prefix may load.
  std::vector<size_t> cuts;
  for (size_t n = 0; n < 128; ++n) cuts.push_back(n);
  for (size_t n = 128; n < good.size(); n += 97) cuts.push_back(n);
  cuts.push_back(good.size() - 1);
  for (size_t n : cuts) {
    std::vector<uint8_t> truncated(good.begin(),
                                   good.begin() +
                                       static_cast<ptrdiff_t>(n));
    auto loaded = ReadBytes(truncated, "truncated.cdsnap");
    ASSERT_FALSE(loaded.ok()) << "prefix of " << n << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "prefix " << n;
    EXPECT_FALSE(loaded.status().message().empty()) << "prefix " << n;
  }
}

TEST(SnapshotIoCorruption, ForeignMagicIsRefused) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes[0] = 'X';
  auto loaded = ReadBytes(bytes, "magic.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, TextModeManglingFailsAtTheMagic) {
  // The PNG-style \r\n in the magic: a text-mode transfer that
  // rewrites CR/LF must die at byte 6, not corrupt a payload later.
  std::vector<uint8_t> bytes = GoodFileBytes();
  ASSERT_EQ(bytes[6], '\r');
  bytes.erase(bytes.begin() + 6);  // CRLF -> LF
  auto loaded = ReadBytes(bytes, "crlf.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"),
            std::string::npos);
}

TEST(SnapshotIoCorruption, UnknownFutureVersionIsRefused) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  // Format version lives at bytes [8, 12), little-endian.
  bytes[8] = static_cast<uint8_t>(snapshot::kFormatVersion + 1);
  auto loaded = ReadBytes(bytes, "version.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("format version"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, HeaderTableFlipFailsTheMetaChecksum) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes[40] ^= 0x01;  // inside the first section-table entry
  auto loaded = ReadBytes(bytes, "table.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, PayloadFlipFailsTheSectionChecksum) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes.back() ^= 0x40;  // inside the last section's payload
  auto loaded = ReadBytes(bytes, "payload.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().message();
}

// The checksum is specified in docs/FORMATS.md precisely so an
// independent implementation can verify or craft files. This
// reimplementation (used to forge a consistent file with an unknown
// section id below) doubles as a spec-conformance check.
uint64_t SpecHash64(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ULL ^
               (static_cast<uint64_t>(size) * 0x100000001b3ULL);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h = Mix64(h ^ word);
  }
  if (i < size) {
    uint64_t word = 0;
    for (size_t j = 0; i + j < size; ++j) {
      word |= static_cast<uint64_t>(data[i + j]) << (8 * j);
    }
    h = Mix64(h ^ word);
  }
  return h;
}

TEST(SnapshotIoCorruption, UnknownSectionIdInAKnownVersionIsRefused) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  const size_t header_size = 32;
  const uint32_t sections = bytes[24];  // section count, low byte
  ASSERT_GE(sections, 4u);
  const size_t table_end = header_size + sections * 32;

  // First prove the reimplementation matches the file's meta checksum.
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + table_end, 8);
  ASSERT_EQ(stored, SpecHash64(bytes.data(), table_end))
      << "docs/FORMATS.md checksum spec drifted from the code";

  // Forge: relabel the first section with an id version 1 does not
  // define, re-seal the table, and expect a precise refusal.
  bytes[header_size] = 99;
  uint64_t resealed = SpecHash64(bytes.data(), table_end);
  std::memcpy(bytes.data() + table_end, &resealed, 8);
  auto loaded = ReadBytes(bytes, "unknown_section.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown section id 99"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, DuplicateSectionIdIsRefused) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  const size_t header_size = 32;
  const uint32_t sections = bytes[24];
  ASSERT_EQ(sections, 4u);  // OPTIONS, DATASET, OVERLAPS, FUSION
  const size_t table_end = header_size + sections * 32;
  // Relabel the FUSION entry as a second OVERLAPS and re-seal the
  // table: the checksums all pass, so only the duplicate check can
  // refuse a section that would silently overwrite validated state.
  bytes[header_size + 3 * 32] = 3;
  uint64_t resealed = SpecHash64(bytes.data(), table_end);
  std::memcpy(bytes.data() + table_end, &resealed, 8);
  auto loaded = ReadBytes(bytes, "dup_section.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("duplicate section id 3"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, OverlapsGenerationMismatchIsRefused) {
  const std::string path = TempPath("gen_overlaps.cdsnap");
  SessionState state = FullState();
  state.overlaps_generation = state.generation + 1;
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("generation mismatch"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, OverlapsForWrongSourceCountAreRefused) {
  const std::string path = TempPath("overlap_dims.cdsnap");
  SessionState state = FullState();
  DatasetBuilder bigger;
  for (int s = 0; s < 6; ++s) {
    // Built up with += to sidestep GCC 12's operator+ -Wrestrict
    // false positive (PR105651) under -Werror.
    std::string name = "B";
    name += std::to_string(s);
    bigger.Add(name, "item", "v");
  }
  auto big = bigger.Build();
  CD_CHECK_OK(big.status());
  state.overlaps = ComputeOverlaps(*big);  // 6 sources, data has 4
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("sources"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, FusionDimensionMismatchIsRefused) {
  const std::string path = TempPath("fusion_dims.cdsnap");
  SessionState state = FullState();
  state.fusion.value_probs.push_back(0.5);  // one slot too many
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("FUSION"), std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, TruthSlotOutOfRangeIsRefused) {
  const std::string path = TempPath("truth_range.cdsnap");
  SessionState state = FullState();
  state.fusion.truth[0] =
      static_cast<SlotId>(state.data.num_slots() + 3);
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("truth slot"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoCorruption, PairKeyOutOfSourceRangeIsRefused) {
  const std::string path = TempPath("pair_range.cdsnap");
  SessionState state = FullState();
  PairPosterior posterior;
  posterior.p_indep = 0.4;
  state.fusion.copies.Set(0, 700, posterior);  // data has 4 sources
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("pair key"),
            std::string::npos)
      << loaded.status().message();
}

// --- Version-2 mapped reading: ReadMapped must serve byte-identical
// state out of the mapping, refuse the same corruption matrix, and
// fall back to the owned decoder for version-1 files. ---

StatusOr<SessionState> ReadBytesMapped(
    const std::vector<uint8_t>& bytes, const std::string& name) {
  const std::string path = TempPath(name);
  WriteFileBytes(path, bytes);
  auto loaded = snapshot::ReadMapped(path);
  // Unlinking with the mapping live is fine on POSIX — the keepalive
  // holds the pages; this doubles as a test of that property.
  std::remove(path.c_str());
  return loaded;
}

void ExpectSameState(const SessionState& got, const SessionState& want) {
  EXPECT_EQ(got.generation, want.generation);
  ExpectSameDataset(got.data, want.data);
  ASSERT_EQ(got.has_overlaps, want.has_overlaps);
  if (want.has_overlaps) {
    for (SourceId a = 0; a < want.data.num_sources(); ++a) {
      for (SourceId b = a + 1; b < want.data.num_sources(); ++b) {
        EXPECT_EQ(got.overlaps.Get(a, b), want.overlaps.Get(a, b));
      }
    }
    EXPECT_EQ(got.overlaps.NumPositivePairs(),
              want.overlaps.NumPositivePairs());
  }
  EXPECT_EQ(got.fusion.value_probs, want.fusion.value_probs);
  EXPECT_EQ(got.fusion.accuracies, want.fusion.accuracies);
  EXPECT_EQ(got.fusion.truth, want.fusion.truth);
  EXPECT_EQ(got.fusion.rounds, want.fusion.rounds);
  EXPECT_EQ(got.fusion.converged, want.fusion.converged);
  EXPECT_EQ(got.fusion.copies.raw_map().raw_keys(),
            want.fusion.copies.raw_map().raw_keys());
}

TEST(SnapshotIoMapped, MappedStateMatchesOwnedRead) {
  const std::string path = TempPath("mapped_roundtrip.cdsnap");
  SessionState state = FullState();
  CD_CHECK_OK(snapshot::Write(path, state));
  auto owned = snapshot::Read(path);
  CD_CHECK_OK(owned.status());
  auto mapped = snapshot::ReadMapped(path);
  CD_CHECK_OK(mapped.status());
  std::remove(path.c_str());
  ExpectSameState(*mapped, *owned);
}

TEST(SnapshotIoMapped, MappedStateOutlivesTheUnlinkedFile) {
  auto mapped = ReadBytesMapped(GoodFileBytes(), "mapped_keep.cdsnap");
  CD_CHECK_OK(mapped.status());
  // The backing file is gone; every array must still read correctly
  // (the mapping keepalive owns the pages).
  SessionState want = FullState();
  ExpectSameDataset(mapped->data, want.data);
}

TEST(SnapshotIoMappedCorruption, EveryTruncationFailsClosed) {
  const std::vector<uint8_t>& good = GoodFileBytes();
  ASSERT_GT(good.size(), 128u);
  std::vector<size_t> cuts;
  for (size_t n = 0; n < 128; ++n) cuts.push_back(n);
  for (size_t n = 128; n < good.size(); n += 97) cuts.push_back(n);
  cuts.push_back(good.size() - 1);
  for (size_t n : cuts) {
    std::vector<uint8_t> truncated(good.begin(),
                                   good.begin() +
                                       static_cast<ptrdiff_t>(n));
    auto loaded = ReadBytesMapped(truncated, "mtrunc.cdsnap");
    ASSERT_FALSE(loaded.ok()) << "prefix of " << n << " bytes mapped";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "prefix " << n;
  }
}

TEST(SnapshotIoMappedCorruption, ForeignMagicIsRefused) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes[0] = 'X';
  auto loaded = ReadBytesMapped(bytes, "mmagic.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"),
            std::string::npos);
}

TEST(SnapshotIoMappedCorruption, PayloadFlipFailsTheSectionChecksum) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes.back() ^= 0x40;
  auto loaded = ReadBytesMapped(bytes, "mpayload.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoMappedCorruption, HeaderTableFlipFailsTheMetaChecksum) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes[40] ^= 0x01;
  auto loaded = ReadBytesMapped(bytes, "mtable.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoMappedCorruption, MisalignedForgedOffsetIsRefused) {
  // A version-2 file whose table places a section at an odd offset.
  // Only a forged table can produce this (the writer always pads to
  // 8); the mapped reader must refuse it eagerly rather than hand out
  // views aliasing misaligned memory. The table is re-sealed so the
  // alignment check — not the checksum — is what fires.
  std::vector<uint8_t> bytes = GoodFileBytes();
  const size_t header_size = 32;
  const uint32_t sections = bytes[24];
  const size_t table_end = header_size + sections * 32;
  uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + header_size + 2 * 32 + 8, 8);
  offset += 1;
  std::memcpy(bytes.data() + header_size + 2 * 32 + 8, &offset, 8);
  uint64_t resealed = SpecHash64(bytes.data(), table_end);
  std::memcpy(bytes.data() + table_end, &resealed, 8);
  auto loaded = ReadBytesMapped(bytes, "malign.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("misaligned"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotFraming, StreamedChecksumMatchesOneShot) {
  // The writer checksums each payload in the pieces it streams; any
  // split of the bytes must give the one-shot Hash64.
  std::vector<uint8_t> bytes(203);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const uint64_t want = snapshot_internal::Hash64(bytes.data(),
                                                  bytes.size());
  for (size_t piece : {1, 3, 7, 8, 9, 64, 200}) {
    snapshot_internal::Hasher64 h(bytes.size());
    for (size_t at = 0; at < bytes.size(); at += piece) {
      h.Update(bytes.data() + at, std::min(piece, bytes.size() - at));
    }
    EXPECT_EQ(h.Finish(), want) << "piece " << piece;
  }
}

TEST(SnapshotIo, WriteMatchesCommittedVersion2Golden) {
  // tests/data/v2_golden.cdsnap holds FixedGenerationState() as an
  // earlier writer framed it: every byte of the current writer's
  // output — header, table, checksums, padding, payloads — must match.
  const std::string path = TempPath("v2_golden.cdsnap");
  CD_CHECK_OK(snapshot::Write(path, FixedGenerationState()));
  const std::vector<uint8_t> golden =
      ReadFileBytes(std::string(CD_TEST_DATA_DIR) + "/v2_golden.cdsnap");
  ASSERT_FALSE(golden.empty());
  EXPECT_TRUE(ReadFileBytes(path) == golden);
  std::remove(path.c_str());
}

TEST(SnapshotIoMapped, Version1GoldenFallsBackToOwnedRead) {
  // A committed pre-mmap (version 1) snapshot: both entry points must
  // read it, producing identical state — ReadMapped transparently
  // falls back to the owned decoder for files without the version-2
  // alignment guarantee.
  const std::string path =
      std::string(CD_TEST_DATA_DIR) + "/v1_golden.cdsnap";
  auto owned = snapshot::Read(path);
  CD_CHECK_OK(owned.status());
  auto mapped = snapshot::ReadMapped(path);
  CD_CHECK_OK(mapped.status());
  ExpectSameState(*mapped, *owned);
}

// --- Legacy TAPE sections: files written before the update tape was
// dropped must still load, with the section checksummed and skipped. ---

/// Forges the file older libraries wrote: `bytes` (a version-2 file)
/// plus a trailing TAPE section (id 5) holding `payload`, framed per
/// docs/FORMATS.md — the table grows by one entry, every payload
/// shifts by it, and the new section starts 8-byte aligned.
std::vector<uint8_t> WithLegacyTape(const std::vector<uint8_t>& bytes,
                                    const std::vector<uint8_t>& payload) {
  const size_t header_size = 32;
  uint32_t sections = 0;
  std::memcpy(&sections, bytes.data() + 24, 4);
  const size_t old_payloads = header_size + sections * 32 + 8;
  const size_t new_payloads = old_payloads + 32;
  std::vector<uint8_t> out(bytes.begin(),
                           bytes.begin() + header_size + sections * 32);
  const uint32_t grown = sections + 1;
  std::memcpy(out.data() + 24, &grown, 4);
  for (uint32_t i = 0; i < sections; ++i) {
    uint64_t offset = 0;
    std::memcpy(&offset, out.data() + header_size + i * 32 + 8, 8);
    offset += 32;
    std::memcpy(out.data() + header_size + i * 32 + 8, &offset, 8);
  }
  const uint64_t tape_offset =
      (bytes.size() - old_payloads + new_payloads + 7) & ~uint64_t{7};
  const uint64_t tape_size = payload.size();
  const uint64_t tape_sum = SpecHash64(payload.data(), payload.size());
  const uint32_t tape_id = 5;
  const uint32_t reserved = 0;
  out.resize(out.size() + 32);
  uint8_t* entry = out.data() + header_size + sections * 32;
  std::memcpy(entry, &tape_id, 4);
  std::memcpy(entry + 4, &reserved, 4);
  std::memcpy(entry + 8, &tape_offset, 8);
  std::memcpy(entry + 16, &tape_size, 8);
  std::memcpy(entry + 24, &tape_sum, 8);
  const uint64_t meta = SpecHash64(out.data(), out.size());
  out.resize(out.size() + 8);
  std::memcpy(out.data() + out.size() - 8, &meta, 8);
  out.insert(out.end(), bytes.begin() + old_payloads, bytes.end());
  out.resize(tape_offset, 0);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// A TAPE payload in the legacy layout (u64 generation, u8 has_copies,
/// u64 round count) declaring far more rounds than it holds — readers
/// that skip the section never look at it.
std::vector<uint8_t> LegacyTapePayload() {
  std::vector<uint8_t> payload(17, 0);
  const uint64_t rounds = 1ULL << 40;
  std::memcpy(payload.data() + 9, &rounds, 8);
  return payload;
}

TEST(SnapshotIoLegacyTape, ReadersVerifyAndSkipTheSection) {
  std::vector<uint8_t> bytes =
      WithLegacyTape(GoodFileBytes(), LegacyTapePayload());
  auto owned = ReadBytes(bytes, "legacy_tape.cdsnap");
  CD_CHECK_OK(owned.status());
  auto mapped = ReadBytesMapped(bytes, "legacy_tape_mapped.cdsnap");
  CD_CHECK_OK(mapped.status());
  auto plain = ReadBytes(GoodFileBytes(), "legacy_plain.cdsnap");
  CD_CHECK_OK(plain.status());
  ExpectSameState(*owned, *plain);
  ExpectSameState(*mapped, *plain);
}

TEST(SnapshotIoLegacyTape, PayloadFlipFailsTheSectionChecksum) {
  std::vector<uint8_t> bytes =
      WithLegacyTape(GoodFileBytes(), LegacyTapePayload());
  bytes.back() ^= 0x40;  // inside the TAPE payload
  for (bool mapped : {false, true}) {
    SCOPED_TRACE(mapped ? "mapped" : "owned");
    auto loaded = mapped ? ReadBytesMapped(bytes, "legacy_flip_m.cdsnap")
                         : ReadBytes(bytes, "legacy_flip.cdsnap");
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("checksum mismatch"),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST(SnapshotIoLegacyTape, DuplicateTapeIsRefused) {
  const std::vector<uint8_t> once =
      WithLegacyTape(GoodFileBytes(), LegacyTapePayload());
  auto loaded = ReadBytes(WithLegacyTape(once, LegacyTapePayload()),
                          "legacy_dup.cdsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("duplicate section id 5"),
            std::string::npos)
      << loaded.status().message();
}

// --- Shard/BSP files: single-section .cdsnap framing around
// ShardResult and BspState. ---

Counters FilledCounters(uint64_t base) {
  Counters counters;
  counters.score_evals = base + 1;
  counters.bound_evals = base + 2;
  counters.finalize_evals = base + 3;
  counters.pairs_tracked = base + 4;
  counters.entries_scanned = base + 5;
  counters.values_examined = base + 6;
  counters.early_copy = base + 7;
  counters.early_nocopy = base + 8;
  return counters;
}

void ExpectSameCounters(const Counters& got, const Counters& want) {
  EXPECT_EQ(got.score_evals, want.score_evals);
  EXPECT_EQ(got.bound_evals, want.bound_evals);
  EXPECT_EQ(got.finalize_evals, want.finalize_evals);
  EXPECT_EQ(got.pairs_tracked, want.pairs_tracked);
  EXPECT_EQ(got.entries_scanned, want.entries_scanned);
  EXPECT_EQ(got.values_examined, want.values_examined);
  EXPECT_EQ(got.early_copy, want.early_copy);
  EXPECT_EQ(got.early_nocopy, want.early_nocopy);
}

TEST(SnapshotIoShard, ShardResultRoundTrips) {
  const std::string path = TempPath("shard.cdsnap");
  Dataset data = SmallData();
  ShardResult shard;
  shard.num_shards = 3;
  shard.shard_id = 1;
  shard.round = 2;
  shard.counters = FilledCounters(100);
  PairPosterior posterior;
  posterior.p_indep = 0.25;
  posterior.p_first_copies = 0.125;
  posterior.p_second_copies = 0.625;
  shard.copies.Set(0, 1, posterior);
  shard.copies.Set(1, 3, posterior);
  CD_CHECK_OK(snapshot::WriteShardResult(path, shard));
  auto loaded = snapshot::ReadShardResult(path, data);
  std::remove(path.c_str());
  CD_CHECK_OK(loaded.status());
  EXPECT_EQ(loaded->num_shards, shard.num_shards);
  EXPECT_EQ(loaded->shard_id, shard.shard_id);
  EXPECT_EQ(loaded->round, shard.round);
  ExpectSameCounters(loaded->counters, shard.counters);
  EXPECT_EQ(loaded->copies.raw_map().raw_keys(),
            shard.copies.raw_map().raw_keys());
}

TEST(SnapshotIoShard, ShardPairKeyOutOfRangeIsRefused) {
  const std::string path = TempPath("shard_range.cdsnap");
  Dataset data = SmallData();
  ShardResult shard;
  shard.num_shards = 2;
  PairPosterior posterior;
  posterior.p_indep = 0.4;
  shard.copies.Set(0, 700, posterior);  // data has 4 sources
  CD_CHECK_OK(snapshot::WriteShardResult(path, shard));
  auto loaded = snapshot::ReadShardResult(path, data);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
}

TEST(SnapshotIoShard, CorruptShardFileIsRefused) {
  const std::string path = TempPath("shard_corrupt.cdsnap");
  ShardResult shard;
  shard.num_shards = 2;
  shard.counters = FilledCounters(0);
  CD_CHECK_OK(snapshot::WriteShardResult(path, shard));
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes.back() ^= 0x10;
  WriteFileBytes(path, bytes);
  auto loaded = snapshot::ReadShardResult(path, SmallData());
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SnapshotIoShard, ShardFileIsNotASessionSnapshot) {
  // A shard file must not load as a full session snapshot (it lacks
  // the mandatory OPTIONS/DATASET/FUSION sections), and vice versa a
  // session snapshot must not read as a shard file.
  const std::string path = TempPath("shard_vs_snap.cdsnap");
  ShardResult shard;
  shard.num_shards = 2;
  CD_CHECK_OK(snapshot::WriteShardResult(path, shard));
  EXPECT_FALSE(snapshot::Read(path).ok());
  std::remove(path.c_str());

  SessionState state = FullState();
  CD_CHECK_OK(snapshot::Write(path, state));
  EXPECT_FALSE(snapshot::ReadShardResult(path, state.data).ok());
  std::remove(path.c_str());
}

TEST(SnapshotIoShard, BspStateRoundTrips) {
  const std::string path = TempPath("bsp_state.cdsnap");
  SessionState full = FullState();
  snapshot::BspState state;
  state.num_shards = 4;
  state.counters = FilledCounters(1000);
  state.fusion = full.fusion;
  CD_CHECK_OK(snapshot::WriteBspState(path, state));
  auto loaded = snapshot::ReadBspState(path, full.data);
  std::remove(path.c_str());
  CD_CHECK_OK(loaded.status());
  EXPECT_EQ(loaded->num_shards, state.num_shards);
  ExpectSameCounters(loaded->counters, state.counters);
  EXPECT_EQ(loaded->fusion.value_probs, state.fusion.value_probs);
  EXPECT_EQ(loaded->fusion.accuracies, state.fusion.accuracies);
  EXPECT_EQ(loaded->fusion.truth, state.fusion.truth);
  EXPECT_EQ(loaded->fusion.rounds, state.fusion.rounds);
  EXPECT_EQ(loaded->fusion.converged, state.fusion.converged);
  EXPECT_EQ(loaded->fusion.copies.raw_map().raw_keys(),
            state.fusion.copies.raw_map().raw_keys());
}

TEST(SnapshotIoShard, BspStateDimensionMismatchIsRefused) {
  const std::string path = TempPath("bsp_dims.cdsnap");
  SessionState full = FullState();
  snapshot::BspState state;
  state.num_shards = 2;
  state.fusion = full.fusion;
  state.fusion.value_probs.push_back(0.5);  // one slot too many
  CD_CHECK_OK(snapshot::WriteBspState(path, state));
  auto loaded = snapshot::ReadBspState(path, full.data);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace copydetect
