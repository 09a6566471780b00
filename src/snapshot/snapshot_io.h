#ifndef COPYDETECT_SNAPSHOT_SNAPSHOT_IO_H_
#define COPYDETECT_SNAPSHOT_SNAPSHOT_IO_H_

/// \file
/// SnapshotIO — the durability layer: a versioned, checksummed,
/// little-endian binary format that persists a Dataset snapshot
/// together with its derived state (overlap counts and the last fusion
/// result), so a process can resume exactly where the previous one
/// stopped instead of re-parsing, recounting and re-fusing from cold.
///
/// The on-disk format is specified byte by byte in docs/FORMATS.md;
/// this header is the programmatic surface. Applications normally go
/// through Session::Save / Session::Load (copydetect/session.h) —
/// the free Write/Read functions here are the lower-level primitive
/// the facade is built on (and what tests use to construct corrupt
/// or inconsistent files).
///
/// Guarantees:
///  * Round-trip fidelity: Read(Write(state)) reproduces every array
///    bit for bit — doubles are stored as raw IEEE-754 bit patterns
///    and hash-table payloads keep their exact table layout, so a
///    resumed session's subsequent Update/Step output is bit-identical
///    to a session that never left memory.
///  * Fail-closed loading: a truncated file, foreign magic, unknown
///    future format version, checksum mismatch, cross-section
///    generation mismatch, or structurally inconsistent payload all
///    yield a descriptive error Status — never undefined behavior.
///  * Compatibility policy: files written by format version N are
///    refused (with a Status naming both versions) by readers that
///    only know M < N; readers accept versions they know. This
///    version-2 reader accepts 1 (pre-alignment, owned decode only)
///    and 2.
///
/// Version 2 additionally aligns every section payload — and every
/// POD array inside a payload — to an 8-byte file offset, which lets
/// MmapReader/ReadMapped serve the Dataset arrays and the dense
/// overlap triangle zero-copy out of the mapped file (the ArrayStore
/// view backend). Version-1 files remain readable through the owned
/// decode path.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/copy_result.h"
#include "core/counters.h"
#include "core/shard_merge.h"
#include "fusion/truth_finder.h"
#include "model/dataset.h"
#include "simjoin/overlap.h"

namespace copydetect {
namespace snapshot {

/// Current on-disk format version. Version 2 pads sections and POD
/// arrays to 8-byte alignment (the mmap zero-copy requirement). Bump
/// on any layout change; readers refuse versions they do not know.
inline constexpr uint32_t kFormatVersion = 2;

/// Oldest version this reader still decodes (via the owned path).
inline constexpr uint32_t kMinReadVersion = 1;

/// First 8 bytes of every snapshot file. Like the PNG magic, the
/// CR/LF pair makes text-mode line-ending mangling fail loudly at
/// byte 6 instead of corrupting a payload much later.
inline constexpr unsigned char kMagic[8] = {'C', 'D', 'S', 'N',
                                            'A', 'P', '\r', '\n'};

/// Section ids. The section table is the unit of integrity checking
/// (one checksum per section) and of forward evolution (new optional
/// state = new section id + version bump). Ids 1-5 are the session
/// snapshot sections (versions 1 and 2); 6 and 7 frame the
/// multi-process shard protocol's files (version 2).
enum class SectionId : uint32_t {
  kOptions = 1,   ///< session configuration, self-describing fields
  kDataset = 2,   ///< the Dataset snapshot, all arrays verbatim
  kOverlaps = 3,  ///< the snapshot's OverlapCounts (optional)
  kFusion = 4,    ///< the last completed run's FusionResult
  kTape = 5,      ///< legacy update tape: checksummed, then ignored
  kShard = 6,     ///< one shard's round result (shard files only)
  kState = 7,     ///< BSP coordinator state (state files only)
};

/// One self-describing configuration field of the OPTIONS section:
/// name + type tag + value. Self-description keeps the section
/// reviewable with a hex dump and makes "written by a newer library"
/// failures precise (the unknown field is named in the Status).
struct OptionField {
  enum class Type : uint8_t {
    kBool = 0,
    kUint = 1,
    kReal = 2,
    kText = 3,
  };

  std::string name;
  Type type = Type::kUint;
  uint64_t uint_value = 0;  ///< kBool (0/1) and kUint
  double real_value = 0.0;  ///< kReal
  std::string text_value;   ///< kText

  static OptionField Bool(std::string name, bool v);
  static OptionField Uint(std::string name, uint64_t v);
  static OptionField Real(std::string name, double v);
  static OptionField Text(std::string name, std::string v);
};

/// Everything one file holds. Write() serializes it as given —
/// including inconsistent generations, which Read() then refuses —
/// so tests can construct every corruption scenario through the
/// public API.
struct SessionState {
  /// Dataset::generation() at save time. Generations are process-
  /// local (a loaded Dataset draws a fresh one); on disk this value
  /// is a consistency token: every derived-state section records the
  /// generation it was computed for, and Read() refuses a file whose
  /// sections disagree (state derived from a different snapshot must
  /// never be warm-started against this one).
  uint64_t generation = 0;

  std::vector<OptionField> options;
  Dataset data;

  bool has_overlaps = false;
  uint64_t overlaps_generation = 0;
  OverlapCounts overlaps;

  FusionResult fusion;
};

/// A read-only view of the same content, pointing into live state —
/// what Session::Save hands to Write, so saving copies nothing: the
/// payloads stream from these structures straight to the file.
struct SessionStateView {
  uint64_t generation = 0;
  std::span<const OptionField> options;
  const Dataset* data = nullptr;
  /// Null when the file carries no OVERLAPS section.
  const OverlapCounts* overlaps = nullptr;
  uint64_t overlaps_generation = 0;
  const FusionResult* fusion = nullptr;
};

/// Serializes `state` to `path` (overwriting). The file is written
/// via a same-directory temporary + rename, so a crash mid-write
/// never leaves a half-written file at `path`; the payloads stream to
/// the temporary file through a small buffer, so peak memory does not
/// grow with the file. `data` and `fusion` must be set.
Status Write(const std::string& path, const SessionStateView& state);

/// Write() of an owned state (tests build corrupt or inconsistent
/// files through this).
Status Write(const std::string& path, const SessionState& state);

/// Reads and fully validates a snapshot file: magic, format version,
/// section table, per-section checksums, cross-section generation
/// consistency, and structural payload validation (every id in
/// range, every CSR monotone) — a file that Read() accepts is safe
/// to hand to the detection algorithms.
StatusOr<SessionState> Read(const std::string& path);

/// Recovery scan: the `.cdsnap` files directly inside `dir`, sorted
/// by filename so recovery order is deterministic. Paths are returned
/// joined ("dir/name.cdsnap"); non-snapshot files are skipped
/// silently (a state directory may hold temp files from interrupted
/// atomic writes). NotFound when `dir` does not exist or is not a
/// directory — a daemon treats that as "no state yet", anything else
/// as a real error.
StatusOr<std::vector<std::string>> ListSnapshotFiles(
    const std::string& dir);

/// A `.cdsnap` file mapped read-only into the address space. Open()
/// validates the framing eagerly (magic, version, bounds-checked
/// section table, meta checksum, v2 section alignment); section
/// payload checksums are verified lazily at first Section() access —
/// a server mapping a large snapshot pays for integrity checking only
/// on the sections it touches. Instances are shared_ptr-managed
/// because they double as the keepalive behind every ArrayStore view
/// ReadMapped hands out: the mapping stays live for as long as any
/// view into it does. Not thread-safe during Section() (the lazy
/// verification mutates a flag); share only after loading completes.
class MmapReader {
 public:
  static StatusOr<std::shared_ptr<MmapReader>> Open(
      const std::string& path);
  ~MmapReader();
  MmapReader(const MmapReader&) = delete;
  MmapReader& operator=(const MmapReader&) = delete;

  uint32_t version() const { return version_; }
  uint64_t generation() const { return generation_; }

  /// Section ids, in table order.
  std::vector<uint32_t> SectionIds() const;

  /// Payload bytes of section `id` (first occurrence), verifying its
  /// checksum on first access. NotFound when the file has no such
  /// section; InvalidArgument on checksum mismatch.
  StatusOr<std::span<const uint8_t>> Section(uint32_t id);

 private:
  struct Entry {
    uint32_t id = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;
    bool verified = false;
  };

  MmapReader() = default;

  std::string path_;
  const uint8_t* base_ = nullptr;
  size_t size_ = 0;
  uint32_t version_ = 0;
  uint64_t generation_ = 0;
  std::vector<Entry> entries_;
};

/// Mapped-mode Read(): same validation and the same SessionState, but
/// the Dataset's POD/string arrays and the dense overlap triangle are
/// ArrayStore views straight into the mapped file instead of decoded
/// heap copies — peak memory stays at roughly the resident mapped
/// pages instead of file + decoded copy. Requires a version-2 file;
/// version-1 files (and big-endian hosts) transparently fall back to
/// the owned Read(). The returned state's views keep the mapping
/// alive; Dataset::Apply copies-on-write out of it.
StatusOr<SessionState> ReadMapped(const std::string& path);

/// One shard's round output (ShardResult), framed exactly like a
/// snapshot: magic, version, single SHARD section, checksummed. The
/// reader validates pair keys against `data`.
Status WriteShardResult(const std::string& path,
                        const ShardResult& shard);
StatusOr<ShardResult> ReadShardResult(const std::string& path,
                                      const Dataset& data);

/// Coordinator state of a multi-process (BSP) sharded run: the plan
/// width, counters accumulated over merged rounds, and the fusion
/// loop state after the last merged round. One STATE section, same
/// framing.
struct BspState {
  uint32_t num_shards = 0;
  Counters counters;
  FusionResult fusion;
};

Status WriteBspState(const std::string& path, const BspState& state);
StatusOr<BspState> ReadBspState(const std::string& path,
                                const Dataset& data);

}  // namespace snapshot
}  // namespace copydetect

#endif  // COPYDETECT_SNAPSHOT_SNAPSHOT_IO_H_
