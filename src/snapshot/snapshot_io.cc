#include "snapshot/snapshot_io.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/stringutil.h"
#include "snapshot/framing.h"

namespace copydetect {

namespace snapshot_internal {

/// Friend-access shims: move the private arrays of the two structures
/// whose layout the format persists verbatim. Kept to dumb
/// field-shuttling so the wire logic below stays in one place.
struct DatasetSerde {
  struct Arrays {
    std::vector<std::string> source_names;
    std::vector<std::string> item_names;
    std::vector<std::string> slot_value;
    std::vector<ItemId> slot_item;
    std::vector<SlotId> item_slot_begin;
    std::vector<uint32_t> provider_begin;
    std::vector<SourceId> providers;
    std::vector<uint32_t> src_begin;
    std::vector<ItemId> obs_item;
    std::vector<SlotId> obs_slot;
  };

  // Write-path accessors: serialization streams the arrays from
  // where they live (copying a large Dataset just to write it would
  // double the Save peak).
  static const StringArray& source_names(const Dataset& d) {
    return d.source_names_;
  }
  static const StringArray& item_names(const Dataset& d) {
    return d.item_names_;
  }
  static const StringArray& slot_value(const Dataset& d) {
    return d.slot_value_;
  }
  static const ArrayStore<ItemId>& slot_item(const Dataset& d) {
    return d.slot_item_;
  }
  static const ArrayStore<SlotId>& item_slot_begin(const Dataset& d) {
    return d.item_slot_begin_;
  }
  static const ArrayStore<uint32_t>& provider_begin(const Dataset& d) {
    return d.provider_begin_;
  }
  static const ArrayStore<SourceId>& providers(const Dataset& d) {
    return d.providers_;
  }
  static const ArrayStore<uint32_t>& src_begin(const Dataset& d) {
    return d.src_begin_;
  }
  static const ArrayStore<ItemId>& obs_item(const Dataset& d) {
    return d.obs_item_;
  }
  static const ArrayStore<SlotId>& obs_slot(const Dataset& d) {
    return d.obs_slot_;
  }

  /// Installs the arrays into `d` (which keeps the fresh generation
  /// it drew at construction — generations are process-local).
  static void Install(Arrays a, Dataset* d) {
    d->source_names_ = std::move(a.source_names);
    d->item_names_ = std::move(a.item_names);
    d->slot_value_ = std::move(a.slot_value);
    d->slot_item_ = std::move(a.slot_item);
    d->item_slot_begin_ = std::move(a.item_slot_begin);
    d->provider_begin_ = std::move(a.provider_begin);
    d->providers_ = std::move(a.providers);
    d->src_begin_ = std::move(a.src_begin);
    d->obs_item_ = std::move(a.obs_item);
    d->obs_slot_ = std::move(a.obs_slot);
  }

  /// View-backed twin of Arrays: spans/string_views aliasing a mapped
  /// snapshot instead of decoded heap copies.
  struct ViewArrays {
    std::vector<std::string_view> source_names;
    std::vector<std::string_view> item_names;
    std::vector<std::string_view> slot_value;
    std::span<const ItemId> slot_item;
    std::span<const SlotId> item_slot_begin;
    std::span<const uint32_t> provider_begin;
    std::span<const SourceId> providers;
    std::span<const uint32_t> src_begin;
    std::span<const ItemId> obs_item;
    std::span<const SlotId> obs_slot;
  };

  /// Installs mapped views; `keepalive` (the MmapReader) is shared
  /// into every store so the mapping outlives any use of `d`.
  static void InstallView(ViewArrays a,
                          const std::shared_ptr<const void>& keepalive,
                          Dataset* d) {
    d->source_names_ =
        StringArray::View(std::move(a.source_names), keepalive);
    d->item_names_ = StringArray::View(std::move(a.item_names), keepalive);
    d->slot_value_ = StringArray::View(std::move(a.slot_value), keepalive);
    d->slot_item_ = ArrayStore<ItemId>::View(a.slot_item, keepalive);
    d->item_slot_begin_ =
        ArrayStore<SlotId>::View(a.item_slot_begin, keepalive);
    d->provider_begin_ =
        ArrayStore<uint32_t>::View(a.provider_begin, keepalive);
    d->providers_ = ArrayStore<SourceId>::View(a.providers, keepalive);
    d->src_begin_ = ArrayStore<uint32_t>::View(a.src_begin, keepalive);
    d->obs_item_ = ArrayStore<ItemId>::View(a.obs_item, keepalive);
    d->obs_slot_ = ArrayStore<SlotId>::View(a.obs_slot, keepalive);
  }
};

struct OverlapSerde {
  static bool dense_mode(const OverlapCounts& c) { return c.dense_mode_; }
  static SourceId num_sources(const OverlapCounts& c) {
    return c.num_sources_;
  }
  static const ArrayStore<uint32_t>& dense(const OverlapCounts& c) {
    return c.dense_;
  }
  static const FlatHashMap<uint32_t>& sparse(const OverlapCounts& c) {
    return c.sparse_;
  }

  /// `dense` accepts either backend: owned decode passes a vector
  /// (implicit conversion), the mapped path passes an ArrayStore view.
  static void Install(bool dense_mode, SourceId num_sources,
                      ArrayStore<uint32_t> dense,
                      FlatHashMap<uint32_t> sparse, OverlapCounts* out) {
    out->dense_mode_ = dense_mode;
    out->num_sources_ = num_sources;
    out->dense_ = std::move(dense);
    out->sparse_ = std::move(sparse);
  }
};

}  // namespace snapshot_internal

namespace snapshot {

namespace {

using snapshot_internal::DatasetSerde;
using snapshot_internal::Hash64;
using snapshot_internal::kHeaderSize;
using snapshot_internal::kMaxSections;
using snapshot_internal::kTableEntrySize;
using snapshot_internal::OverlapSerde;
using snapshot_internal::TableEntry;

// ---------------------------------------------------------------------
// Little-endian wire primitives. Scalars are encoded byte-wise (so the
// code is endian-correct by construction); bulk POD arrays take the
// memcpy fast path on little-endian hosts.
//
// A Writer runs in one of two modes. A measuring writer only counts
// the bytes (the framing pass that sizes each section); a streaming
// writer sends them to the file through a small buffer — large arrays
// straight from the live structure — and hashes them on the way out.
// Every section serializer runs once in each mode, so the measured
// size and the written bytes come from the same code, and no payload
// is ever assembled in memory.

class Writer {
 public:
  /// Measuring writer: counts bytes, writes none.
  Writer() : hash_(0) {}

  /// Streaming writer: appends to `file` and checksums the `size`
  /// bytes the measuring pass counted for this payload.
  Writer(std::FILE* file, uint64_t size) : file_(file), hash_(size) {}

  void U8(uint8_t v) { Put(&v, 1); }

  void U32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    Put(b, 4);
  }

  void U64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    Put(b, 8);
  }

  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

  void Str(std::string_view s) {
    U64(s.size());
    Put(s.data(), s.size());
  }

  /// Zero-pads to the next 8-byte boundary relative to the payload
  /// start. Section payloads start 8-aligned in the file (version 2),
  /// so padding here lands the bytes 8-aligned on disk.
  void AlignTo8() {
    static constexpr uint8_t kZeros[8] = {};
    Put(kZeros, (8 - size_ % 8) % 8);
  }

  template <typename T>
  void Vec(std::span<const T> v) {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    // Version 2: align so the element bytes after the 8-byte count
    // start on an 8-byte file offset — the mmap view requirement.
    AlignTo8();
    U64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
      Put(v.data(), v.size() * sizeof(T));
    } else {
      for (const T& e : v) {
        if constexpr (sizeof(T) == 4) {
          U32(std::bit_cast<uint32_t>(e));
        } else {
          U64(std::bit_cast<uint64_t>(e));
        }
      }
    }
  }

  template <typename T>
  void Vec(const std::vector<T>& v) {
    Vec(std::span<const T>(v.data(), v.size()));
  }

  template <typename T>
  void Vec(const ArrayStore<T>& v) {
    Vec(v.span());
  }

  void StrVec(std::span<const std::string> v) {
    U64(v.size());
    for (const std::string& s : v) Str(s);
  }

  void StrVec(const StringArray& v) {
    U64(v.size());
    for (size_t i = 0; i < v.size(); ++i) Str(v[i]);
  }

  /// Bytes written (or counted) so far.
  uint64_t size() const { return size_; }

  /// Streaming mode: drains the buffer and hands back the payload
  /// checksum. False when the file refused bytes.
  bool Finish(uint64_t* checksum) {
    Flush();
    *checksum = hash_.Finish();
    return ok_;
  }

 private:
  static constexpr size_t kBufferSize = 16 << 10;

  void Put(const void* data, size_t n) {
    size_ += n;
    if (file_ == nullptr || n == 0) return;
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    if (used_ + n > kBufferSize) {
      Flush();
      if (n >= kBufferSize) {
        Emit(bytes, n);
        return;
      }
    }
    std::memcpy(buffer_ + used_, bytes, n);
    used_ += n;
  }

  void Flush() {
    Emit(buffer_, used_);
    used_ = 0;
  }

  void Emit(const uint8_t* data, size_t n) {
    if (n == 0) return;
    hash_.Update(data, n);
    if (std::fwrite(data, 1, n, file_) != n) ok_ = false;
  }

  std::FILE* file_ = nullptr;  ///< null: measuring only
  snapshot_internal::Hasher64 hash_;
  uint64_t size_ = 0;
  bool ok_ = true;
  size_t used_ = 0;
  uint8_t buffer_[kBufferSize];
};

/// Bounds-checked reader over one section payload (or the header).
/// Every accessor reports failure through ok(); the caller turns the
/// sticky error into one descriptive Status per section.
class Reader {
 public:
  /// `aligned` selects the version-2 decode: Vec/VecView skip the
  /// writer's padding to the next 8-byte boundary before the count.
  /// Version-1 payloads pass false and decode the packed layout.
  Reader(const uint8_t* data, size_t size, bool aligned = false)
      : data_(data), size_(size), aligned_(aligned) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double F64() { return std::bit_cast<double>(U64()); }

  std::string Str() {
    uint64_t n = U64();
    if (!ok_ || !Need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }

  template <typename T>
  std::vector<T> Vec() {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    AlignTo8();
    uint64_t n = U64();
    // Guard the multiply and the allocation against a hostile count:
    // each element needs sizeof(T) payload bytes, so a count beyond
    // remaining()/sizeof(T) cannot be satisfied.
    if (!ok_ || n > remaining() / sizeof(T)) {
      ok_ = false;
      return {};
    }
    std::vector<T> v(static_cast<size_t>(n));
    if (v.empty()) return v;  // data() may be null on an empty vector
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(v.data(), data_ + pos_, v.size() * sizeof(T));
      pos_ += v.size() * sizeof(T);
    } else {
      for (T& e : v) {
        if constexpr (sizeof(T) == 4) {
          e = std::bit_cast<T>(U32());
        } else {
          e = std::bit_cast<T>(U64());
        }
      }
    }
    return v;
  }

  std::vector<std::string> StrVec() {
    uint64_t n = U64();
    // Each string needs at least its 8-byte length prefix.
    if (!ok_ || n > remaining() / 8) {
      ok_ = false;
      return {};
    }
    std::vector<std::string> v;
    v.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && ok_; ++i) v.push_back(Str());
    return v;
  }

  /// Zero-copy Vec: a span aliasing the payload bytes instead of a
  /// decoded vector. Only valid for aligned (version-2) payloads on a
  /// little-endian host — the mapped path checks both before calling.
  /// Fails (sticky) if the element bytes land misaligned for T, which
  /// a forged table can arrange even in an "aligned" file.
  template <typename T>
  std::span<const T> VecView() {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    if constexpr (std::endian::native != std::endian::little) {
      // Mapped decode never runs on big-endian hosts (ReadMapped falls
      // back to the owned path first); refuse rather than alias.
      ok_ = false;
      return {};
    }
    AlignTo8();
    uint64_t n = U64();
    if (!ok_ || n > remaining() / sizeof(T)) {
      ok_ = false;
      return {};
    }
    const uint8_t* p = data_ + pos_;
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) {
      ok_ = false;
      return {};
    }
    pos_ += static_cast<size_t>(n) * sizeof(T);
    if (n == 0) return {};
    return std::span<const T>(reinterpret_cast<const T*>(p),
                              static_cast<size_t>(n));
  }

  /// Zero-copy StrVec: string_views aliasing the payload bytes.
  /// Strings are byte-aligned, so this needs no alignment rules.
  std::vector<std::string_view> StrVecView() {
    uint64_t n = U64();
    if (!ok_ || n > remaining() / 8) {
      ok_ = false;
      return {};
    }
    std::vector<std::string_view> v;
    v.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && ok_; ++i) {
      uint64_t len = U64();
      if (!Need(len)) break;
      v.emplace_back(reinterpret_cast<const char*>(data_ + pos_),
                     static_cast<size_t>(len));
      pos_ += static_cast<size_t>(len);
    }
    if (!ok_) return {};
    return v;
  }

 private:
  bool Need(uint64_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  /// Skips the writer's padding to the next 8-byte boundary (aligned
  /// payloads only; version-1 payloads have none).
  void AlignTo8() {
    if (!aligned_) return;
    const size_t rem = pos_ % 8;
    if (rem != 0 && Need(8 - rem)) pos_ += 8 - rem;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool aligned_ = false;
  bool ok_ = true;
};

// ---------------------------------------------------------------------
// Section payloads.

void WriteOptions(std::span<const OptionField> options, Writer* w) {
  w->U64(options.size());
  for (const OptionField& f : options) {
    w->Str(f.name);
    w->U8(static_cast<uint8_t>(f.type));
    switch (f.type) {
      case OptionField::Type::kBool:
      case OptionField::Type::kUint:
        w->U64(f.uint_value);
        break;
      case OptionField::Type::kReal:
        w->F64(f.real_value);
        break;
      case OptionField::Type::kText:
        w->Str(f.text_value);
        break;
    }
  }
}

Status ReadOptions(Reader* r, std::vector<OptionField>* out) {
  uint64_t n = r->U64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    OptionField f;
    f.name = r->Str();
    uint8_t type = r->U8();
    if (type > static_cast<uint8_t>(OptionField::Type::kText)) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: option '%s' has unknown type tag %u",
          f.name.c_str(), type));
    }
    f.type = static_cast<OptionField::Type>(type);
    switch (f.type) {
      case OptionField::Type::kBool:
      case OptionField::Type::kUint:
        f.uint_value = r->U64();
        break;
      case OptionField::Type::kReal:
        f.real_value = r->F64();
        break;
      case OptionField::Type::kText:
        f.text_value = r->Str();
        break;
    }
    out->push_back(std::move(f));
  }
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: OPTIONS section truncated");
  }
  return Status::OK();
}

void WriteDataset(const Dataset& data, Writer* w) {
  w->U64(DatasetSerde::source_names(data).size());
  w->U64(DatasetSerde::item_names(data).size());
  w->U64(DatasetSerde::slot_value(data).size());
  w->U64(DatasetSerde::obs_item(data).size());
  w->StrVec(DatasetSerde::source_names(data));
  w->StrVec(DatasetSerde::item_names(data));
  w->StrVec(DatasetSerde::slot_value(data));
  w->Vec(DatasetSerde::slot_item(data));
  w->Vec(DatasetSerde::item_slot_begin(data));
  w->Vec(DatasetSerde::provider_begin(data));
  w->Vec(DatasetSerde::providers(data));
  w->Vec(DatasetSerde::src_begin(data));
  w->Vec(DatasetSerde::obs_item(data));
  w->Vec(DatasetSerde::obs_slot(data));
}

/// One CSR boundary array: starts at 0, non-decreasing, `rows + 1`
/// entries, ends exactly at `total`.
bool ValidCsr(std::span<const uint32_t> begin, size_t rows,
              size_t total) {
  if (begin.size() != rows + 1) return false;
  if (begin.front() != 0 || begin.back() != total) return false;
  for (size_t i = 1; i < begin.size(); ++i) {
    if (begin[i] < begin[i - 1]) return false;
  }
  return true;
}

bool AllBelow(std::span<const uint32_t> ids, size_t bound) {
  for (uint32_t id : ids) {
    if (id >= bound) return false;
  }
  return true;
}

/// Structural validation of a decoded DATASET section, shared by the
/// owned and mapped decode paths (the spans alias vectors in the
/// former, the mapped file in the latter): everything the detection
/// algorithms index with must be in range, every CSR monotone — a
/// Dataset accepted here cannot take the engine out of bounds.
Status ValidateDatasetShape(uint64_t num_sources, uint64_t num_items,
                            uint64_t num_slots, uint64_t num_obs,
                            size_t source_names, size_t item_names,
                            size_t slot_values,
                            const DatasetSerde::ViewArrays& a) {
  auto corrupt = [](const char* what) {
    return Status::InvalidArgument(
        std::string("snapshot: DATASET section inconsistent: ") + what);
  };
  if (source_names != num_sources || item_names != num_items ||
      slot_values != num_slots || a.obs_item.size() != num_obs) {
    return corrupt("array sizes disagree with the declared counts");
  }
  if (a.slot_item.size() != num_slots ||
      !AllBelow(a.slot_item, num_items)) {
    return corrupt("slot->item mapping out of range");
  }
  if (!ValidCsr(a.item_slot_begin, num_items, num_slots)) {
    return corrupt("item->slot boundaries not a valid CSR");
  }
  for (uint64_t d = 0; d < num_items; ++d) {
    for (uint32_t v = a.item_slot_begin[d]; v < a.item_slot_begin[d + 1];
         ++v) {
      if (a.slot_item[v] != d) {
        return corrupt("slot->item mapping disagrees with the "
                       "item->slot boundaries");
      }
    }
  }
  if (!ValidCsr(a.provider_begin, num_slots, a.providers.size()) ||
      !AllBelow(a.providers, num_sources)) {
    return corrupt("provider lists not a valid CSR over sources");
  }
  if (!ValidCsr(a.src_begin, num_sources, num_obs) ||
      a.obs_slot.size() != num_obs ||
      !AllBelow(a.obs_item, num_items) ||
      !AllBelow(a.obs_slot, num_slots)) {
    return corrupt("per-source observation arrays out of range");
  }
  return Status::OK();
}

Status ReadDataset(Reader* r, Dataset* out) {
  const uint64_t num_sources = r->U64();
  const uint64_t num_items = r->U64();
  const uint64_t num_slots = r->U64();
  const uint64_t num_obs = r->U64();
  DatasetSerde::Arrays a;
  a.source_names = r->StrVec();
  a.item_names = r->StrVec();
  a.slot_value = r->StrVec();
  a.slot_item = r->Vec<ItemId>();
  a.item_slot_begin = r->Vec<SlotId>();
  a.provider_begin = r->Vec<uint32_t>();
  a.providers = r->Vec<SourceId>();
  a.src_begin = r->Vec<uint32_t>();
  a.obs_item = r->Vec<ItemId>();
  a.obs_slot = r->Vec<SlotId>();
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: DATASET section truncated");
  }
  DatasetSerde::ViewArrays shape;
  shape.slot_item = a.slot_item;
  shape.item_slot_begin = a.item_slot_begin;
  shape.provider_begin = a.provider_begin;
  shape.providers = a.providers;
  shape.src_begin = a.src_begin;
  shape.obs_item = a.obs_item;
  shape.obs_slot = a.obs_slot;
  CD_RETURN_IF_ERROR(ValidateDatasetShape(
      num_sources, num_items, num_slots, num_obs, a.source_names.size(),
      a.item_names.size(), a.slot_value.size(), shape));
  DatasetSerde::Install(std::move(a), out);
  return Status::OK();
}

/// Mapped twin of ReadDataset: the POD arrays and string tables become
/// views into the mapped payload instead of heap copies. Validation is
/// identical (ValidateDatasetShape walks the mapped bytes directly).
Status ReadDatasetMapped(Reader* r,
                         const std::shared_ptr<const void>& keepalive,
                         Dataset* out) {
  const uint64_t num_sources = r->U64();
  const uint64_t num_items = r->U64();
  const uint64_t num_slots = r->U64();
  const uint64_t num_obs = r->U64();
  DatasetSerde::ViewArrays a;
  a.source_names = r->StrVecView();
  a.item_names = r->StrVecView();
  a.slot_value = r->StrVecView();
  a.slot_item = r->VecView<ItemId>();
  a.item_slot_begin = r->VecView<SlotId>();
  a.provider_begin = r->VecView<uint32_t>();
  a.providers = r->VecView<SourceId>();
  a.src_begin = r->VecView<uint32_t>();
  a.obs_item = r->VecView<ItemId>();
  a.obs_slot = r->VecView<SlotId>();
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: DATASET section truncated");
  }
  CD_RETURN_IF_ERROR(ValidateDatasetShape(
      num_sources, num_items, num_slots, num_obs, a.source_names.size(),
      a.item_names.size(), a.slot_value.size(), a));
  DatasetSerde::InstallView(std::move(a), keepalive, out);
  return Status::OK();
}

void WriteRawMapU32(const FlatHashMap<uint32_t>& map, Writer* w) {
  w->Vec(map.raw_keys());
  w->Vec(map.raw_values());
}

void WriteOverlaps(uint64_t generation, const OverlapCounts& c,
                   Writer* w) {
  w->U64(generation);
  w->U8(OverlapSerde::dense_mode(c) ? 1 : 0);
  w->U32(OverlapSerde::num_sources(c));
  w->Vec(OverlapSerde::dense(c));
  WriteRawMapU32(OverlapSerde::sparse(c), w);
}

/// Shared tail of the two OVERLAPS decode paths: validates the decoded
/// pieces against the data set and installs them. `dense` is an owned
/// vector (streaming path) or a view into the mapped file.
Status InstallOverlaps(bool dense_mode, uint32_t n,
                       ArrayStore<uint32_t> dense,
                       std::vector<uint64_t> keys,
                       std::vector<uint32_t> values, size_t num_sources,
                       SessionState* out) {
  if (n != num_sources) {
    return Status::InvalidArgument(
        StrFormat("snapshot: OVERLAPS counts cover %u sources but the "
                  "data set has %zu",
                  n, num_sources));
  }
  const size_t expected_dense =
      dense_mode ? static_cast<size_t>(n) * (n - 1) / 2 : 0;
  if (dense.size() != expected_dense) {
    return Status::InvalidArgument(
        "snapshot: OVERLAPS dense triangle has the wrong size");
  }
  FlatHashMap<uint32_t> sparse;
  if (!sparse.AssignRaw(std::move(keys), std::move(values))) {
    return Status::InvalidArgument(
        "snapshot: OVERLAPS sparse table is not a valid hash table");
  }
  bool pairs_ok = true;
  sparse.ForEach([&pairs_ok, num_sources](uint64_t key, uint32_t&) {
    if (PairFirst(key) >= num_sources || PairSecond(key) >= num_sources) {
      pairs_ok = false;
    }
  });
  if (!pairs_ok) {
    return Status::InvalidArgument(
        "snapshot: OVERLAPS pair key out of source range");
  }
  OverlapSerde::Install(dense_mode, n, std::move(dense),
                        std::move(sparse), &out->overlaps);
  out->has_overlaps = true;
  return Status::OK();
}

Status ReadOverlaps(Reader* r, size_t num_sources, SessionState* out) {
  out->overlaps_generation = r->U64();
  const bool dense_mode = r->U8() != 0;
  const uint32_t n = r->U32();
  std::vector<uint32_t> dense = r->Vec<uint32_t>();
  std::vector<uint64_t> keys = r->Vec<uint64_t>();
  std::vector<uint32_t> values = r->Vec<uint32_t>();
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: OVERLAPS section truncated");
  }
  return InstallOverlaps(dense_mode, n, std::move(dense),
                         std::move(keys), std::move(values), num_sources,
                         out);
}

/// Mapped twin of ReadOverlaps: the dense triangle (the O(n^2) part)
/// becomes a view into the mapped payload; the sparse table must stay
/// owned (FlatHashMap owns its storage), which is fine — it is sized
/// to the surviving pairs, not the pair space.
Status ReadOverlapsMapped(Reader* r,
                          const std::shared_ptr<const void>& keepalive,
                          size_t num_sources, SessionState* out) {
  out->overlaps_generation = r->U64();
  const bool dense_mode = r->U8() != 0;
  const uint32_t n = r->U32();
  std::span<const uint32_t> dense = r->VecView<uint32_t>();
  std::vector<uint64_t> keys = r->Vec<uint64_t>();
  std::vector<uint32_t> values = r->Vec<uint32_t>();
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: OVERLAPS section truncated");
  }
  return InstallOverlaps(dense_mode, n,
                         ArrayStore<uint32_t>::View(dense, keepalive),
                         std::move(keys), std::move(values), num_sources,
                         out);
}

void WriteCopies(const CopyResult& copies, Writer* w) {
  const FlatHashMap<PairPosterior>& map = copies.raw_map();
  w->Vec(map.raw_keys());
  w->U64(map.raw_values().size());
  for (const PairPosterior& p : map.raw_values()) {
    w->F64(p.p_indep);
    w->F64(p.p_first_copies);
    w->F64(p.p_second_copies);
  }
}

Status ReadCopies(Reader* r, size_t num_sources, const char* section,
                  CopyResult* out) {
  std::vector<uint64_t> keys = r->Vec<uint64_t>();
  const uint64_t n = r->U64();
  if (!r->ok() || n > r->remaining() / 24) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %s section truncated", section));
  }
  std::vector<PairPosterior> values(static_cast<size_t>(n));
  for (PairPosterior& p : values) {
    p.p_indep = r->F64();
    p.p_first_copies = r->F64();
    p.p_second_copies = r->F64();
  }
  if (!r->ok()) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %s section truncated", section));
  }
  for (uint64_t key : keys) {
    if (key == FlatHashMap<PairPosterior>::kEmptyKey) continue;
    if (PairFirst(key) >= num_sources ||
        PairSecond(key) >= num_sources) {
      return Status::InvalidArgument(
          StrFormat("snapshot: %s pair key out of source range",
                    section));
    }
  }
  FlatHashMap<PairPosterior> map;
  if (!map.AssignRaw(std::move(keys), std::move(values))) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s pair map is not a valid hash table", section));
  }
  *out = CopyResult::FromRawMap(std::move(map));
  return Status::OK();
}

void WriteFusion(const FusionResult& f, Writer* w) {
  w->Vec(f.value_probs);
  w->Vec(f.accuracies);
  w->Vec(f.truth);
  WriteCopies(f.copies, w);
  w->U32(static_cast<uint32_t>(f.rounds));
  w->U8(f.converged ? 1 : 0);
  w->U64(f.trace.size());
  for (const RoundTrace& t : f.trace) {
    w->U32(static_cast<uint32_t>(t.round));
    w->F64(t.detect_seconds);
    w->F64(t.detect_cpu_seconds);
    w->F64(t.fusion_seconds);
    w->U64(t.computations);
    w->U64(t.copying_pairs);
    w->F64(t.max_accuracy_change);
  }
  w->F64(f.total_seconds);
  w->F64(f.detect_seconds);
  w->F64(f.detect_cpu_seconds);
}

Status ReadFusion(Reader* r, const Dataset& data, FusionResult* out,
                  bool allow_empty_truth = false) {
  out->value_probs = r->Vec<double>();
  out->accuracies = r->Vec<double>();
  out->truth = r->Vec<SlotId>();
  CD_RETURN_IF_ERROR(
      ReadCopies(r, data.num_sources(), "FUSION", &out->copies));
  out->rounds = static_cast<int>(r->U32());
  out->converged = r->U8() != 0;
  const uint64_t traces = r->U64();
  if (!r->ok() || traces > r->remaining() / 52) {
    return Status::InvalidArgument(
        "snapshot: FUSION section truncated");
  }
  out->trace.resize(static_cast<size_t>(traces));
  for (RoundTrace& t : out->trace) {
    t.round = static_cast<int>(r->U32());
    t.detect_seconds = r->F64();
    t.detect_cpu_seconds = r->F64();
    t.fusion_seconds = r->F64();
    t.computations = r->U64();
    t.copying_pairs = static_cast<size_t>(r->U64());
    t.max_accuracy_change = r->F64();
  }
  out->total_seconds = r->F64();
  out->detect_seconds = r->F64();
  out->detect_cpu_seconds = r->F64();
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: FUSION section truncated");
  }
  // A mid-run BSP state carries no truth yet — the fusion loop only
  // chooses truth once the run finishes.
  const bool truth_ok =
      out->truth.size() == data.num_items() ||
      (allow_empty_truth && out->truth.empty());
  if (out->value_probs.size() != data.num_slots() ||
      out->accuracies.size() != data.num_sources() || !truth_ok) {
    return Status::InvalidArgument(
        "snapshot: FUSION arrays disagree with the data set's "
        "dimensions");
  }
  for (SlotId v : out->truth) {
    if (v != kInvalidSlot && v >= data.num_slots()) {
      return Status::InvalidArgument(
          "snapshot: FUSION truth slot out of range");
    }
  }
  return Status::OK();
}

}  // namespace

OptionField OptionField::Bool(std::string name, bool v) {
  OptionField f;
  f.name = std::move(name);
  f.type = Type::kBool;
  f.uint_value = v ? 1 : 0;
  return f;
}

OptionField OptionField::Uint(std::string name, uint64_t v) {
  OptionField f;
  f.name = std::move(name);
  f.type = Type::kUint;
  f.uint_value = v;
  return f;
}

OptionField OptionField::Real(std::string name, double v) {
  OptionField f;
  f.name = std::move(name);
  f.type = Type::kReal;
  f.real_value = v;
  return f;
}

OptionField OptionField::Text(std::string name, std::string v) {
  OptionField f;
  f.name = std::move(name);
  f.type = Type::kText;
  f.text_value = std::move(v);
  return f;
}

namespace {

/// One section of a framed file: its id and the serializer that emits
/// its payload. The serializer runs twice — once measuring, once
/// streaming — and must emit the same bytes both times.
struct SectionSource {
  SectionId id;
  std::function<void(Writer*)> write;
};

/// The framing routine behind every file this library writes (session
/// snapshots, shard results, BSP state): header, table, meta checksum,
/// then the payloads with each start offset padded to 8 bytes (the
/// version-2 alignment invariant; the zero gap bytes are excluded from
/// the recorded sizes). The payload area itself starts 8-aligned by
/// construction: 32-byte header + 32-byte entries + 8-byte meta
/// checksum.
///
/// The payloads are measured first, then streamed to their final
/// offsets and checksummed on the way; the header and table, which
/// carry those checksums, go into the gap left at the start of the
/// file last. Memory stays at one small buffer whatever the file size.
///
/// Temp-and-rename in the target directory so a crash mid-write
/// cannot leave a torn file under the final name (rename within one
/// directory is atomic on POSIX). fflush moves the bytes to the
/// kernel; fsync moves them to the device — without the latter, the
/// rename can commit the new name while the data is still only in the
/// page cache, and a power loss would replace a good file with a torn
/// one.
Status WriteFramed(const std::string& path, uint64_t generation,
                   std::span<const SectionSource> sections) {
  std::vector<TableEntry> table(sections.size());
  const uint64_t payload_begin =
      kHeaderSize + sections.size() * kTableEntrySize + 8;
  uint64_t offset = payload_begin;
  for (size_t i = 0; i < sections.size(); ++i) {
    Writer measure;
    sections[i].write(&measure);
    offset = (offset + 7) & ~uint64_t{7};
    table[i].id = static_cast<uint32_t>(sections[i].id);
    table[i].offset = offset;
    table[i].size = measure.size();
    offset += measure.size();
  }

  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + tmp_path + " for writing");
  }
  bool ok = std::fseek(f, static_cast<long>(payload_begin), SEEK_SET) == 0;
  uint64_t pos = payload_begin;
  for (size_t i = 0; ok && i < sections.size(); ++i) {
    static constexpr uint8_t kZeros[8] = {};
    const size_t gap = static_cast<size_t>(table[i].offset - pos);
    ok = std::fwrite(kZeros, 1, gap, f) == gap;
    Writer w(f, table[i].size);
    sections[i].write(&w);
    ok = w.Finish(&table[i].checksum) && ok;
    if (w.size() != table[i].size) {
      std::fclose(f);
      std::remove(tmp_path.c_str());
      return Status::Internal(StrFormat(
          "snapshot: section %u serialized to %llu bytes after "
          "measuring %llu",
          table[i].id, static_cast<unsigned long long>(w.size()),
          static_cast<unsigned long long>(table[i].size)));
    }
    pos = table[i].offset + table[i].size;
  }

  std::vector<uint8_t> head;
  head.reserve(payload_begin);
  auto le = [&head](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      head.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  head.insert(head.end(), std::begin(kMagic), std::end(kMagic));
  le(kFormatVersion, 4);
  le(0, 4);  // flags
  le(generation, 8);
  le(sections.size(), 4);
  le(0, 4);  // reserved
  for (const TableEntry& e : table) {
    le(e.id, 4);
    le(0, 4);  // per-section reserved/version
    le(e.offset, 8);
    le(e.size, 8);
    le(e.checksum, 8);
  }
  le(Hash64(head.data(), head.size()), 8);
  ok = ok && std::fseek(f, 0, SEEK_SET) == 0 &&
       std::fwrite(head.data(), 1, head.size(), f) == head.size();

  const bool flushed = ok && std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!flushed || !closed) {
    std::remove(tmp_path.c_str());
    return Status::IOError("short write to " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

Status ReadFileBytes(const std::string& path,
                     std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("snapshot file not found: " + path);
  }
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("cannot read snapshot file: " + path);
  }
  return Status::OK();
}

struct Framing {
  uint32_t version = 0;
  uint64_t generation = 0;
  std::vector<TableEntry> entries;
};

/// Validates everything up to (and including) the per-section
/// checksums: magic, version range, section count, table bounds, meta
/// checksum, payload checksums. Shared by Read() and the shard/state
/// file readers; MmapReader::Open mirrors it minus the eager payload
/// checksums (those it defers to first access).
Status ParseFraming(const std::vector<uint8_t>& bytes,
                    const std::string& path, Framing* out) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: file truncated (%zu bytes, header needs %zu)",
        path.c_str(), bytes.size(), kHeaderSize));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": bad magic — not a copydetect snapshot "
        "file (or mangled in transit)");
  }
  Reader header(bytes.data() + sizeof(kMagic),
                kHeaderSize - sizeof(kMagic));
  out->version = header.U32();
  header.U32();  // flags, ignored in versions 1 and 2
  out->generation = header.U64();
  const uint32_t section_count = header.U32();
  if (out->version < kMinReadVersion || out->version > kFormatVersion) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: format version %u not supported (this build "
        "reads versions %u through %u) — refusing rather than guessing "
        "at the layout",
        path.c_str(), out->version, kMinReadVersion, kFormatVersion));
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: implausible section count %u", path.c_str(),
        section_count));
  }
  const size_t table_end =
      kHeaderSize + static_cast<size_t>(section_count) * kTableEntrySize;
  if (bytes.size() < table_end + 8) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": file truncated inside the section "
        "table");
  }
  Reader meta(bytes.data() + table_end, 8);
  if (meta.U64() != Hash64(bytes.data(), table_end)) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": header/section-table checksum "
        "mismatch — file corrupt");
  }

  Reader table(bytes.data() + kHeaderSize, table_end - kHeaderSize);
  out->entries.resize(section_count);
  for (TableEntry& e : out->entries) {
    e.id = table.U32();
    table.U32();  // reserved
    e.offset = table.U64();
    e.size = table.U64();
    e.checksum = table.U64();
    if (e.offset > bytes.size() || e.size > bytes.size() - e.offset) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s: section %u extends past the end of the file "
          "(offset %llu, size %llu, file %zu bytes) — file truncated "
          "or table corrupt",
          path.c_str(), e.id,
          static_cast<unsigned long long>(e.offset),
          static_cast<unsigned long long>(e.size), bytes.size()));
    }
    if (Hash64(bytes.data() + e.offset, static_cast<size_t>(e.size)) !=
        e.checksum) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s: section %u checksum mismatch — file corrupt",
          path.c_str(), e.id));
    }
  }
  return Status::OK();
}

}  // namespace

Status Write(const std::string& path, const SessionStateView& state) {
  std::vector<SectionSource> sections;
  sections.push_back({SectionId::kOptions, [&state](Writer* w) {
                        WriteOptions(state.options, w);
                      }});
  sections.push_back({SectionId::kDataset, [&state](Writer* w) {
                        WriteDataset(*state.data, w);
                      }});
  if (state.overlaps != nullptr) {
    sections.push_back({SectionId::kOverlaps, [&state](Writer* w) {
                          WriteOverlaps(state.overlaps_generation,
                                        *state.overlaps, w);
                        }});
  }
  sections.push_back({SectionId::kFusion, [&state](Writer* w) {
                        WriteFusion(*state.fusion, w);
                      }});
  return WriteFramed(path, state.generation, sections);
}

Status Write(const std::string& path, const SessionState& state) {
  SessionStateView view;
  view.generation = state.generation;
  view.options = state.options;
  view.data = &state.data;
  if (state.has_overlaps) {
    view.overlaps = &state.overlaps;
    view.overlaps_generation = state.overlaps_generation;
  }
  view.fusion = &state.fusion;
  return Write(path, view);
}

StatusOr<std::vector<std::string>> ListSnapshotFiles(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT || errno == ENOTDIR) {
      return Status::NotFound("snapshot scan: no directory at '" + dir +
                              "'");
    }
    return Status::IOError("snapshot scan: opendir('" + dir +
                           "') failed: " + std::strerror(errno));
  }
  constexpr std::string_view kExt = ".cdsnap";
  std::vector<std::string> out;
  for (struct dirent* entry = ::readdir(d); entry != nullptr;
       entry = ::readdir(d)) {
    std::string_view name(entry->d_name);
    if (name.size() <= kExt.size() ||
        name.substr(name.size() - kExt.size()) != kExt) {
      continue;
    }
    out.push_back(dir + "/" + std::string(name));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<SessionState> Read(const std::string& path) {
  std::vector<uint8_t> bytes;
  CD_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  Framing framing;
  CD_RETURN_IF_ERROR(ParseFraming(bytes, path, &framing));
  // Version-2 payloads pad POD arrays to 8-byte offsets; version-1
  // payloads are packed. Same sections, same order, either way.
  const bool aligned = framing.version >= 2;

  // --- Payloads, in table order. The DATASET section must precede
  // the sections validated against it; Write emits them in id order,
  // which satisfies this. ---
  SessionState state;
  state.generation = framing.generation;
  bool saw_options = false;
  bool saw_dataset = false;
  bool saw_fusion = false;
  bool saw_tape = false;
  for (const TableEntry& e : framing.entries) {
    // A repeated id is never legitimate: a second DATASET would
    // replace the data set earlier sections were validated against —
    // fail closed instead.
    const bool duplicate =
        (e.id == static_cast<uint32_t>(SectionId::kOptions) &&
         saw_options) ||
        (e.id == static_cast<uint32_t>(SectionId::kDataset) &&
         saw_dataset) ||
        (e.id == static_cast<uint32_t>(SectionId::kOverlaps) &&
         state.has_overlaps) ||
        (e.id == static_cast<uint32_t>(SectionId::kFusion) &&
         saw_fusion) ||
        (e.id == static_cast<uint32_t>(SectionId::kTape) && saw_tape);
    if (duplicate) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s: duplicate section id %u", path.c_str(),
          e.id));
    }
    Reader r(bytes.data() + e.offset, static_cast<size_t>(e.size),
             aligned);
    switch (static_cast<SectionId>(e.id)) {
      case SectionId::kOptions:
        CD_RETURN_IF_ERROR(ReadOptions(&r, &state.options));
        saw_options = true;
        break;
      case SectionId::kDataset:
        CD_RETURN_IF_ERROR(ReadDataset(&r, &state.data));
        saw_dataset = true;
        break;
      case SectionId::kOverlaps:
        if (!saw_dataset) {
          return Status::InvalidArgument(
              "snapshot: " + path + ": OVERLAPS section before "
              "DATASET");
        }
        CD_RETURN_IF_ERROR(
            ReadOverlaps(&r, state.data.num_sources(), &state));
        break;
      case SectionId::kFusion:
        if (!saw_dataset) {
          return Status::InvalidArgument(
              "snapshot: " + path + ": FUSION section before DATASET");
        }
        CD_RETURN_IF_ERROR(ReadFusion(&r, state.data, &state.fusion));
        saw_fusion = true;
        break;
      case SectionId::kTape:
        // Legacy update tape (older libraries wrote one; nothing reads
        // it any more). Its checksum was verified above; skip it.
        saw_tape = true;
        break;
      default:
        // Session snapshots define exactly the sections above (SHARD
        // and STATE frame the separate shard-protocol files); an
        // unknown id within a known version means the file does not
        // match its declared version (new state ships with a version
        // bump).
        return Status::InvalidArgument(StrFormat(
            "snapshot: %s: unknown section id %u in a version-%u file",
            path.c_str(), e.id, framing.version));
    }
  }
  if (!saw_options || !saw_dataset || !saw_fusion) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": missing a required section (OPTIONS, "
        "DATASET and FUSION are mandatory)");
  }

  // --- Cross-section generation consistency: derived state must have
  // been computed for the very snapshot in this file. ---
  if (state.has_overlaps &&
      state.overlaps_generation != framing.generation) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: generation mismatch — OVERLAPS were computed "
        "for generation %llu but the file's snapshot is generation "
        "%llu; refusing to warm-start derived state against a "
        "different data set",
        path.c_str(),
        static_cast<unsigned long long>(state.overlaps_generation),
        static_cast<unsigned long long>(framing.generation)));
  }
  return state;
}

StatusOr<SessionState> ReadMapped(const std::string& path) {
  // Zero-copy decode aliases little-endian on-disk words; on a
  // big-endian host every array would need byte-swapping anyway, so
  // serve the owned decode instead (same result, just not zero-copy).
  if constexpr (std::endian::native != std::endian::little) {
    return Read(path);
  }

  auto opened = MmapReader::Open(path);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<MmapReader> map = std::move(opened).value();

  // Version-1 files pack their arrays with no alignment guarantee —
  // only the owned decode can serve them.
  if (map->version() < 2) return Read(path);

  // Mirror Read()'s orchestration exactly: same section-order rules,
  // same refusals, same validation — only the DATASET arrays and the
  // dense OVERLAPS triangle install as views into the mapping.
  SessionState state;
  state.generation = map->generation();
  bool saw_options = false;
  bool saw_dataset = false;
  bool saw_fusion = false;
  bool saw_tape = false;
  for (uint32_t id : map->SectionIds()) {
    const bool duplicate =
        (id == static_cast<uint32_t>(SectionId::kOptions) &&
         saw_options) ||
        (id == static_cast<uint32_t>(SectionId::kDataset) &&
         saw_dataset) ||
        (id == static_cast<uint32_t>(SectionId::kOverlaps) &&
         state.has_overlaps) ||
        (id == static_cast<uint32_t>(SectionId::kFusion) &&
         saw_fusion) ||
        (id == static_cast<uint32_t>(SectionId::kTape) && saw_tape);
    if (duplicate) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s: duplicate section id %u", path.c_str(), id));
    }
    auto payload = map->Section(id);
    if (!payload.ok()) return payload.status();
    Reader r(payload.value().data(), payload.value().size(),
             /*aligned=*/true);
    switch (static_cast<SectionId>(id)) {
      case SectionId::kOptions:
        CD_RETURN_IF_ERROR(ReadOptions(&r, &state.options));
        saw_options = true;
        break;
      case SectionId::kDataset:
        CD_RETURN_IF_ERROR(ReadDatasetMapped(&r, map, &state.data));
        saw_dataset = true;
        break;
      case SectionId::kOverlaps:
        if (!saw_dataset) {
          return Status::InvalidArgument(
              "snapshot: " + path + ": OVERLAPS section before "
              "DATASET");
        }
        CD_RETURN_IF_ERROR(ReadOverlapsMapped(
            &r, map, state.data.num_sources(), &state));
        break;
      case SectionId::kFusion:
        if (!saw_dataset) {
          return Status::InvalidArgument(
              "snapshot: " + path + ": FUSION section before DATASET");
        }
        CD_RETURN_IF_ERROR(ReadFusion(&r, state.data, &state.fusion));
        saw_fusion = true;
        break;
      case SectionId::kTape:
        // Legacy update tape (older libraries wrote one; nothing reads
        // it any more). Its checksum was verified above; skip it.
        saw_tape = true;
        break;
      default:
        return Status::InvalidArgument(StrFormat(
            "snapshot: %s: unknown section id %u in a version-%u file",
            path.c_str(), id, map->version()));
    }
  }
  if (!saw_options || !saw_dataset || !saw_fusion) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": missing a required section (OPTIONS, "
        "DATASET and FUSION are mandatory)");
  }
  if (state.has_overlaps &&
      state.overlaps_generation != map->generation()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: generation mismatch — OVERLAPS were computed "
        "for generation %llu but the file's snapshot is generation "
        "%llu; refusing to warm-start derived state against a "
        "different data set",
        path.c_str(),
        static_cast<unsigned long long>(state.overlaps_generation),
        static_cast<unsigned long long>(map->generation())));
  }
  return state;
}

// ---------------------------------------------------------------------
// Shard-protocol files: the same framed container with exactly one
// section (SHARD or STATE), so the corruption story — checksums,
// bounds, atomic replace — is inherited rather than reinvented.

namespace {

Status WriteSingleSection(const std::string& path, SectionId id,
                          std::function<void(Writer*)> write) {
  const SectionSource section{id, std::move(write)};
  // Shard/state files carry no Dataset, so the generation slot is 0;
  // consistency with the coordinator's data set is the caller's
  // contract (the reader validates dimensions instead).
  return WriteFramed(path, /*generation=*/0, {&section, 1});
}

/// Reads a shard-protocol file and hands back its single section's
/// payload bytes (still inside `bytes`).
Status ReadSingleSection(const std::string& path, SectionId id,
                         const char* what, std::vector<uint8_t>* bytes,
                         size_t* payload_offset, size_t* payload_size,
                         bool* aligned) {
  CD_RETURN_IF_ERROR(ReadFileBytes(path, bytes));
  Framing framing;
  CD_RETURN_IF_ERROR(ParseFraming(*bytes, path, &framing));
  if (framing.entries.size() != 1 ||
      framing.entries.front().id != static_cast<uint32_t>(id)) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: not a %s file (expected exactly one section of "
        "id %u)",
        path.c_str(), what, static_cast<uint32_t>(id)));
  }
  *payload_offset = static_cast<size_t>(framing.entries.front().offset);
  *payload_size = static_cast<size_t>(framing.entries.front().size);
  *aligned = framing.version >= 2;
  return Status::OK();
}

void WriteCounters(const Counters& c, Writer* w) {
  w->U64(c.score_evals);
  w->U64(c.bound_evals);
  w->U64(c.finalize_evals);
  w->U64(c.pairs_tracked);
  w->U64(c.entries_scanned);
  w->U64(c.values_examined);
  w->U64(c.early_copy);
  w->U64(c.early_nocopy);
}

void ReadCounters(Reader* r, Counters* c) {
  c->score_evals = r->U64();
  c->bound_evals = r->U64();
  c->finalize_evals = r->U64();
  c->pairs_tracked = r->U64();
  c->entries_scanned = r->U64();
  c->values_examined = r->U64();
  c->early_copy = r->U64();
  c->early_nocopy = r->U64();
}

}  // namespace

Status WriteShardResult(const std::string& path,
                        const ShardResult& shard) {
  if (shard.num_shards == 0 || shard.shard_id >= shard.num_shards) {
    return Status::InvalidArgument(StrFormat(
        "shard file: shard id %u / num_shards %u is not a valid plan "
        "slot",
        shard.shard_id, shard.num_shards));
  }
  return WriteSingleSection(path, SectionId::kShard, [&shard](Writer* w) {
    w->U32(shard.num_shards);
    w->U32(shard.shard_id);
    w->U32(static_cast<uint32_t>(shard.round));
    w->U32(0);  // pad
    WriteCounters(shard.counters, w);
    WriteCopies(shard.copies, w);
  });
}

StatusOr<ShardResult> ReadShardResult(const std::string& path,
                                      const Dataset& data) {
  std::vector<uint8_t> bytes;
  size_t offset = 0;
  size_t size = 0;
  bool aligned = false;
  CD_RETURN_IF_ERROR(ReadSingleSection(path, SectionId::kShard, "shard",
                                       &bytes, &offset, &size,
                                       &aligned));
  Reader r(bytes.data() + offset, size, aligned);
  ShardResult shard;
  shard.num_shards = r.U32();
  shard.shard_id = r.U32();
  shard.round = static_cast<int>(r.U32());
  r.U32();  // pad
  ReadCounters(&r, &shard.counters);
  if (!r.ok()) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": SHARD section truncated");
  }
  if (shard.num_shards == 0 || shard.shard_id >= shard.num_shards) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: shard id %u / num_shards %u is not a valid "
        "plan slot",
        path.c_str(), shard.shard_id, shard.num_shards));
  }
  CD_RETURN_IF_ERROR(
      ReadCopies(&r, data.num_sources(), "SHARD", &shard.copies));
  return shard;
}

Status WriteBspState(const std::string& path, const BspState& state) {
  if (state.num_shards == 0) {
    return Status::InvalidArgument(
        "state file: num_shards must be at least 1");
  }
  return WriteSingleSection(path, SectionId::kState, [&state](Writer* w) {
    w->U32(state.num_shards);
    w->U32(0);  // pad
    WriteCounters(state.counters, w);
    WriteFusion(state.fusion, w);
  });
}

StatusOr<BspState> ReadBspState(const std::string& path,
                                const Dataset& data) {
  std::vector<uint8_t> bytes;
  size_t offset = 0;
  size_t size = 0;
  bool aligned = false;
  CD_RETURN_IF_ERROR(ReadSingleSection(path, SectionId::kState, "state",
                                       &bytes, &offset, &size,
                                       &aligned));
  Reader r(bytes.data() + offset, size, aligned);
  BspState state;
  state.num_shards = r.U32();
  r.U32();  // pad
  ReadCounters(&r, &state.counters);
  if (!r.ok()) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": STATE section truncated");
  }
  if (state.num_shards == 0) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": state file declares zero shards");
  }
  CD_RETURN_IF_ERROR(ReadFusion(&r, data, &state.fusion,
                                /*allow_empty_truth=*/true));
  return state;
}

}  // namespace snapshot
}  // namespace copydetect
