// storage::Backend: the byte-store abstraction under the durable
// storage subsystem. The WAL, snapshot writer, and recovery scanner
// speak only this interface, so the same code runs against
//
//   - FileBackend: real POSIX files (a ClashNode's data directory —
//     O_APPEND segments, fdatasync, atomic tmp+rename snapshots), and
//   - MemBackend: a deterministic in-memory store for the simulator
//     and tests, which models what a crash does to unsynced data
//     (writes past the last sync() can vanish) and injects the classic
//     disk faults: torn tail (a record cut mid-write) and bit flips.
//
// Paths are flat '/'-separated keys relative to the backend root
// ("wal/000001.seg", "snap/6-0x15.snap"); directories materialise on
// demand.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace clash::storage {

/// An open append-only file (one WAL segment).
class AppendFile {
 public:
  virtual ~AppendFile() = default;

  /// Append `data` at the end; false on I/O error.
  virtual bool append(std::span<const std::uint8_t> data) = 0;

  /// Force appended bytes to stable storage (fsync). Until sync()
  /// returns, a crash may lose any suffix of the unsynced bytes.
  virtual bool sync() = 0;

  /// Bytes written so far (synced or not).
  [[nodiscard]] virtual std::uint64_t size() const = 0;
};

/// One file of a write_file_atomic batch.
struct AtomicWrite {
  std::string path;
  std::span<const std::uint8_t> data;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Files under `dir` (non-recursive), lexicographically sorted.
  [[nodiscard]] virtual std::vector<std::string> list(
      const std::string& dir) = 0;

  /// Whole-file read; false when absent or unreadable.
  virtual bool read_file(const std::string& path,
                         std::vector<std::uint8_t>& out) = 0;

  /// Atomic whole-file replace of every file in `batch`: a crash leaves
  /// each file with either its old content or its new, never a mix.
  /// The file backend writes and fdatasyncs every tmp file, then renames
  /// each, then fsyncs the directory once, so a batch costs one
  /// directory sync however many files it holds. False when any file
  /// failed (the others may have landed). The default replaces the
  /// files one at a time through the single-file form.
  virtual bool write_file_atomic(std::span<const AtomicWrite> batch);

  /// A batch of one.
  virtual bool write_file_atomic(const std::string& path,
                                 std::span<const std::uint8_t> data) = 0;

  virtual bool remove_file(const std::string& path) = 0;

  /// Open `path` for appending (created when absent). The handle is
  /// exclusive: one writer per segment.
  [[nodiscard]] virtual std::unique_ptr<AppendFile> open_append(
      const std::string& path) = 0;
};

/// POSIX files rooted at `root` (created on demand).
class FileBackend final : public Backend {
 public:
  explicit FileBackend(std::string root);

  std::vector<std::string> list(const std::string& dir) override;
  bool read_file(const std::string& path,
                 std::vector<std::uint8_t>& out) override;
  bool write_file_atomic(std::span<const AtomicWrite> batch) override;
  bool write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> data) override;
  bool remove_file(const std::string& path) override;
  std::unique_ptr<AppendFile> open_append(const std::string& path) override;

  [[nodiscard]] const std::string& root() const { return root_; }

 private:
  [[nodiscard]] std::string full(const std::string& path) const;
  bool ensure_parent_dir(const std::string& path);

  std::string root_;
};

/// Deterministic in-memory backend for the simulator and tests. The
/// store survives a simulated process restart (SimCluster keeps one
/// per server across ClashServer rebuilds); crash() models what the
/// machine loses.
class MemBackend final : public Backend {
 public:
  /// What a crash does to the store. Defaults model a clean kernel
  /// (everything written survives, synced or not); tests and the
  /// durability ablation dial in the ugly cases.
  struct CrashFault {
    /// Drop every byte appended after the last sync() (the page cache
    /// never reached the platter — what fsync policies trade against).
    bool drop_unsynced = false;
    /// Additionally cut this many bytes off the newest append file —
    /// a record torn mid-write by the power cut.
    std::uint32_t torn_tail_bytes = 0;
  };

  std::vector<std::string> list(const std::string& dir) override;
  bool read_file(const std::string& path,
                 std::vector<std::uint8_t>& out) override;
  using Backend::write_file_atomic;
  bool write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> data) override;
  bool remove_file(const std::string& path) override;
  std::unique_ptr<AppendFile> open_append(const std::string& path) override;

  void set_crash_fault(CrashFault f) { fault_ = f; }

  /// Simulated power cut: apply the configured fault to every open
  /// append stream (drop-unsynced first, then the torn tail on the
  /// most recently appended file).
  void crash();

  /// XOR `mask` into the byte at `offset` of `path` (bit-rot
  /// injection for CRC tests). False when out of range.
  bool corrupt(const std::string& path, std::size_t offset,
               std::uint8_t mask);

  [[nodiscard]] std::uint64_t bytes_stored() const;
  [[nodiscard]] bool exists(const std::string& path) const {
    return files_.count(path) > 0;
  }

 private:
  class MemAppendFile;

  struct File {
    std::vector<std::uint8_t> data;
    /// Prefix guaranteed durable (advanced by sync(); atomic writes
    /// are durable in full).
    std::uint64_t synced = 0;
  };

  std::map<std::string, File> files_;
  CrashFault fault_{};
  std::string last_appended_;  // newest append target (torn-tail victim)
};

}  // namespace clash::storage
