#include "storage/backend.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/logging.hpp"

namespace clash::storage {

bool Backend::write_file_atomic(std::span<const AtomicWrite> batch) {
  bool ok = true;
  for (const AtomicWrite& w : batch) {
    ok = write_file_atomic(w.path, w.data) && ok;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// FileBackend.
// ---------------------------------------------------------------------------

namespace {

/// write() all of `data`, retrying short writes and EINTR.
bool write_all(int fd, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= std::size_t(n);
  }
  return true;
}

class PosixAppendFile final : public AppendFile {
 public:
  PosixAppendFile(int fd, std::uint64_t size) : fd_(fd), size_(size) {}
  ~PosixAppendFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool append(std::span<const std::uint8_t> data) override {
    if (!write_all(fd_, data)) {
      CLASH_ERROR << "wal append failed: " << std::strerror(errno);
      return false;
    }
    size_ += data.size();
    return true;
  }

  bool sync() override { return ::fdatasync(fd_) == 0; }

  [[nodiscard]] std::uint64_t size() const override { return size_; }

 private:
  int fd_;
  std::uint64_t size_;
};

/// fsync a directory so a rename/create/unlink inside it is durable —
/// without this the metadata op can be reordered past a power cut
/// even when the file data itself was synced.
void sync_dir(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

std::string parent_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

bool make_dirs(const std::string& path) {
  // mkdir -p: create each component, tolerating the ones that exist.
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    cur = path.substr(0, i);
    if (cur.empty()) continue;
    if (::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

}  // namespace

FileBackend::FileBackend(std::string root) : root_(std::move(root)) {
  make_dirs(root_);
}

std::string FileBackend::full(const std::string& path) const {
  return root_ + "/" + path;
}

bool FileBackend::ensure_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return true;
  return make_dirs(root_ + "/" + path.substr(0, slash));
}

std::vector<std::string> FileBackend::list(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(full(dir).c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == ".." ) continue;
    out.push_back(dir + "/" + name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

bool FileBackend::read_file(const std::string& path,
                            std::vector<std::uint8_t>& out) {
  const int fd = ::open(full(path).c_str(), O_RDONLY);
  if (fd < 0) return false;
  out.clear();
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return true;
}

bool FileBackend::write_file_atomic(std::span<const AtomicWrite> batch) {
  // Every file's data is on disk before any rename makes one
  // reachable, or a crash could expose a named-but-empty snapshot.
  bool ok = true;
  std::vector<bool> written(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!ensure_parent_dir(batch[i].path)) {
      ok = false;
      continue;
    }
    const std::string tmp = full(batch[i].path) + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      ok = false;
      continue;
    }
    written[i] = write_all(fd, batch[i].data) && ::fdatasync(fd) == 0;
    ::close(fd);
    if (!written[i]) {
      ::unlink(tmp.c_str());
      ok = false;
    }
  }
  // One directory sync per directory makes every rename durable.
  std::vector<std::string> dirs;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!written[i]) continue;
    const std::string path = full(batch[i].path);
    const std::string tmp = path + ".tmp";
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      ::unlink(tmp.c_str());
      ok = false;
      continue;
    }
    std::string dir = parent_of(path);
    if (std::find(dirs.begin(), dirs.end(), dir) == dirs.end()) {
      dirs.push_back(std::move(dir));
    }
  }
  for (const std::string& dir : dirs) sync_dir(dir);
  return ok;
}

bool FileBackend::write_file_atomic(const std::string& path,
                                    std::span<const std::uint8_t> data) {
  const AtomicWrite one{path, data};
  return write_file_atomic(std::span(&one, 1));
}

bool FileBackend::remove_file(const std::string& path) {
  if (::unlink(full(path).c_str()) != 0) return false;
  sync_dir(parent_of(full(path)));
  return true;
}

std::unique_ptr<AppendFile> FileBackend::open_append(
    const std::string& path) {
  if (!ensure_parent_dir(path)) return nullptr;
  const int fd =
      ::open(full(path).c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    CLASH_ERROR << "cannot open wal segment " << full(path) << ": "
                << std::strerror(errno);
    return nullptr;
  }
  struct stat st{};
  const std::uint64_t size = ::fstat(fd, &st) == 0 ? st.st_size : 0;
  // A freshly created segment's directory entry must survive the next
  // power cut, or recovery would miss a whole (synced) segment.
  if (size == 0) sync_dir(parent_of(full(path)));
  return std::make_unique<PosixAppendFile>(fd, size);
}

// ---------------------------------------------------------------------------
// MemBackend.
// ---------------------------------------------------------------------------

class MemBackend::MemAppendFile final : public AppendFile {
 public:
  MemAppendFile(MemBackend& backend, std::string path)
      : backend_(backend), path_(std::move(path)) {}

  bool append(std::span<const std::uint8_t> data) override {
    File& f = backend_.files_[path_];
    f.data.insert(f.data.end(), data.begin(), data.end());
    backend_.last_appended_ = path_;
    return true;
  }

  bool sync() override {
    File& f = backend_.files_[path_];
    f.synced = f.data.size();
    return true;
  }

  [[nodiscard]] std::uint64_t size() const override {
    const auto it = backend_.files_.find(path_);
    return it == backend_.files_.end() ? 0 : it->second.data.size();
  }

 private:
  MemBackend& backend_;
  std::string path_;
};

std::vector<std::string> MemBackend::list(const std::string& dir) {
  std::vector<std::string> out;
  const std::string prefix = dir + "/";
  for (const auto& [path, _] : files_) {
    if (path.rfind(prefix, 0) != 0) continue;
    // Non-recursive, like readdir.
    if (path.find('/', prefix.size()) != std::string::npos) continue;
    out.push_back(path);
  }
  return out;  // map order is already sorted
}

bool MemBackend::read_file(const std::string& path,
                           std::vector<std::uint8_t>& out) {
  const auto it = files_.find(path);
  if (it == files_.end()) return false;
  out = it->second.data;
  return true;
}

bool MemBackend::write_file_atomic(const std::string& path,
                                   std::span<const std::uint8_t> data) {
  File f;
  f.data.assign(data.begin(), data.end());
  f.synced = f.data.size();  // atomic writes land durable in full
  files_[path] = std::move(f);
  return true;
}

bool MemBackend::remove_file(const std::string& path) {
  return files_.erase(path) > 0;
}

std::unique_ptr<AppendFile> MemBackend::open_append(const std::string& path) {
  files_.try_emplace(path);
  return std::make_unique<MemAppendFile>(*this, path);
}

void MemBackend::crash() {
  if (fault_.drop_unsynced) {
    for (auto& [_, f] : files_) {
      if (f.data.size() > f.synced) f.data.resize(f.synced);
    }
  }
  if (fault_.torn_tail_bytes > 0 && !last_appended_.empty()) {
    const auto it = files_.find(last_appended_);
    if (it != files_.end()) {
      auto& data = it->second.data;
      const std::size_t cut =
          std::min<std::size_t>(fault_.torn_tail_bytes, data.size());
      data.resize(data.size() - cut);
      if (it->second.synced > data.size()) it->second.synced = data.size();
    }
  }
}

bool MemBackend::corrupt(const std::string& path, std::size_t offset,
                         std::uint8_t mask) {
  const auto it = files_.find(path);
  if (it == files_.end() || offset >= it->second.data.size()) return false;
  it->second.data[offset] ^= mask;
  return true;
}

std::uint64_t MemBackend::bytes_stored() const {
  std::uint64_t total = 0;
  for (const auto& [_, f] : files_) total += f.data.size();
  return total;
}

}  // namespace clash::storage
