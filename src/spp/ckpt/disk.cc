#include "spp/ckpt/disk.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "spp/io/io.h"

// NOTE: all host file I/O in this translation unit goes through the spp::io
// seam (io::File / io::Dir) so the durable layer inherits its fault
// injection and transient/permanent error taxonomy; spp-lint's
// posix-file-io check rejects raw POSIX file calls here.  The ::kill /
// ::getpid below are process APIs, not file I/O.
#include <unistd.h>

namespace spp::ckpt {

namespace {

// "SPPCKPT2" -- bumping the trailing digit is a format-version break on top
// of the explicit version word (belt and braces: old readers reject on the
// magic, new readers explain via the version).  v2 added the trailing
// header CRC: v1 left the header fields -- notably `clock` -- outside any
// checksum, so a single flipped bit there could seed a resume with a wrong
// clock and no diagnostic.
constexpr std::array<char, 8> kMagic = {'S', 'P', 'P', 'C', 'K', 'P', 'T',
                                        '2'};
constexpr std::uint32_t kFormatVersion = 2;
// magic + version + step + clock + payload_size + payload_crc + nregions,
// all covered by a trailing header CRC-32.
constexpr std::size_t kHeaderCovered = 8 + 4 + 8 + 8 + 8 + 4 + 4;
constexpr std::size_t kHeaderBytes = kHeaderCovered + 4;

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Bounds-checked little-endian reader over a byte buffer.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;
  std::string what;  ///< context for error messages.

  void need(std::size_t n) const {
    if (left < n) {
      throw Error("ckpt: " + what + " truncated (need " + std::to_string(n) +
                  " more bytes, have " + std::to_string(left) + ")");
    }
  }
  std::uint32_t get32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t get64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
  void get(void* dst, std::size_t n) {
    need(n);
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
  }
};

// ---------------------------------------------------------------------------
// PerfCounters serialization
// ---------------------------------------------------------------------------
// The CPU count, then every saved counter in PerfCounters::for_each_saved
// order (the table's, arch/perf.h) as one 64-bit word; `flops` rides along
// bit-cast.  The io_* rows are never saved: they describe the host's
// filesystem weather during one process's lifetime, and a resumed process
// must start them at zero.

void save_perf(std::vector<std::uint8_t>& out, const arch::PerfCounters& p) {
  put32(out, static_cast<std::uint32_t>(p.cpu.size()));
  arch::PerfCounters::for_each_saved(p, [&out](const auto& v) {
    put64(out, std::bit_cast<std::uint64_t>(v));
  });
}

arch::PerfCounters load_perf(Reader& r) {
  const std::uint32_t ncpus = r.get32();
  if (ncpus > 4096) {
    throw Error("ckpt: " + r.what + " claims " + std::to_string(ncpus) +
                " CPUs; rejecting as corrupt");
  }
  arch::PerfCounters p(ncpus);
  arch::PerfCounters::for_each_saved(p, [&r](auto& v) {
    v = std::bit_cast<std::remove_reference_t<decltype(v)>>(r.get64());
  });
  return p;
}

// ---------------------------------------------------------------------------
// Durable file plumbing (all through the spp::io seam)
// ---------------------------------------------------------------------------

/// Writes `data` to `path` and fsyncs it before closing.
void write_file_synced(const std::string& path,
                       const std::vector<std::uint8_t>& data) {
  io::File f = io::File::create(path);
  f.write_all(data.data(), data.size());
  f.sync();
  f.close();
}

/// Commits `data` under `final_name` in `dir` via tmp + fsync + atomic
/// rename + directory fsync.  Any failure -- host or injected -- surfaces
/// as io::IoError; the file under the final name is either the old content
/// or the new, never a torn mix (an *injected torn rename* deliberately
/// violates this and must be caught by load-time CRCs).
void commit_file(const std::string& dir, const std::string& final_name,
                 const std::vector<std::uint8_t>& data) {
  const std::string tmp = dir + "/" + final_name + ".tmp";
  const std::string final_path = dir + "/" + final_name;
  write_file_synced(tmp, data);
  io::Dir::rename(tmp, final_path);
  io::Dir::sync(dir);
}

/// Parses "epoch-<digits>.ckpt"; returns false for anything else.
bool parse_epoch_name(const std::string& name, std::uint64_t& step) {
  constexpr const char* kPrefix = "epoch-";
  constexpr const char* kSuffix = ".ckpt";
  if (name.size() <= 6 + 5 || name.compare(0, 6, kPrefix) != 0) return false;
  if (name.compare(name.size() - 5, 5, kSuffix) != 0) return false;
  step = 0;
  for (std::size_t i = 6; i < name.size() - 5; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    step = step * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return true;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  // Bitwise IEEE CRC-32; the checkpoint payloads are small enough that a
  // table-free loop keeps this dependency-light.
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::string Disk::epoch_filename(std::uint64_t step) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "epoch-%" PRIu64 ".ckpt", step);
  return buf;
}

Disk::Disk(std::string dir, bool read_only) : dir_(std::move(dir)) {
  io::Dir::create_all(dir_);
  if (!read_only) acquire_lock();
}

Disk::~Disk() {
  if (locked_) io::Dir::remove(path("LOCK"));
}

void Disk::acquire_lock() {
  const std::string lock = path("LOCK");
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool exists = false;
    try {
      io::File f = io::File::create_exclusive(lock);
      char buf[32];
      const int n = std::snprintf(buf, sizeof buf, "%ld\n",
                                  static_cast<long>(::getpid()));
      f.write_all(buf, static_cast<std::size_t>(n));
      f.close();
      locked_ = true;
      return;
    } catch (const io::IoError& e) {
      if (e.error() != EEXIST) throw;  // real host (or injected) failure.
      exists = true;
    }
    (void)exists;
    // Someone holds the lock.  A live holder is a concurrent writer and a
    // hard error; a dead one (the very SIGKILL --resume recovers from)
    // left a stale lock we take over.
    long pid = 0;
    try {
      const std::vector<std::uint8_t> data = io::File::read_all(lock);
      pid = std::atol(std::string(data.begin(), data.end()).c_str());
    } catch (const io::IoError&) {
      pid = 0;  // racing unlink; retry the create.
    }
    if (pid > 0 && pid != static_cast<long>(::getpid()) &&
        (::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM)) {
      throw Error("ckpt: checkpoint directory '" + dir_ +
                  "' is locked by live writer pid " + std::to_string(pid) +
                  " (concurrent writers would corrupt the epoch set)");
    }
    if (pid == static_cast<long>(::getpid())) {
      throw Error("ckpt: checkpoint directory '" + dir_ +
                  "' is already open for writing by this process");
    }
    io::Dir::remove(lock);  // stale; take over on the next attempt.
  }
  throw Error("ckpt: could not acquire writer lock in '" + dir_ + "'");
}

void Disk::assert_writer() const {
  if (!locked_) {
    throw Error("ckpt: write on a read-only Disk for '" + dir_ +
                "' (writer LOCK not held)");
  }
}

void Disk::write_epoch(const EpochData& epoch) {
  assert_writer();
  const Store::Snapshot& snap = epoch.snapshot;
  if (snap.names.size() != snap.blobs.size()) {
    throw Error("ckpt: epoch snapshot has " +
                std::to_string(snap.names.size()) + " names but " +
                std::to_string(snap.blobs.size()) + " payloads");
  }

  std::vector<std::uint8_t> payload;
  save_perf(payload, epoch.perf);
  for (std::size_t i = 0; i < snap.names.size(); ++i) {
    const std::string& name = snap.names[i];
    const std::vector<std::uint8_t>& blob = snap.blobs[i];
    put32(payload, static_cast<std::uint32_t>(name.size()));
    payload.insert(payload.end(), name.begin(), name.end());
    put64(payload, blob.size());
    put32(payload, crc32(blob.data(), blob.size()));
    payload.insert(payload.end(), blob.begin(), blob.end());
  }

  std::vector<std::uint8_t> file;
  file.reserve(kHeaderBytes + payload.size());
  file.insert(file.end(), kMagic.begin(), kMagic.end());
  put32(file, kFormatVersion);
  put64(file, epoch.step);
  put64(file, epoch.clock);
  put64(file, payload.size());
  put32(file, crc32(payload.data(), payload.size()));
  put32(file, static_cast<std::uint32_t>(snap.names.size()));
  // v2: the header protects itself -- without this, a flipped bit in e.g.
  // `clock` would resume a run from a wrong instant with no diagnostic.
  put32(file, crc32(file.data(), kHeaderCovered));
  file.insert(file.end(), payload.begin(), payload.end());

  commit_file(dir_, epoch_filename(epoch.step), file);
  write_manifest();
}

void Disk::write_manifest() const {
  std::string text = "spp-ckpt manifest v1\n";
  for (const std::uint64_t step : epochs()) {
    text += "epoch " + std::to_string(step) + " " + epoch_filename(step) +
            "\n";
  }
  commit_file(dir_, "MANIFEST",
              std::vector<std::uint8_t>(text.begin(), text.end()));
}

std::vector<std::uint64_t> Disk::epochs() const {
  std::vector<std::uint64_t> steps;
  for (const std::string& name : io::Dir::list(dir_)) {
    std::uint64_t step = 0;
    if (parse_epoch_name(name, step)) steps.push_back(step);
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

EpochData Disk::load_epoch(std::uint64_t step) const {
  const std::string name = epoch_filename(step);
  const std::vector<std::uint8_t> file = io::File::read_all(path(name));

  Reader r{file.data(), file.size(), name};
  std::array<char, 8> magic;
  r.get(magic.data(), magic.size());
  if (magic != kMagic) {
    throw Error("ckpt: " + name + " is not a checkpoint file (bad magic)");
  }
  const std::uint32_t version = r.get32();
  if (version != kFormatVersion) {
    throw Error("ckpt: " + name + " has stale format version " +
                std::to_string(version) + " (this build reads version " +
                std::to_string(kFormatVersion) + ")");
  }
  EpochData epoch;
  epoch.step = r.get64();
  epoch.clock = r.get64();
  const std::uint64_t payload_size = r.get64();
  const std::uint32_t payload_crc = r.get32();
  const std::uint32_t nregions = r.get32();
  const std::uint32_t header_crc = r.get32();
  if (crc32(file.data(), kHeaderCovered) != header_crc) {
    throw Error("ckpt: " + name + " failed its header CRC (corrupt)");
  }
  if (epoch.step != step) {
    throw Error("ckpt: " + name + " claims epoch " +
                std::to_string(epoch.step));
  }
  if (payload_size != r.left) {
    throw Error("ckpt: " + name + " truncated: header promises " +
                std::to_string(payload_size) + " payload bytes, file has " +
                std::to_string(r.left));
  }
  if (crc32(r.p, r.left) != payload_crc) {
    throw Error("ckpt: " + name + " failed its file-level CRC (corrupt)");
  }

  epoch.perf = load_perf(r);
  epoch.snapshot.names.reserve(nregions);
  epoch.snapshot.blobs.reserve(nregions);
  for (std::uint32_t i = 0; i < nregions; ++i) {
    const std::uint32_t name_len = r.get32();
    r.need(name_len);
    std::string region(reinterpret_cast<const char*>(r.p), name_len);
    r.p += name_len;
    r.left -= name_len;
    const std::uint64_t bytes = r.get64();
    const std::uint32_t want_crc = r.get32();
    r.need(bytes);
    std::vector<std::uint8_t> blob(r.p, r.p + bytes);
    r.p += bytes;
    r.left -= bytes;
    if (crc32(blob.data(), blob.size()) != want_crc) {
      throw Error("ckpt: " + name + " region '" + region +
                  "' failed its CRC (corrupt)");
    }
    epoch.snapshot.names.push_back(std::move(region));
    epoch.snapshot.blobs.push_back(std::move(blob));
  }
  if (r.left != 0) {
    throw Error("ckpt: " + name + " has " + std::to_string(r.left) +
                " trailing bytes after the last region");
  }
  return epoch;
}

std::optional<EpochData> Disk::load_newest() const {
  std::vector<std::uint64_t> steps = epochs();
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    const char* why = nullptr;
    std::string text;
    try {
      return load_epoch(*it);
    } catch (const Error& e) {
      text = e.what();
      why = "validation";
    } catch (const io::IoError& e) {
      // Unreadable file (vanished, injected read failure): same fallback
      // as a corrupt one -- degrade the resume point by one interval.
      text = e.what();
      why = "read";
    }
    ++epochs_skipped_;
    std::fprintf(stderr,
                 "ckpt: skipping epoch %llu (%s failure): %s; falling back "
                 "to the previous epoch\n",
                 static_cast<unsigned long long>(*it), why, text.c_str());
  }
  return std::nullopt;
}

}  // namespace spp::ckpt
