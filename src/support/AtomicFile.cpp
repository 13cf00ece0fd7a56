//===- AtomicFile.cpp - Durable atomic file replacement -----------------------//

#include "support/AtomicFile.h"

#include "support/IoEnv.h"

#include <atomic>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace veriopt {

namespace {

void setErr(std::string *Err, const char *Step) {
  if (Err)
    *Err = std::string(Step) + ": " + std::strerror(errno);
}

/// Write all of \p Payload to \p Fd, retrying short writes and EINTR.
bool writeAll(IoEnv &Io, int Fd, const std::string &Payload) {
  const char *P = Payload.data();
  size_t Left = Payload.size();
  while (Left > 0) {
    ssize_t N = Io.write(Fd, P, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // no progress: treat as failure, never spin
    P += N;
    Left -= static_cast<size_t>(N);
  }
  return true;
}

int fsyncRetry(IoEnv &Io, int Fd) {
  int R;
  do
    R = Io.fsync(Fd);
  while (R != 0 && errno == EINTR);
  return R;
}

std::string parentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return ".";
  if (Slash == 0)
    return "/";
  return Path.substr(0, Slash);
}

} // namespace

std::string atomicTempPath(const std::string &Path) {
  // A bare "<path>.tmp" collides: two concurrent writers to the same
  // destination would truncate/rename each other's temporary mid-write.
  // (pid, per-process counter) makes every call's temporary unique across
  // processes and threads; the destination is still the rendezvous point,
  // so last-rename-wins stays the (atomic) resolution.
  static std::atomic<uint64_t> Seq{0};
  return Path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
         "." + std::to_string(Seq.fetch_add(1, std::memory_order_relaxed));
}

bool appendFileDurable(const std::string &Path, const std::string &Payload,
                       std::string *Err) {
  IoEnv &Io = *IoEnv::current();
  int Fd;
  do
    Fd = Io.open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  while (Fd < 0 && errno == EINTR);
  if (Fd < 0) {
    setErr(Err, "open for append");
    return false;
  }
  // O_APPEND makes each write(2) land at the current end regardless of
  // concurrent appenders; cross-process writers still serialize whole
  // multi-write batches through FileLock so records interleave only at
  // batch granularity.
  if (!writeAll(Io, Fd, Payload) || fsyncRetry(Io, Fd) != 0) {
    setErr(Err, "append/fsync");
    Io.close(Fd);
    return false;
  }
  if (Io.close(Fd) != 0) {
    setErr(Err, "close after append");
    return false;
  }
  return true;
}

bool writeFileAtomic(const std::string &Path, const std::string &Payload,
                     std::string *Err) {
  IoEnv &Io = *IoEnv::current();
  const std::string Tmp = atomicTempPath(Path);
  int Fd = Io.open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644);
  if (Fd < 0) {
    setErr(Err, "open temporary");
    return false;
  }
  // Data must be durable BEFORE the rename publishes the name: otherwise a
  // crash can leave a renamed-but-empty (or torn) file that a resuming
  // driver would read as the shard's result.
  if (!writeAll(Io, Fd, Payload) || fsyncRetry(Io, Fd) != 0) {
    setErr(Err, "write/fsync temporary");
    Io.close(Fd);
    Io.unlink(Tmp.c_str());
    return false;
  }
  if (Io.close(Fd) != 0) {
    setErr(Err, "close temporary");
    Io.unlink(Tmp.c_str());
    return false;
  }
  if (Io.rename(Tmp.c_str(), Path.c_str()) != 0) {
    setErr(Err, "rename");
    Io.unlink(Tmp.c_str());
    return false;
  }
  // Make the rename itself durable. Failure to fsync the directory is not
  // fatal to the caller (the file contents are already safe and visible);
  // report success but do attempt it.
  int DirFd = Io.open(parentDir(Path).c_str(),
                      O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
  if (DirFd >= 0) {
    fsyncRetry(Io, DirFd);
    Io.close(DirFd);
  }
  return true;
}

} // namespace veriopt
