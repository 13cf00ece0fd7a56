//===- IoEnv.cpp - Injectable I/O environment ----------------------------------//

#include "support/IoEnv.h"

#include <atomic>
#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

namespace veriopt {

//===--- Passthrough base ------------------------------------------------------//

int IoEnv::open(const char *Path, int Flags, mode_t Mode) {
  return ::open(Path, Flags, Mode);
}

ssize_t IoEnv::write(int Fd, const void *Buf, size_t N) {
  return ::write(Fd, Buf, N);
}

int IoEnv::fsync(int Fd) { return ::fsync(Fd); }

int IoEnv::rename(const char *From, const char *To) {
  return std::rename(From, To);
}

int IoEnv::close(int Fd) { return ::close(Fd); }

int IoEnv::flock(int Fd, int Op) { return ::flock(Fd, Op); }

int IoEnv::unlink(const char *Path) { return ::unlink(Path); }

IoEnv &IoEnv::system() {
  static IoEnv E;
  return E;
}

namespace {
// Zero-initialized (constant-init, no static-order hazards): null means
// "the passthrough", so the default costs exactly one relaxed load.
std::atomic<IoEnv *> CurrentEnv{nullptr};
} // namespace

IoEnv *IoEnv::current() {
  IoEnv *E = CurrentEnv.load(std::memory_order_acquire);
  return E ? E : &system();
}

IoEnv *IoEnv::install(IoEnv *E) {
  IoEnv *Prev = CurrentEnv.exchange(E == &system() ? nullptr : E,
                                    std::memory_order_acq_rel);
  return Prev ? Prev : &system();
}

//===--- FaultyIoEnv -----------------------------------------------------------//

/// The destination \p Path stands for: writeFileAtomic stages through
/// "<path>.tmp.<pid>.<seq>", and both the exemption and the fault key
/// belong to <path>, so neither depends on the pid or on how many atomic
/// writes the process made before.
static std::string logicalPath(const char *Path) {
  std::string P = Path;
  size_t Tmp = P.rfind(".tmp.");
  if (Tmp == std::string::npos)
    return P;
  unsigned Dots = 0;
  for (size_t I = Tmp + 5; I < P.size(); ++I) {
    if (P[I] == '.')
      ++Dots;
    else if (P[I] < '0' || P[I] > '9')
      return P;
  }
  if (Dots == 1)
    P.resize(Tmp);
  return P;
}

bool FaultyIoEnv::exempt(const std::string &Logical) {
  std::lock_guard<std::mutex> L(M);
  for (const std::string &S : Exempt)
    if (Logical.size() >= S.size() &&
        Logical.compare(Logical.size() - S.size(), S.size(), S) == 0)
      return true;
  return false;
}

uint64_t FaultyIoEnv::nextKey(const std::string &Logical) {
  uint64_t Ordinal;
  {
    std::lock_guard<std::mutex> L(M);
    Ordinal = PathOps[Logical]++;
  }
  // SplitMix64-style mix of (path hash, ordinal): the Nth operation on a
  // given path always decides the same way for a given seed, independent
  // of what other paths (or threads) are doing.
  uint64_t Z =
      FaultInjector::hashKey(Logical) + 0x9e3779b97f4a7c15ULL * (Ordinal + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

int FaultyIoEnv::shapeErrno(uint64_t Key) {
  // The errno classes real storage throws at durable writers. Chosen by
  // key so a given failing operation always reports the same errno.
  switch (Key % 3) {
  case 0:
    return ENOSPC;
  case 1:
    return EIO;
  default:
    return EDQUOT;
  }
}

int FaultyIoEnv::open(const char *Path, int Flags, mode_t Mode) {
  const std::string P = logicalPath(Path);
  if (exempt(P)) {
    int Fd = IoEnv::open(Path, Flags, Mode);
    // The kernel may hand back a descriptor whose earlier owner was closed
    // behind this env's back; its path must not fault this exempt file.
    if (Fd >= 0) {
      std::lock_guard<std::mutex> L(M);
      FdPath.erase(Fd);
    }
    return Fd;
  }
  uint64_t Key = nextKey(P);
  if (FI.shouldInject(FaultSite::IoOpen, Key)) {
    errno = shapeErrno(Key);
    return -1;
  }
  int Fd = IoEnv::open(Path, Flags, Mode);
  if (Fd >= 0) {
    std::lock_guard<std::mutex> L(M);
    FdPath[Fd] = P;
  }
  return Fd;
}

ssize_t FaultyIoEnv::write(int Fd, const void *Buf, size_t N) {
  std::string P;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = FdPath.find(Fd);
    if (It == FdPath.end())
      return IoEnv::write(Fd, Buf, N); // not ours (stdio etc.)
    P = It->second;
  }
  uint64_t Key = nextKey(P);
  if (FI.shouldInject(FaultSite::IoWrite, Key)) {
    errno = shapeErrno(Key);
    return -1;
  }
  if (N > 1 && FI.shouldInject(FaultSite::IoShortWrite, Key)) {
    // A real short write: the prefix lands on disk (that is the torn-write
    // hazard), and >= 1 byte of progress keeps retry loops terminating.
    return IoEnv::write(Fd, Buf, N / 2);
  }
  return IoEnv::write(Fd, Buf, N);
}

int FaultyIoEnv::fsync(int Fd) {
  std::string P;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = FdPath.find(Fd);
    if (It == FdPath.end())
      return IoEnv::fsync(Fd);
    P = It->second;
  }
  uint64_t Key = nextKey(P);
  if (FI.shouldInject(FaultSite::IoFsync, Key)) {
    errno = shapeErrno(Key);
    return -1;
  }
  return IoEnv::fsync(Fd);
}

int FaultyIoEnv::rename(const char *From, const char *To) {
  const std::string T = logicalPath(To);
  if (exempt(T))
    return IoEnv::rename(From, To);
  uint64_t Key = nextKey(T);
  if (FI.shouldInject(FaultSite::IoRename, Key)) {
    errno = shapeErrno(Key);
    return -1;
  }
  return IoEnv::rename(From, To);
}

int FaultyIoEnv::close(int Fd) {
  {
    std::lock_guard<std::mutex> L(M);
    FdPath.erase(Fd);
  }
  // close(2) failures are not injected: every caller treats close purely
  // as a resource release after the fsync already made data durable, and a
  // leaked-fd simulation would poison unrelated tests.
  return IoEnv::close(Fd);
}

int FaultyIoEnv::flock(int Fd, int Op) {
  std::string P;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = FdPath.find(Fd);
    if (It == FdPath.end())
      return IoEnv::flock(Fd, Op);
    P = It->second;
  }
  uint64_t Key = nextKey(P);
  if (FI.shouldInject(FaultSite::IoFlock, Key)) {
    errno = EIO; // flock failures are media/filesystem errors, not quota
    return -1;
  }
  return IoEnv::flock(Fd, Op);
}

//===--- RecordingIoEnv --------------------------------------------------------//

int RecordingIoEnv::open(const char *Path, int Flags, mode_t Mode) {
  int Fd = IoEnv::open(Path, Flags, Mode);
  if (Fd >= 0) {
    struct stat St;
    bool IsDir = ::fstat(Fd, &St) == 0 && S_ISDIR(St.st_mode);
    {
      std::lock_guard<std::mutex> L(M);
      FdInfo[Fd] = {Path, IsDir};
    }
    Op O;
    O.K = Op::Kind::Open;
    O.Path = Path;
    O.Flags = Flags;
    O.IsDir = IsDir;
    push(std::move(O));
  }
  return Fd;
}

ssize_t RecordingIoEnv::write(int Fd, const void *Buf, size_t N) {
  ssize_t R = IoEnv::write(Fd, Buf, N);
  if (R > 0) {
    std::pair<std::string, bool> Info;
    {
      std::lock_guard<std::mutex> L(M);
      auto It = FdInfo.find(Fd);
      if (It == FdInfo.end())
        return R;
      Info = It->second;
    }
    Op O;
    O.K = Op::Kind::Write;
    O.Path = Info.first;
    O.Data.assign(static_cast<const char *>(Buf), static_cast<size_t>(R));
    push(std::move(O));
  }
  return R;
}

int RecordingIoEnv::fsync(int Fd) {
  int R = IoEnv::fsync(Fd);
  if (R == 0) {
    std::pair<std::string, bool> Info;
    {
      std::lock_guard<std::mutex> L(M);
      auto It = FdInfo.find(Fd);
      if (It == FdInfo.end())
        return R;
      Info = It->second;
    }
    Op O;
    O.K = Op::Kind::Fsync;
    O.Path = Info.first;
    O.IsDir = Info.second;
    push(std::move(O));
  }
  return R;
}

int RecordingIoEnv::rename(const char *From, const char *To) {
  int R = IoEnv::rename(From, To);
  if (R == 0) {
    Op O;
    O.K = Op::Kind::Rename;
    O.Path = From;
    O.Path2 = To;
    push(std::move(O));
  }
  return R;
}

int RecordingIoEnv::close(int Fd) {
  std::pair<std::string, bool> Info;
  bool Known = false;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = FdInfo.find(Fd);
    if (It != FdInfo.end()) {
      Info = It->second;
      Known = true;
      FdInfo.erase(It);
    }
  }
  int R = IoEnv::close(Fd);
  if (R == 0 && Known) {
    Op O;
    O.K = Op::Kind::Close;
    O.Path = Info.first;
    O.IsDir = Info.second;
    push(std::move(O));
  }
  return R;
}

int RecordingIoEnv::flock(int Fd, int FlockOp) {
  int R = IoEnv::flock(Fd, FlockOp);
  if (R == 0) {
    std::pair<std::string, bool> Info;
    {
      std::lock_guard<std::mutex> L(M);
      auto It = FdInfo.find(Fd);
      if (It == FdInfo.end())
        return R;
      Info = It->second;
    }
    Op O;
    O.K = Op::Kind::Flock;
    O.Path = Info.first;
    O.Flags = FlockOp;
    push(std::move(O));
  }
  return R;
}

int RecordingIoEnv::unlink(const char *Path) {
  int R = IoEnv::unlink(Path);
  if (R == 0) {
    Op O;
    O.K = Op::Kind::Unlink;
    O.Path = Path;
    push(std::move(O));
  }
  return R;
}

} // namespace veriopt
