//===- IoEnvTest.cpp - Injectable I/O environment tests ----------------------//
//
// The seam's contracts: the passthrough is the default and install/restore
// is exact; FaultyIoEnv decisions are deterministic and schedule-independent
// (a pure function of seed, logical path, and per-path ordinal — never of
// interleaving, the pid or earlier writes); errnos are shaped from the
// classes real storage throws; each fault site produces the documented
// degraded behavior through the real call sites (writeFileAtomic,
// appendFileDurable, FileLock); exempt suffixes spare the whole atomic
// write including its decorated temporary, even on a reused descriptor;
// and the unique-temporary discipline lets two concurrent writers race one
// destination without tearing it.
//
//===----------------------------------------------------------------------===//

#include "support/IoEnv.h"

#include "support/AtomicFile.h"
#include "support/FileLock.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

namespace veriopt {
namespace {

struct IoEnvTest : ::testing::Test {
  std::string Dir;

  void SetUp() override {
    char Tmpl[] = "/tmp/veriopt-ioenv-test-XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
  }
  void TearDown() override {
    std::string Cmd = "rm -rf '" + Dir + "'";
    (void)std::system(Cmd.c_str());
  }

  std::string path(const std::string &Name) const { return Dir + "/" + Name; }

  static std::string slurp(const std::string &P) {
    std::ifstream IS(P, std::ios::binary);
    std::ostringstream SS;
    SS << IS.rdbuf();
    return SS.str();
  }

  static void spit(const std::string &P, const std::string &Text) {
    std::ofstream OS(P, std::ios::binary | std::ios::trunc);
    OS << Text;
  }

  /// Leftover "<name>.tmp.<pid>.<seq>" files in Dir — a failed atomic write
  /// must clean up after itself.
  std::vector<std::string> tempLeftovers() const {
    std::vector<std::string> Out;
    DIR *D = ::opendir(Dir.c_str());
    if (!D)
      return Out;
    while (struct dirent *E = ::readdir(D)) {
      std::string N = E->d_name;
      if (N.find(".tmp.") != std::string::npos)
        Out.push_back(N);
    }
    ::closedir(D);
    return Out;
  }

  /// A FaultyIoEnv with the given sites armed at \p Rate.
  static void arm(FaultInjector &FI, std::initializer_list<FaultSite> Sites,
                  double Rate) {
    for (FaultSite S : Sites)
      FI.enable(S, Rate);
  }
};

//===--- The seam itself ------------------------------------------------------//

TEST_F(IoEnvTest, PassthroughIsDefaultAndInstallRestores) {
  EXPECT_EQ(IoEnv::current(), &IoEnv::system());

  FaultInjector FI(1);
  FaultyIoEnv Faulty(FI);
  {
    ScopedIoEnv Install(&Faulty);
    EXPECT_EQ(IoEnv::current(), &Faulty);
    // The passthrough still works while another env is installed.
    EXPECT_TRUE(writeFileAtomic(path("via_faulty_no_faults.txt"), "ok"));
  }
  EXPECT_EQ(IoEnv::current(), &IoEnv::system());
  EXPECT_EQ(slurp(path("via_faulty_no_faults.txt")), "ok");
}

TEST_F(IoEnvTest, FaultyDecisionsAreScheduleIndependent) {
  // The same (seed, path, per-path ordinal) must decide the same way no
  // matter how operations on *other* paths interleave: run the same
  // per-path open sequences against two same-seed envs — once interleaved
  // A/B/A/B, once all-A-then-all-B — and require identical per-path
  // outcome vectors.
  const std::string A = path("sched_a.bin"), B = path("sched_b.bin");
  auto outcomes = [&](bool Interleaved) {
    FaultInjector FI(42);
    FI.enable(FaultSite::IoOpen, 0.5);
    FaultyIoEnv Env(FI);
    std::vector<bool> AOut, BOut;
    auto tryOpen = [&](const std::string &P, std::vector<bool> &Out) {
      int Fd = Env.open(P.c_str(), O_WRONLY | O_CREAT, 0644);
      Out.push_back(Fd >= 0);
      if (Fd >= 0)
        Env.close(Fd);
    };
    const int N = 32;
    if (Interleaved) {
      for (int I = 0; I < N; ++I) {
        tryOpen(A, AOut);
        tryOpen(B, BOut);
      }
    } else {
      for (int I = 0; I < N; ++I)
        tryOpen(A, AOut);
      for (int I = 0; I < N; ++I)
        tryOpen(B, BOut);
    }
    return std::make_pair(AOut, BOut);
  };

  auto [A1, B1] = outcomes(/*Interleaved=*/true);
  auto [A2, B2] = outcomes(/*Interleaved=*/false);
  EXPECT_EQ(A1, A2);
  EXPECT_EQ(B1, B2);
  // At rate 0.5 over 32 ops both outcomes must actually occur.
  EXPECT_NE(std::count(A1.begin(), A1.end(), true), 0);
  EXPECT_NE(std::count(A1.begin(), A1.end(), false), 0);
}

TEST_F(IoEnvTest, FaultyDecisionsKeyOnTheLogicalPath) {
  // writeFileAtomic stages through "<path>.tmp.<pid>.<seq>", and seq counts
  // every atomic write the process made. Decisions key on <path>, so a seed
  // fails the same writes in a fresh process as in one that wrote other
  // files first: run one write sequence through two same-seed envs, with an
  // unrelated atomic write in between, and require identical outcomes.
  const std::string P = path("logical.bin");
  auto outcomes = [&] {
    FaultInjector FI(2024);
    arm(FI, {FaultSite::IoOpen, FaultSite::IoWrite, FaultSite::IoFsync,
             FaultSite::IoRename},
        0.2);
    FaultyIoEnv Env(FI);
    ScopedIoEnv Install(&Env);
    std::vector<std::string> Out;
    for (int I = 0; I < 32; ++I) {
      std::string Err;
      bool Ok = writeFileAtomic(P, "payload " + std::to_string(I), &Err);
      Out.push_back(Ok ? "ok" : Err);
    }
    return Out;
  };

  std::vector<std::string> First = outcomes();
  ASSERT_TRUE(writeFileAtomic(path("unrelated.bin"), "x"));
  std::vector<std::string> Second = outcomes();
  EXPECT_EQ(First, Second);
  // Both outcomes occur, so the comparison means something.
  const auto Ok = std::count(First.begin(), First.end(), "ok");
  EXPECT_NE(Ok, 0);
  EXPECT_NE(Ok, static_cast<std::ptrdiff_t>(First.size()));
}

TEST_F(IoEnvTest, ErrnoShapedFromRealStorageClasses) {
  FaultInjector FI(7);
  FI.enable(FaultSite::IoOpen, 1.0);
  FaultyIoEnv Env(FI);
  bool SawAny = false;
  for (int I = 0; I < 8; ++I) {
    errno = 0;
    int Fd = Env.open(path("errno_" + std::to_string(I)).c_str(),
                      O_WRONLY | O_CREAT, 0644);
    ASSERT_EQ(Fd, -1);
    EXPECT_TRUE(errno == ENOSPC || errno == EIO || errno == EDQUOT)
        << "unshaped errno " << errno;
    SawAny = true;
  }
  EXPECT_TRUE(SawAny);
}

//===--- Per-site behavior through the real call sites ------------------------//

TEST_F(IoEnvTest, WriteFaultFailsAtomicWriteAndPreservesOld) {
  const std::string P = path("write_fault.txt");
  spit(P, "OLD");
  FaultInjector FI(3);
  FI.enable(FaultSite::IoWrite, 1.0);
  FaultyIoEnv Env(FI);
  ScopedIoEnv Install(&Env);

  std::string Err;
  EXPECT_FALSE(writeFileAtomic(P, "NEW", &Err));
  EXPECT_NE(Err.find("write"), std::string::npos) << Err;
  EXPECT_EQ(slurp(P), "OLD");
  EXPECT_TRUE(tempLeftovers().empty()) << tempLeftovers().front();
}

TEST_F(IoEnvTest, ShortWritesCompleteThroughRetryLoops) {
  // Every write lands only half its bytes, but always >= 1: the writeAll
  // retry loop must still terminate with the full payload on disk.
  const std::string P = path("short_write.txt");
  FaultInjector FI(5);
  FI.enable(FaultSite::IoShortWrite, 1.0);
  FaultyIoEnv Env(FI);
  ScopedIoEnv Install(&Env);

  std::string Payload(4096, 'x');
  Payload += "tail-marker";
  ASSERT_TRUE(writeFileAtomic(P, Payload));
  EXPECT_EQ(slurp(P), Payload);
}

TEST_F(IoEnvTest, RenameFaultLeavesDestinationUntouched) {
  const std::string P = path("rename_fault.txt");
  spit(P, "OLD");
  FaultInjector FI(11);
  FI.enable(FaultSite::IoRename, 1.0);
  FaultyIoEnv Env(FI);
  ScopedIoEnv Install(&Env);

  std::string Err;
  EXPECT_FALSE(writeFileAtomic(P, "NEW", &Err));
  EXPECT_NE(Err.find("rename"), std::string::npos) << Err;
  EXPECT_EQ(slurp(P), "OLD");
  EXPECT_TRUE(tempLeftovers().empty());
}

TEST_F(IoEnvTest, FsyncFaultFailsAppendButOldBytesSurvive) {
  const std::string P = path("fsync_fault.log");
  spit(P, "OLD|");
  FaultInjector FI(13);
  FI.enable(FaultSite::IoFsync, 1.0);
  FaultyIoEnv Env(FI);
  ScopedIoEnv Install(&Env);

  std::string Err;
  EXPECT_FALSE(appendFileDurable(P, "payload", &Err));
  EXPECT_NE(Err.find("append/fsync"), std::string::npos) << Err;
  // An append failure may leave a partial tail — that is the documented
  // hazard consumers frame against — but never rewrites the old bytes.
  std::string Now = slurp(P);
  ASSERT_GE(Now.size(), 4u);
  EXPECT_EQ(Now.substr(0, 4), "OLD|");
  EXPECT_EQ(std::string("payload").compare(0, Now.size() - 4,
                                           Now.substr(4)),
            0)
      << "tail is not a prefix of the payload: " << Now;
}

TEST_F(IoEnvTest, FlockFaultFailsFileLockWithTypedError) {
  FaultInjector FI(17);
  FI.enable(FaultSite::IoFlock, 1.0);
  FaultyIoEnv Env(FI);
  ScopedIoEnv Install(&Env);

  FileLock L;
  std::string Err;
  EXPECT_FALSE(L.lock(path("x.lock"), FileLock::Mode::Exclusive, &Err));
  EXPECT_FALSE(L.held());
  EXPECT_NE(Err.find("flock"), std::string::npos) << Err;
}

TEST_F(IoEnvTest, ExemptSuffixSparesWholeAtomicWrite) {
  // Arm every site at 100%: only the exempt destination may survive — and
  // it must, including the ".tmp.<pid>.<seq>" staging file its payload is
  // actually written through.
  FaultInjector FI(19);
  arm(FI, {FaultSite::IoOpen, FaultSite::IoWrite, FaultSite::IoShortWrite,
           FaultSite::IoFsync, FaultSite::IoRename, FaultSite::IoFlock},
      1.0);
  FaultyIoEnv Env(FI);
  Env.exemptSuffix(".jsonl");
  ScopedIoEnv Install(&Env);

  ASSERT_TRUE(writeFileAtomic(path("gate.jsonl"), "events\n"));
  EXPECT_EQ(slurp(path("gate.jsonl")), "events\n");
  EXPECT_FALSE(writeFileAtomic(path("gate.bin"), "x"));
}

TEST_F(IoEnvTest, ExemptWriteNeverInheritsAClosedDescriptorsPath) {
  // The kernel hands out the lowest free descriptor. An exempt file opened
  // on the number a faulted path just released must not be faulted as that
  // path — whether FileLock released it or a caller closed it behind the
  // env's back.
  FaultInjector FI(29);
  FI.enable(FaultSite::IoWrite, 1.0);
  FaultyIoEnv Env(FI);
  Env.exemptSuffix(".jsonl");
  ScopedIoEnv Install(&Env);

  ASSERT_TRUE(writeFileAtomic(path("a.jsonl"), "a\n"));
  {
    FileLock L;
    ASSERT_TRUE(L.lock(path("x.lock"), FileLock::Mode::Exclusive));
  }
  EXPECT_TRUE(writeFileAtomic(path("b.jsonl"), "b\n"));

  int Fd = Env.open(path("raw.bin").c_str(), O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(Fd, 0);
  ::close(Fd);
  EXPECT_TRUE(writeFileAtomic(path("c.jsonl"), "c\n"));
  EXPECT_EQ(slurp(path("c.jsonl")), "c\n");
  EXPECT_FALSE(writeFileAtomic(path("d.bin"), "d"));
}

TEST_F(IoEnvTest, ForeignFdsPassThrough) {
  // Only descriptors opened *through* the env are fault candidates; fds
  // from elsewhere (stdio, sockets, raw opens) are never touched.
  FaultInjector FI(23);
  arm(FI, {FaultSite::IoWrite, FaultSite::IoFsync}, 1.0);
  FaultyIoEnv Env(FI);

  int Fd = ::open(path("foreign.txt").c_str(), O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(Fd, 0);
  EXPECT_EQ(Env.write(Fd, "ok", 2), 2);
  EXPECT_EQ(Env.fsync(Fd), 0);
  ::close(Fd);
  EXPECT_EQ(slurp(path("foreign.txt")), "ok");
}

//===--- Unique temporaries / two-writer race ----------------------------------//

TEST_F(IoEnvTest, AtomicTempPathIsUniquePerCall) {
  const std::string P = path("dest.json");
  std::string T1 = atomicTempPath(P), T2 = atomicTempPath(P);
  EXPECT_NE(T1, T2);
  EXPECT_EQ(T1.compare(0, P.size() + 5, P + ".tmp."), 0) << T1;
  EXPECT_EQ(T2.compare(0, P.size() + 5, P + ".tmp."), 0) << T2;
}

TEST_F(IoEnvTest, TwoConcurrentWritersNeverTearTheDestination) {
  // Regression for the "<path>.tmp" collision: with a shared temporary
  // name, two racing writers truncate/rename each other's staging file and
  // a torn or empty destination can be published. With per-call unique
  // temporaries the destination is always one writer's complete payload.
  const std::string P = path("contested.json");
  const std::string A(64 * 1024, 'a'), B(64 * 1024, 'b');
  const int Rounds = 40;

  std::thread TA([&] {
    for (int I = 0; I < Rounds; ++I)
      ASSERT_TRUE(writeFileAtomic(P, A));
  });
  std::thread TB([&] {
    for (int I = 0; I < Rounds; ++I)
      ASSERT_TRUE(writeFileAtomic(P, B));
  });
  TA.join();
  TB.join();

  std::string Final = slurp(P);
  EXPECT_TRUE(Final == A || Final == B)
      << "destination torn: " << Final.size() << " bytes, first char '"
      << (Final.empty() ? '?' : Final[0]) << "'";
  EXPECT_TRUE(tempLeftovers().empty()) << tempLeftovers().front();
}

} // namespace
} // namespace veriopt
