// Machine-profile wire format: round-trip, schema/version gating, corrupt
// input rejection, fingerprint gating, legacy kernel tables and rates, the
// bounded tuned-table slot, and the deterministic derivation of dispatch
// tables from a raw measurement log.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "coll/engine.hpp"
#include "core/sequential.hpp"
#include "perf/tracker.hpp"
#include "perf/tuned.hpp"
#include "tests/testing.hpp"
#include "tune/json.hpp"
#include "tune/profile.hpp"
#include "tune/tuner.hpp"

namespace chase::tune {
namespace {

MachineProfile sample_profile() {
  MachineProfile p;
  p.fingerprint = local_fingerprint();
  p.measurements.push_back({"gemm.f.n768.micro", 1.125e10, "flop/s"});
  p.measurements.push_back({"gemm.d.n768.micro", 6.25e9, "flop/s"});
  p.measurements.push_back({"coll.allreduce.b16384.p4.ring", 1.25e-5, "s"});
  p.tables.coll_algo[int(perf::CollKind::kAllReduce)]
                    [int(perf::MsgClass::kSmallMsg)] =
      int(coll::Algorithm::kRing);
  p.tables.chunk_bytes = 128 << 10;
  return p;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class ProfileTest : public ::testing::Test {
 protected:
  void TearDown() override { uninstall_profile(); }
};

TEST_F(ProfileTest, EncodeDecodeRoundTrip) {
  const MachineProfile p = sample_profile();
  const auto back = decode_profile(encode_profile(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fingerprint.host, p.fingerprint.host);
  EXPECT_EQ(back->fingerprint.cpu, p.fingerprint.cpu);
  EXPECT_EQ(back->fingerprint.threads, p.fingerprint.threads);
  ASSERT_EQ(back->measurements.size(), p.measurements.size());
  EXPECT_EQ(back->measurements[1].name, "gemm.d.n768.micro");
  EXPECT_DOUBLE_EQ(back->measurements[1].value, 6.25e9);
  EXPECT_EQ(back->measurements[1].unit, "flop/s");
  EXPECT_EQ(back->tables.coll_algo[int(perf::CollKind::kAllReduce)]
                                  [int(perf::MsgClass::kSmallMsg)],
            int(coll::Algorithm::kRing));
  EXPECT_EQ(back->tables.chunk_bytes, 128 << 10);
  EXPECT_TRUE(back->tables == p.tables);
  // Untouched entries stay unset.
  EXPECT_EQ(back->tables.coll_algo[int(perf::CollKind::kBroadcast)]
                                  [int(perf::MsgClass::kSmallMsg)],
            -1);
  // The encoder writes no kernel tables and no rates any more.
  const std::string text = encode_profile(p);
  EXPECT_EQ(text.find("gemm_kernel"), std::string::npos);
  EXPECT_EQ(text.find("factor_kernel"), std::string::npos);
  EXPECT_EQ(text.find("rates"), std::string::npos);
}

TEST_F(ProfileTest, FileRoundTrip) {
  const std::string path = temp_path("chase_profile_roundtrip.json");
  std::string error;
  ASSERT_TRUE(save_profile(sample_profile(), path, &error)) << error;
  const auto back = load_profile(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->measurements.size(), 3u);
  std::remove(path.c_str());
}

TEST_F(ProfileTest, LoadReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(load_profile(temp_path("chase_profile_nope.json"), &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

TEST_F(ProfileTest, RejectsVersionBump) {
  std::string text = encode_profile(sample_profile());
  const auto pos = text.find("\"version\": 1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "\"version\": 2");
  std::string error;
  EXPECT_FALSE(decode_profile(text, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST_F(ProfileTest, RejectsForeignSchema) {
  std::string text = encode_profile(sample_profile());
  const auto pos = text.find(kProfileSchema);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string(kProfileSchema).size(), "other.schema");
  std::string error;
  EXPECT_FALSE(decode_profile(text, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST_F(ProfileTest, RejectsTruncatedAndCorruptInput) {
  const std::string text = encode_profile(sample_profile());
  EXPECT_FALSE(decode_profile(text.substr(0, text.size() / 2)));
  EXPECT_FALSE(decode_profile(""));
  EXPECT_FALSE(decode_profile("{{{ not json"));
  EXPECT_FALSE(decode_profile("[1, 2, 3]"));
  EXPECT_FALSE(decode_profile(text + "trailing-junk"));
}

TEST_F(ProfileTest, RejectsIncompleteFingerprint) {
  EXPECT_FALSE(decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "measurements": [], "tables": {}})"));
  EXPECT_FALSE(decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "fingerprint": {"host": "", "cpu": "x", "threads": 4},
          "measurements": [], "tables": {}})"));
}

TEST_F(ProfileTest, UnknownEnumNamesLeaveEntriesUntuned) {
  // A profile written by a hypothetical newer build with more algorithms
  // must still load here; the unknown entries just stay -1.
  const auto p = decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "fingerprint": {"host": "h", "cpu": "c", "threads": 4},
          "measurements": [],
          "tables": {"coll_algo": [
                       {"kind": "allreduce", "msgclass": "small",
                        "algo": "warp9"},
                       {"kind": "scan", "msgclass": "small", "algo": "ring"},
                       {"kind": "allreduce", "msgclass": "huge",
                        "algo": "ring"},
                       {"kind": "broadcast", "msgclass": "large",
                        "algo": "tree"}],
                     "chunk_bytes": 0,
                     "rates": {}}})");
  ASSERT_TRUE(p.has_value());
  for (int k = 0; k < perf::kCollKindCount; ++k) {
    for (int c = 0; c < perf::kMsgClassCount; ++c) {
      const bool tuned = k == int(perf::CollKind::kBroadcast) &&
                         c == int(perf::MsgClass::kLargeMsg);
      EXPECT_EQ(p->tables.coll_algo[k][c],
                tuned ? int(coll::Algorithm::kTree) : -1)
          << "kind " << k << " class " << c;
    }
  }
}

TEST_F(ProfileTest, RetiredBlockedGemmKernelLoadsUntuned) {
  // A profile written while the kernels were tunable — including an entry
  // for the `blocked` GEMM kernel, retired even before that — still loads:
  // its kernel tables and rates are skipped, while the collective table,
  // chunk size and the measurement log come through.
  const auto p = decode_profile(
      R"({"schema": "chase.machine_profile", "version": 1,
          "fingerprint": {"host": "h", "cpu": "c", "threads": 4},
          "measurements": [{"name": "gemm.d.n96.blocked", "value": 9e9,
                            "unit": "flop/s"}],
          "tables": {"gemm_kernel": [
                       {"type": "d", "nclass": "small", "kernel": "blocked"},
                       {"type": "d", "nclass": "large", "kernel": "micro"}],
                     "factor_kernel": [
                       {"nclass": "small", "kernel": "blocked"}],
                     "coll_algo": [
                       {"kind": "allgather", "msgclass": "medium",
                        "algo": "ring"}],
                     "chunk_bytes": 32768,
                     "rates": {"gemm_flops": 5e9, "factor_flops": 2e9,
                               "single_speedup": 1.5}}})");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->tables.coll_algo[int(perf::CollKind::kAllGather)]
                               [int(perf::MsgClass::kMediumMsg)],
            int(coll::Algorithm::kRing));
  EXPECT_EQ(p->tables.chunk_bytes, 32768);
  ASSERT_EQ(p->measurements.size(), 1u);
  EXPECT_EQ(p->measurements[0].name, "gemm.d.n96.blocked");
  // The retired kernel's row derives no table entry on replay.
  EXPECT_TRUE(derive_selections(p->measurements) == perf::TunedTables{});
}

TEST_F(ProfileTest, LegacyKernelTablesAreIgnored) {
  // A version-1 profile for this machine whose kernel tables name the seed
  // kernels for every class — what a tuning run on a loaded host could have
  // written, plus measured rates. Only the collective table and chunk size
  // are read, so a solve under it is bitwise the profile-less solve.
  const Fingerprint fp = local_fingerprint();
  std::string gemm_rows, factor_rows;
  for (const char* type : {"f", "d", "c", "z"}) {
    for (const char* cls : {"small", "medium", "large"}) {
      gemm_rows += std::string(gemm_rows.empty() ? "" : ", ") +
                   "{\"type\": \"" + type + "\", \"nclass\": \"" + cls +
                   "\", \"kernel\": \"naive\"}";
    }
  }
  for (const char* cls : {"small", "medium", "large"}) {
    factor_rows += std::string(factor_rows.empty() ? "" : ", ") +
                   "{\"nclass\": \"" + cls + "\", \"kernel\": \"naive\"}";
  }
  const std::string text =
      R"({"schema": "chase.machine_profile", "version": 1,
          "fingerprint": {"host": )" +
      json::quote(fp.host) + R"(, "cpu": )" + json::quote(fp.cpu) +
      R"(, "threads": )" + std::to_string(fp.threads) + R"(},
          "measurements": [],
          "tables": {"gemm_kernel": [)" +
      gemm_rows + R"(],
                     "factor_kernel": [)" +
      factor_rows + R"(],
                     "coll_algo": [{"kind": "allreduce",
                                    "msgclass": "small", "algo": "tree"}],
                     "chunk_bytes": 131072,
                     "rates": {"gemm_flops": 4e9, "factor_flops": 1.5e9,
                               "single_speedup": 1.75}}})";
  std::string error;
  const auto p = decode_profile(text, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_EQ(p->tables.coll_algo[int(perf::CollKind::kAllReduce)]
                               [int(perf::MsgClass::kSmallMsg)],
            int(coll::Algorithm::kTree));
  EXPECT_EQ(p->tables.chunk_bytes, 131072);

  const auto h = testing::random_hermitian<double>(96, 7);
  core::ChaseConfig cfg;
  cfg.nev = 12;
  cfg.nex = 6;
  const auto plain = core::solve_sequential<double>(h.view(), cfg);
  ASSERT_TRUE(plain.converged);

  ASSERT_TRUE(install_profile(*p));
  const perf::TunedTables* t = perf::tuned_tables();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->chunk_bytes, 131072);
  const auto tuned = core::solve_sequential<double>(h.view(), cfg);
  uninstall_profile();
  ASSERT_TRUE(tuned.converged);

  EXPECT_EQ(tuned.matvecs, plain.matvecs);
  ASSERT_EQ(tuned.eigenvalues.size(), plain.eigenvalues.size());
  for (std::size_t i = 0; i < plain.eigenvalues.size(); ++i) {
    EXPECT_EQ(tuned.eigenvalues[i], plain.eigenvalues[i]) << "i=" << i;
  }
  ASSERT_EQ(tuned.eigenvectors.rows(), plain.eigenvectors.rows());
  ASSERT_EQ(tuned.eigenvectors.cols(), plain.eigenvectors.cols());
  for (la::Index j = 0; j < plain.eigenvectors.cols(); ++j) {
    for (la::Index i = 0; i < plain.eigenvectors.rows(); ++i) {
      ASSERT_EQ(tuned.eigenvectors(i, j), plain.eigenvectors(i, j))
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST_F(ProfileTest, InstallRejectsForeignFingerprintAndCounts) {
  MachineProfile p = sample_profile();
  p.fingerprint.host = "somewhere-else";
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  EXPECT_FALSE(install_profile(p));
  perf::set_thread_tracker(nullptr);
  EXPECT_EQ(tracker.counter("tune.profile.rejected"), 1.0);
  EXPECT_EQ(perf::tuned_tables(), nullptr);
}

TEST_F(ProfileTest, InstallPublishesTablesAndUninstallClears) {
  ASSERT_TRUE(install_profile(sample_profile()));
  const perf::TunedTables* t = perf::tuned_tables();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->chunk_bytes, 128 << 10);
  EXPECT_TRUE(*t == sample_profile().tables);
  uninstall_profile();
  EXPECT_EQ(perf::tuned_tables(), nullptr);
}

TEST_F(ProfileTest, ReinstallingEqualTablesReusesTheRetainedCopy) {
  // A process that reloads the same profiles keeps one copy per distinct
  // table: reinstalling A after B republishes A's first copy.
  const MachineProfile a = sample_profile();
  MachineProfile b = a;
  b.tables.chunk_bytes = 32 << 10;
  ASSERT_TRUE(install_profile(a));
  const perf::TunedTables* first = perf::tuned_tables();
  ASSERT_TRUE(install_profile(b));
  const perf::TunedTables* second = perf::tuned_tables();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->chunk_bytes, 32 << 10);
  ASSERT_TRUE(install_profile(a));
  EXPECT_EQ(perf::tuned_tables(), first);
  EXPECT_EQ(first->chunk_bytes, 128 << 10);
}

TEST_F(ProfileTest, InstallSkipsFingerprintCheckWhenAsked) {
  MachineProfile p = sample_profile();
  p.fingerprint.host = "somewhere-else";
  EXPECT_TRUE(install_profile(p, /*check_fingerprint=*/false));
  EXPECT_NE(perf::tuned_tables(), nullptr);
}

// ---- derive_selections: the deterministic-replay core ----

TEST(DeriveSelections, PicksArgmaxRatesAndArgminSeconds) {
  // The gemm/factor rate rows of older logs stay in as inputs: the tables
  // come from the coll/chunk argmin alone.
  std::vector<RawMeasurement> log = {
      {"gemm.f.n96.micro", 9e9, "flop/s"},
      {"gemm.d.n96.micro", 7e9, "flop/s"},
      {"gemm.d.n700.naive", 1e9, "flop/s"},
      {"gemm.d.n700.micro", 8e9, "flop/s"},
      {"gemm.f.n700.micro", 1.2e10, "flop/s"},
      {"gemm.z.n900.micro", 2e10, "flop/s"},
      {"factor.n96.naive", 2e9, "flop/s"},
      {"factor.n640.naive", 1e9, "flop/s"},
      {"factor.n640.blocked", 3e9, "flop/s"},
      {"coll.allreduce.b16384.p4.naive", 2e-5, "s"},
      {"coll.allreduce.b16384.p4.ring", 1e-5, "s"},
      {"chunk.allreduce.b4194304.c16384", 3e-3, "s"},
      {"chunk.allreduce.b4194304.c65536", 1e-3, "s"},
      {"chunk.allreduce.b4194304.c262144", 2e-3, "s"},
  };
  const perf::TunedTables t = derive_selections(log);
  EXPECT_EQ(t.coll_algo[int(perf::CollKind::kAllReduce)]
                       [int(perf::MsgClass::kSmallMsg)],
            int(coll::Algorithm::kRing));
  EXPECT_EQ(t.chunk_bytes, 64 << 10);
  // Unmeasured classes stay unset.
  EXPECT_EQ(t.coll_algo[int(perf::CollKind::kAllReduce)]
                       [int(perf::MsgClass::kMediumMsg)],
            -1);
  // The gemm.* / factor.* rate rows of older profiles derive nothing:
  // dropping them leaves the tables unchanged.
  std::vector<RawMeasurement> coll_only;
  for (const RawMeasurement& m : log) {
    if (m.name.rfind("gemm.", 0) != 0 && m.name.rfind("factor.", 0) != 0) {
      coll_only.push_back(m);
    }
  }
  ASSERT_EQ(coll_only.size(), 5u);
  EXPECT_TRUE(derive_selections(coll_only) == t);
}

TEST(DeriveSelections, FirstMeasuredWinsTies) {
  std::vector<RawMeasurement> log = {
      {"coll.broadcast.b16384.p4.tree", 2e-5, "s"},
      {"coll.broadcast.b16384.p4.ring", 2e-5, "s"},
      {"chunk.allreduce.b4194304.c65536", 1e-3, "s"},
      {"chunk.allreduce.b4194304.c16384", 1e-3, "s"},
  };
  const perf::TunedTables t = derive_selections(log);
  EXPECT_EQ(t.coll_algo[int(perf::CollKind::kBroadcast)]
                       [int(perf::MsgClass::kSmallMsg)],
            int(coll::Algorithm::kTree));
  EXPECT_EQ(t.chunk_bytes, 64 << 10);
}

TEST(DeriveSelections, IgnoresMalformedNames) {
  std::vector<RawMeasurement> log = {
      {"gemm.d.micro", 1e9, "flop/s"},          // missing size token
      {"gemm.d.nXY.micro", 1e9, "flop/s"},      // non-numeric size
      {"factor.n96", 1e9, "flop/s"},            // missing kernel token
      {"coll.allreduce.b16384.ring", 1e-5, "s"},  // missing rank token
      {"coll.scan.b16384.p4.ring", 1e-5, "s"},  // unknown kind
      {"chunk.allreduce.b4194304.cXY", 1e-3, "s"},
      {"solve.total", 1.0, "s"},                // foreign domain
      {"", 1.0, "s"},
  };
  EXPECT_TRUE(derive_selections(log) == perf::TunedTables{});
}

TEST(DeriveSelections, ReplayIsDeterministic) {
  const std::vector<RawMeasurement> log = {
      {"gemm.d.n768.micro", 4e9, "flop/s"},
      {"gemm.f.n768.micro", 7e9, "flop/s"},
      {"factor.n768.blocked", 5e9, "flop/s"},
      {"coll.broadcast.b2097152.p4.tree", 1e-4, "s"},
      {"chunk.allreduce.b4194304.c16384", 3e-3, "s"},
  };
  const perf::TunedTables a = derive_selections(log);
  const perf::TunedTables b = derive_selections(log);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.coll_algo[int(perf::CollKind::kBroadcast)]
                       [int(perf::MsgClass::kLargeMsg)],
            int(coll::Algorithm::kTree));
  EXPECT_EQ(a.chunk_bytes, 16 << 10);
  // The gemm/factor rate rows in the log change nothing.
  EXPECT_TRUE(a == derive_selections(std::vector<RawMeasurement>(
                       log.begin() + 3, log.end())));
}

}  // namespace
}  // namespace chase::tune
