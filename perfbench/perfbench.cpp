// tmkgm_perfbench — end-to-end and per-layer benchmark of the simulated
// TreadMarks cluster on the paper's four applications at their 16-node
// evaluation sizes (EXPERIMENTS.md E3).
//
//   tmkgm_perfbench --workload jacobi|sor|tsp|fft --seed N --seconds S
//                    --trace 0|1
//
// A round runs the workload once on a 16-node FAST/GM cluster and once on
// a 16-node UDP/GM cluster (homeless LRC, sequential engine). The simulator
// is deterministic and the application inputs are the fixed paper-sized
// problems (each one's cost is set by its geometry or, for TSP, its city
// map, so seeding them would measure the inputs rather than the
// simulator); the seed only chooses the order of the two substrates in
// each round. Rounds repeat until --seconds of host time have passed, and
// each simulated run is bracketed by timings of a fixed native probe.
// Every run's checksum is compared with the serial reference, and every
// run's virtual time with the first run on the same substrate: any drift
// counts as a failed run.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are end to end: the simulation
// slowdown per substrate (host time of a simulated run over host time of
// the probe, median over rounds), the set-up time (cluster bring-up), and
// how far the simulated FAST/GM-over-UDP/GM factor sits from the paper's.
// With --trace 1 each run is made twice, plain and with the obs tracer and
// the re-cost capture installed, and the metrics split the work by layer:
// virtual CPU time per layer, protocol and transport counts, and host time
// at each layer boundary this program calls across.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <sys/resource.h>

#include "apps/apps.hpp"
#include "cluster/cluster.hpp"
#include "obs/trace.hpp"
#include "recost/capture.hpp"
#include "recost/model.hpp"
#include "util/check.hpp"

using namespace tmkgm;
using cluster::SubstrateKind;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kNodes = 16;
/// Set-up samples, all taken before the first simulated run.
constexpr int kSetupReps = 25;
/// Probe time of the nominal host set-up time is reported for.
constexpr double kProbeNominalMs = 40;
/// Rounds measured even when one round outlasts --seconds.
constexpr int kMinRounds = 3;
constexpr std::array<SubstrateKind, 2> kKinds = {SubstrateKind::FastGm,
                                                 SubstrateKind::UdpGm};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  TMKGM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char* prefix(SubstrateKind kind) {
  return kind == SubstrateKind::FastGm ? "fast" : "udp";
}

/// Fixed native work shaped like the simulator's hot paths, in three
/// stages: a 32K-entry binary heap of pseudo-random keys (the event queue)
/// with, every 16th step, a 4 KB page copy, compare and write-back across
/// an 8 MB region (twins and diffs); rounds of 4096 small heap-allocated
/// callbacks called through pointers and freed (event closures); and first
/// touches of a fresh 16 MB mapping (cluster bring-up). The stages load
/// the host differently, and contention from other tenants slows them by
/// different amounts, so their sum follows a simulated run more closely
/// than any one of them. Its work never changes.
class HostProbe {
 public:
  HostProbe() : pages_(kWords), page_(kPageWords) {
    for (std::size_t i = 0; i < kWords; ++i) pages_[i] = splitmix64(i);
  }

  double run_ms() {
    const auto t0 = Clock::now();
    std::uint64_t h = 12345;
    sink_ = heap_and_pages(h) + callbacks(h) + first_touch();
    return ms_since(t0);
  }

 private:
  std::uint64_t heap_and_pages(std::uint64_t& h) {
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::uint64_t acc = 0;
    for (int i = 0; i < 32768; ++i) heap.push(h = splitmix64(h));
    for (int i = 0; i < 150000; ++i) {
      acc += heap.top();
      heap.pop();
      heap.push(h = splitmix64(h));
      if (i % 16 == 0) {
        std::uint64_t* page = &pages_[(h >> 20) % (kWords / kPageWords) *
                                      kPageWords];
        std::memcpy(page_.data(), page, kPageWords * 8);
        page_[h % kPageWords] ^= h;
        acc += std::memcmp(page_.data(), page, kPageWords * 8) != 0;
        std::memcpy(page, page_.data(), kPageWords * 8);
      }
    }
    return acc;
  }

  static std::uint64_t callbacks(std::uint64_t& h) {
    std::uint64_t acc = 0;
    std::vector<std::unique_ptr<std::function<void()>>> calls;
    calls.reserve(4096);
    for (int round = 0; round < 60; ++round) {
      calls.clear();
      for (int i = 0; i < 4096; ++i) {
        const std::uint64_t key = h = splitmix64(h);
        calls.push_back(std::make_unique<std::function<void()>>(
            [key, &acc] { acc += key; }));
      }
      for (const auto& call : calls) (*call)();
    }
    return acc;
  }

  static std::uint64_t first_touch() {
    constexpr std::size_t kBytes = 16u << 20;
    void* map = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    TMKGM_CHECK(map != MAP_FAILED);
    auto* bytes = static_cast<volatile char*>(map);
    for (std::size_t i = 0; i < kBytes; i += 4096) bytes[i] = 1;
    TMKGM_CHECK(munmap(map, kBytes) == 0);
    return kBytes;
  }

  static constexpr std::size_t kWords = 1u << 20;
  static constexpr std::size_t kPageWords = 512;
  std::vector<std::uint64_t> pages_;
  std::vector<std::uint64_t> page_;
  volatile std::uint64_t sink_ = 0;
};

struct Workload {
  /// FAST/GM-over-UDP/GM execution-time factor the paper reports for the
  /// app on 16 nodes (the anchors EXPERIMENTS.md E3/E4 compare against).
  double paper_factor = 0;
  std::function<apps::AppResult(tmk::Tmk&)> app;
  std::function<double()> serial;
};

bool make_workload(const std::string& name, Workload& w) {
  if (name == "jacobi") {
    const apps::JacobiParams p{2048, 2048, 10};
    w = {1.54, [p](tmk::Tmk& t) { return apps::jacobi(t, p); },
         [p] { return apps::jacobi_serial(p); }};
  } else if (name == "sor") {
    const apps::SorParams p{1000, 256, 10, 1.5};
    w = {6.0, [p](tmk::Tmk& t) { return apps::sor(t, p); },
         [p] { return apps::sor_serial(p); }};
  } else if (name == "tsp") {
    // Split depth 3, as E3 runs it: at depth 4 the UDP/GM run exhausts its
    // request retries at the queue's home node.
    const apps::TspParams p{16, 2003, 3};
    w = {1.84, [p](tmk::Tmk& t) { return apps::tsp(t, p); },
         [p] { return static_cast<double>(apps::tsp_serial(p)); }};
  } else if (name == "fft") {
    const apps::FftParams p{64, 2};
    w = {6.3, [p](tmk::Tmk& t) { return apps::fft3d(t, p); },
         [p] { return apps::fft3d_serial(p); }};
  } else {
    return false;
  }
  return true;
}

cluster::ClusterConfig make_config(SubstrateKind kind) {
  cluster::ClusterConfig cfg;
  cfg.n_procs = kNodes;
  cfg.kind = kind;
  cfg.tmk.arena_bytes = 64u << 20;
  return cfg;
}

/// Host time of standing a cluster up with TreadMarks on every node and
/// tearing it down again, around an empty program.
double bringup_ms(SubstrateKind kind) {
  const auto t0 = Clock::now();
  cluster::Cluster c(make_config(kind));
  c.run_tmk([](tmk::Tmk&, cluster::NodeEnv&) {});
  return ms_since(t0);
}

struct Run {
  bool ok = false;
  double host_ms = 0;
  double checksum = 0;
  SimTime elapsed = 0;
  cluster::RunResult result;
  // Filled by traced runs only.
  std::array<SimTime, obs::kNumCats> cat_busy{};
  SimTime app_busy = 0;
  std::size_t trace_records = 0;
  double export_ms = 0;
};

/// Virtual CPU time of the application's own compute. Tmk::compute_work
/// charges it under Cat::Tmk with a lone AppNsPerWork program, on the
/// quantum's Charge or whole-quantum Busy record. A quantum an interrupt
/// split keeps that program only on its wake event's Sched record; its
/// slices follow as program-less Busy records of the same node, counted
/// here against the quantum's remaining length.
SimTime app_busy(const recost::CaptureData& d) {
  auto is_app = [](const recost::Prog& p) {
    return p.size() == 1 && p[0].code == recost::OpCode::FieldScaled &&
           p[0].f == static_cast<std::uint8_t>(recost::FieldId::AppNsPerWork);
  };
  std::vector<SimTime> split_left(static_cast<std::size_t>(d.n_procs), 0);
  SimTime total = 0;
  for (const recost::Record& r : d.records) {
    if (r.node < 0) continue;
    SimTime& left = split_left[static_cast<std::size_t>(r.node)];
    if (r.kind == recost::RecKind::Sched) {
      if (is_app(r.prog)) left = r.a;
    } else if (r.kind == recost::RecKind::Charge ||
               r.kind == recost::RecKind::Busy) {
      if (is_app(r.prog)) {
        total += r.a;
        left = 0;
      } else if (r.kind == recost::RecKind::Busy && r.prog.empty() &&
                 r.tag == static_cast<std::uint8_t>(obs::Cat::Tmk)) {
        const SimTime slice = std::min(r.a, left);
        total += slice;
        left -= slice;
      }
    }
  }
  return total;
}

Run run_app(const Workload& w, SubstrateKind kind, bool traced) {
  Run r;
  cluster::ClusterConfig cfg = make_config(kind);
  obs::Tracer tracer;
  std::unique_ptr<recost::CaptureSink> capture;
  if (traced) {
    cfg.tracer = &tracer;
    capture = std::make_unique<recost::CaptureSink>(
        kNodes, recost::field_values(cfg.cost));
    cfg.capture = capture.get();
  }
  try {
    const auto t0 = Clock::now();
    cluster::Cluster c(cfg);
    r.result = c.run_tmk([&](tmk::Tmk& t, cluster::NodeEnv& env) {
      const apps::AppResult a = w.app(t);
      if (env.id == 0) r.checksum = a.checksum;
      r.elapsed = std::max(r.elapsed, a.elapsed);
    });
    r.host_ms = ms_since(t0);
    r.ok = true;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "%s run failed: %s\n", prefix(kind), e.what());
    return r;
  }
  if (traced) {
    r.cat_busy = capture->data().orig_cat_busy;
    r.app_busy = app_busy(capture->data());
    r.trace_records = tracer.size();
    const auto t0 = Clock::now();
    const std::string json = obs::chrome_trace_json(tracer.events());
    r.export_ms = ms_since(t0);
    TMKGM_CHECK(!json.empty());
  }
  return r;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: tmkgm_perfbench --workload jacobi|sor|tsp|fft "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      seconds = std::atof(v);
    } else if (std::strcmp(k, "--trace") == 0) {
      trace = std::atoi(v) != 0;
    } else {
      return usage();
    }
  }
  Workload w;
  if (argc % 2 != 1 || !make_workload(workload, w) || seconds <= 0) {
    return usage();
  }

  // The serial reference: the checksum every simulated run must match.
  const auto serial_t0 = Clock::now();
  const double expected = w.serial();
  const double serial_ms = ms_since(serial_t0);

  // The host's speed drifts by tens of percent over seconds when other
  // tenants load it, so host times are reported relative to timings of the
  // fixed host probe taken next to them.
  HostProbe probe;

  // Set-up: standing both clusters up around an empty program, sampled
  // kSetupReps times before any simulated run; samples taken between runs
  // would find a heap the runs have warmed, so their share of the median
  // would move it with the round count. Each sample is the two bring-ups
  // rescaled to a host on which the probe, timed right after them, takes
  // kProbeNominalMs.
  std::vector<double> setup_s, up_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double ms = 0;
    for (SubstrateKind kind : kKinds) {
      up_ms.push_back(bringup_ms(kind));
      ms += up_ms.back();
    }
    setup_s.push_back(ms / 1e3 * kProbeNominalMs / probe.run_ms());
  }

  long attempted = 0, failed = 0;
  // First run per substrate: the warm-up, and the virtual-time reference
  // every later run (traced or not) must reproduce exactly.
  std::array<SimTime, 2> ref_elapsed{};
  std::array<Run, 2> last_traced;
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const Run r = run_app(w, kKinds[k], false);
    if (!r.ok || std::abs(r.checksum - expected) > 1e-6) {
      std::fprintf(stderr, "%s warm-up run is wrong (checksum %.9g, "
                   "expected %.9g)\n", prefix(kKinds[k]), r.checksum, expected);
      return 1;
    }
    ref_elapsed[k] = r.elapsed;
  }

  // Plain runs in time order: substrate index and host time. The probe
  // timed just before plain run i is probe_ms[i], and the simulation
  // slowdown of that run is its host time over the geometric mean of the
  // two probe timings around it.
  std::vector<double> probe_ms;
  std::vector<std::pair<std::size_t, double>> plain;
  std::array<std::vector<double>, 2> plain_ms, traced_ms, ns_per_event;
  std::vector<double> export_ms;
  auto measure = [&](std::size_t k, bool traced) {
    Run r = run_app(w, kKinds[k], traced);
    ++attempted;
    if (!r.ok || std::abs(r.checksum - expected) > 1e-6 ||
        r.elapsed != ref_elapsed[k]) {
      std::fprintf(stderr, "%s run %ld is wrong (checksum %.9g, virtual "
                   "%lld ns)\n", prefix(kKinds[k]), attempted, r.checksum,
                   static_cast<long long>(r.elapsed));
      ++failed;
      return;
    }
    if (traced) {
      traced_ms[k].push_back(r.host_ms);
      if (kKinds[k] == SubstrateKind::FastGm) export_ms.push_back(r.export_ms);
      last_traced[k] = std::move(r);
    } else {
      plain.emplace_back(k, r.host_ms);
      plain_ms[k].push_back(r.host_ms);
      ns_per_event[k].push_back(r.host_ms * 1e6 /
                                static_cast<double>(r.result.events));
    }
  };

  const auto window = Clock::now();
  for (int round = 0; round < kMinRounds || ms_since(window) < seconds * 1e3;
       ++round) {
    const bool udp_first = (splitmix64(seed ^ (round + 1)) & 1) != 0;
    for (std::size_t i = 0; i < kKinds.size(); ++i) {
      const std::size_t k = udp_first ? 1 - i : i;
      probe_ms.push_back(probe.run_ms());
      measure(k, false);
      if (trace) measure(k, true);
    }
  }
  probe_ms.push_back(probe.run_ms());
  if (failed > 0 || plain_ms[0].empty() || plain_ms[1].empty() ||
      (trace && (traced_ms[0].empty() || traced_ms[1].empty()))) {
    print_result(false, attempted, failed, {});
    return 1;
  }
  TMKGM_CHECK(probe_ms.size() == plain.size() + 1);
  std::array<std::vector<double>, 2> slowdown;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    slowdown[plain[i].first].push_back(
        plain[i].second / std::sqrt(probe_ms[i] * probe_ms[i + 1]));
  }

  const double factor = static_cast<double>(ref_elapsed[1]) /
                        static_cast<double>(ref_elapsed[0]);
  std::vector<Metric> m;
  if (!trace) {
    m.push_back({"fast_slowdown_x", median(slowdown[0]), "x"});
    m.push_back({"udp_slowdown_x", median(slowdown[1]), "x"});
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"fidelity_err_pct",
                 100.0 * std::abs(factor / w.paper_factor - 1.0), "%"});
  } else {
    const double plain = median(plain_ms[0]) + median(plain_ms[1]);
    const double traced = median(traced_ms[0]) + median(traced_ms[1]);
    m.push_back({"host.fast_run_ms", median(plain_ms[0]), "ms"});
    m.push_back({"host.udp_run_ms", median(plain_ms[1]), "ms"});
    m.push_back({"host.bringup_ms", median(up_ms), "ms"});
    m.push_back({"host.serial_ms", serial_ms, "ms"});
    m.push_back({"host.probe_ms", median(probe_ms), "ms"});
    m.push_back({"host.fast_ns_per_event", median(ns_per_event[0]), "ns"});
    m.push_back({"host.udp_ns_per_event", median(ns_per_event[1]), "ns"});
    m.push_back({"host.trace_overhead_pct", 100.0 * (traced / plain - 1.0),
                 "%"});
    m.push_back({"host.trace_export_ms", median(export_ms), "ms"});
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m.push_back({"host.max_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024,
                 "MB"});
    m.push_back({"virt.fast_over_udp", factor, "x"});
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      const Run& r = last_traced[k];
      const std::string p = prefix(kKinds[k]);
      SimTime busy = 0;
      for (SimTime b : r.cat_busy) busy += b;
      auto share = [&](obs::Cat cat) {
        return 100.0 * static_cast<double>(r.cat_busy[static_cast<int>(cat)]) /
               static_cast<double>(busy);
      };
      // Simulated CPU time by the layer that charged it. Application
      // compute is charged under tmk, so it is split out of that share;
      // "other" is compute no layer claimed (interrupt entry).
      const double app = 100.0 * static_cast<double>(r.app_busy) /
                         static_cast<double>(busy);
      m.push_back({p + ".app_cpu_pct", app, "%"});
      m.push_back({p + ".tmk_cpu_pct", share(obs::Cat::Tmk) - app, "%"});
      m.push_back({p + ".sub_cpu_pct", share(obs::Cat::Sub), "%"});
      if (kKinds[k] == SubstrateKind::FastGm) {
        m.push_back({p + ".gm_cpu_pct", share(obs::Cat::Gm), "%"});
        m.push_back({p + ".other_cpu_pct", share(obs::Cat::Node), "%"});
      } else {
        m.push_back({p + ".kernel_cpu_pct", share(obs::Cat::Udp), "%"});
      }
      const obs::CounterRegistry& c = r.result.counters;
      auto count = [&](const char* name, const char* counter) {
        m.push_back({p + "." + name, static_cast<double>(c.value(counter)),
                     "count"});
      };
      m.push_back({p + ".events", static_cast<double>(r.result.events),
                   "count"});
      m.push_back({p + ".trace_records", static_cast<double>(r.trace_records),
                   "count"});
      count("page_fetches", "tmk.page_fetches");
      count("diffs_created", "tmk.diffs_created");
      count("diff_bytes", "tmk.diff_bytes_created");
      count("lock_acquires", "tmk.lock_acquires");
      count("sub_requests", "sub.requests_sent");
      count("net_messages", "net.messages");
      count("net_bytes", "net.bytes");
      if (kKinds[k] == SubstrateKind::UdpGm) {
        count("retransmits", "sub.retransmits");
      }
    }
  }
  print_result(true, attempted, failed, m);
  return 0;
}
