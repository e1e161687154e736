// E13 — Batched reads: DB::MultiGet vs a loop of Get on a cloud-heavy
// RocksMash rig (every level cloud-resident, caches too small to absorb the
// working set). MultiGet snapshots once, coalesces duplicate/adjacent blocks
// and fans cloud misses out in parallel, so a cold batch should beat the
// same keys issued one Get at a time.
//
//   ./bench_multiget [--small|--large|--smoke]
#include <cstdio>

#include "common.h"

using namespace rocksmash;
using namespace rocksmash::bench;

namespace {

// Cloud-heavy variant of the standard rig: all levels live in the cloud and
// the RAM/local caches are tiny, so uniform reads keep missing to the cloud
// and the batch path has real fetch latency to amortize.
SchemeOptions CloudHeavyOptions() {
  SchemeOptions o = DefaultSchemeOptions();
  o.cloud_level_start = 0;
  o.block_cache_bytes = 64 << 10;
  o.local_cache_bytes = 64 << 10;
  // A one-block coalescing window: the looped-Get and MultiGet phases both
  // pay one cloud GET per missed block, so the comparison isolates the
  // parallel fan-out.
  o.cloud_readahead_bytes = 4 << 10;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workdir = "/tmp/rocksmash_bench_multiget";
  Scale scale = ParseScale(argc, argv);
  JsonReport report("multiget");

  DriverSpec spec;
  spec.num_keys = scale.num_keys;
  spec.num_ops = scale.num_ops;
  spec.value_size = scale.value_size;
  spec.distribution = Distribution::kUniform;
  spec.batch_size = 16;

  std::printf("E13 — MultiGet vs looped Get, %llu keys x %zu B, %llu uniform "
              "reads, batch=%d\n\n",
              (unsigned long long)spec.num_keys, spec.value_size,
              (unsigned long long)spec.num_ops, spec.batch_size);
  std::printf("%-16s %12s %10s %10s\n", "mode", "keys/sec", "p50", "p99");

  // Separate rigs for the two modes so both start equally cold (same data,
  // fresh caches); cloud latency dominates either way.
  Rig loop_rig = OpenRig(workdir + "/loop", SchemeKind::kRocksMash,
                         CloudHeavyOptions());
  Rig batch_rig = OpenRig(workdir + "/batch", SchemeKind::kRocksMash,
                          CloudHeavyOptions());
  LoadAndSettle(loop_rig, spec);
  LoadAndSettle(batch_rig, spec);

  auto row = [&](const char* label, const DriverResult& r) {
    std::printf("%-16s %12.0f %10.0f %10.0f\n", label, r.throughput_ops_sec,
                r.latency_us.Percentile(50), r.latency_us.Percentile(99));
    std::fflush(stdout);
    report.AddResult(label, r);
  };

  // Cold: first pass over the freshly-settled stores.
  DriverResult cold_loop = ReadRandom(loop_rig.store.get(), spec);
  row("cold.loop", cold_loop);
  DriverResult cold_multi = MultiGetRandom(batch_rig.store.get(), spec);
  row("cold.multiget", cold_multi);

  // Warm: second pass reuses whatever the caches kept.
  DriverResult warm_loop = ReadRandom(loop_rig.store.get(), spec);
  row("warm.loop", warm_loop);
  DriverResult warm_multi = MultiGetRandom(batch_rig.store.get(), spec);
  row("warm.multiget", warm_multi);

  const double speedup =
      cold_loop.throughput_ops_sec > 0
          ? cold_multi.throughput_ops_sec / cold_loop.throughput_ops_sec
          : 0;
  report.Row("summary");
  report.Metric("cold_speedup", speedup);
  report.Metric(
      "cloud_parallel_gets",
      static_cast<double>(BenchStatistics()->GetTickerCount(
          MULTIGET_CLOUD_PARALLEL_GETS)));
  report.Metric("coalesced_blocks",
                static_cast<double>(BenchStatistics()->GetTickerCount(
                    MULTIGET_COALESCED_BLOCKS)));

  std::printf("\ncold MultiGet speedup over looped Get: %.2fx\n", speedup);
  std::printf("Shape check: cold MultiGet outruns looped Get by overlapping "
              "cloud fetches\n(multiget.cloud.parallel.gets > 0); warm passes "
              "converge as caches absorb reads.\n");
  return 0;
}
