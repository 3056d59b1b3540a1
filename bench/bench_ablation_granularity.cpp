// Ablation: wire granularity for the dense-gradient AllReduce, measured on
// the real chunked pipeline.
//
// Sweeps allreduce_chunked's chunk_bytes over a multi-MB buffer on a 4-rank
// in-process cluster and times it against the monolithic ring
// (Communicator::allreduce). Finer chunks pipeline the wire but pay
// per-message overhead; the sweep shows where that trade lands, with the
// wire messages each rank sends per AllReduce.
//
// Emits every number as a gauge to BENCH_granularity.json; the CI
// bench-smoke job gates on granularity.default_chunk_us (must not be
// slower than ~1.25x the monolithic path).
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "comm/chunk_plan.h"
#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "comm/communicator.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "obs/metrics.h"

using namespace embrace;
using namespace embrace::comm;

namespace {

constexpr int kRanks = 4;
constexpr int64_t kElems = int64_t{1} << 21;  // 8 MB of floats
constexpr int64_t kDefaultChunk = 256 * 1024;  // the gated configuration

obs::MetricsRegistry registry;

// Times `iters` iterations of an SPMD body over a fresh 4-rank cluster;
// returns rank 0's per-iteration wall clock after one warmup round (which
// also primes the buffer pools).
double time_collective(Fabric& fabric, int iters,
                       const std::function<void(Communicator&)>& body) {
  double us = 0.0;
  run_cluster(fabric, [&](Communicator& c) {
    body(c);  // warmup
    c.barrier();
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) body(c);
    c.barrier();
    if (c.rank() == 0) us = sw.micros() / iters;
  });
  return us;
}

std::vector<float> make_data(int rank) {
  Rng rng(1234 + static_cast<uint64_t>(rank));
  std::vector<float> data(static_cast<size_t>(kElems));
  for (auto& v : data) v = static_cast<float>(rng.next_double()) - 0.5f;
  return data;
}

// Chunked results must be bitwise-equal to the monolithic ring for every
// chunk size (the invariant the trainer's reproducibility rests on).
void check_equality(const std::vector<int64_t>& chunk_sizes) {
  Fabric fabric(kRanks);
  run_cluster(fabric, [&](Communicator& c) {
    const std::vector<float> data = make_data(c.rank());
    std::vector<float> mono = data;
    c.allreduce(mono);
    for (const int64_t chunk : chunk_sizes) {
      std::vector<float> chunked = data;
      allreduce_chunked(c, chunked, chunk);
      EMBRACE_CHECK(std::memcmp(mono.data(), chunked.data(),
                                mono.size() * sizeof(float)) == 0,
                    << "chunked allreduce (chunk_bytes=" << chunk
                    << ") diverged bitwise from the monolithic ring");
    }
  });
}

}  // namespace

int main() {
  std::printf("Ablation: wire granularity — 4-rank ring AllReduce of "
              "%lld floats (%.1f MB), chunked vs monolithic.\n\n",
              static_cast<long long>(kElems),
              static_cast<double>(kElems) * sizeof(float) / 1e6);
  const std::vector<int64_t> chunk_sizes = {16 * 1024, 64 * 1024, 256 * 1024,
                                            1024 * 1024};
  check_equality(chunk_sizes);
  std::puts("bitwise equality chunked vs monolithic: OK");

  constexpr int kIters = 6;
  // Each rank sends one message per wire slice: 2(N-1) ring steps, each
  // its block's slice count (the blocks are equal here).
  const auto msgs_per_rank = [](int64_t chunk) {
    return 2 * (kRanks - 1) *
           ChunkPlan::over(kElems / kRanks, chunk, sizeof(float))
               .num_chunks();
  };
  TextTable t({"chunk", "us/allreduce", "msgs/rank"});
  double mono_us = 0.0;
  {
    Fabric fabric(kRanks);
    std::vector<float> data = make_data(0);
    mono_us = time_collective(fabric, kIters, [&](Communicator& c) {
      std::vector<float> local = data;
      c.allreduce(local);
    });
    registry.gauge("granularity.monolithic_us").set(mono_us);
    t.add_row({"monolithic", TextTable::num(mono_us, 1),
               TextTable::num(static_cast<double>(msgs_per_rank(0)), 0)});
  }
  for (const int64_t chunk : chunk_sizes) {
    Fabric fabric(kRanks);
    std::vector<float> data = make_data(0);
    const double us = time_collective(fabric, kIters, [&](Communicator& c) {
      std::vector<float> local = data;
      allreduce_chunked(c, local, chunk);
    });
    const std::string label = std::to_string(chunk / 1024) + "KB";
    registry.gauge("granularity.allreduce_us{chunk=" + label + "}").set(us);
    if (chunk == kDefaultChunk) {
      registry.gauge("granularity.default_chunk_us").set(us);
    }
    t.add_row({label, TextTable::num(us, 1),
               TextTable::num(static_cast<double>(msgs_per_rank(chunk)), 0)});
  }
  t.print();

  return bench::write_bench_json(registry, "granularity") ? 0 : 1;
}
