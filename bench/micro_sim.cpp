// Microbenchmarks of the simulator's own hot loops (google-benchmark):
// cache-model access rate, hierarchy walks, DES event throughput (a
// monotone burst and a hold model at a fixed pending count), metric
// series lookup, MPI message matching, RNG and kernel trace generation.
// These bound how large an experiment the framework can afford.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/platforms.h"
#include "cache/hierarchy.h"
#include "kernels/membench.h"
#include "mpi/mailbox.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/machine.h"
#include "support/rng.h"

namespace {

void BM_CacheAccess(benchmark::State& state) {
  mb::cache::Cache cache(mb::arch::snowball().caches[0]);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access_line(addr, false));
    addr += 32;
    if (addr >= 64 * 1024) addr = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_HierarchyAccess(benchmark::State& state) {
  mb::cache::Hierarchy h(mb::arch::xeon_x5550());
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.access(addr, 8, false));
    addr += 64;
    if (addr >= 1024 * 1024) addr = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void BM_MachineTouch(benchmark::State& state) {
  mb::sim::Machine m(mb::arch::snowball(),
                     mb::sim::PagePolicy::kConsecutive,
                     mb::support::Rng(1));
  const auto region = m.mmap(256 * 1024);
  std::uint64_t off = 0;
  for (auto _ : state) {
    m.touch(region.vaddr + off, 4, false);
    off = (off + 32) % (256 * 1024);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineTouch);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    mb::sim::EventQueue q;
    int sink = 0;
    for (int i = 0; i < 1000; ++i)
      q.schedule_at(i, [&sink] { ++sink; });
    q.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

// Hold-model event: on firing it schedules its own successor a random
// delay ahead, so the queue stays at its initial pending count. 40 bytes,
// the size of a typical network/MPI capture.
struct HoldEvent {
  mb::sim::EventQueue* queue;
  mb::support::Rng* rng;
  std::uint64_t payload[3];
  void operator()() const { queue->schedule_in(rng->uniform(), *this); }
};
static_assert(sizeof(HoldEvent) == 40);

// Classic hold model: every iteration dequeues the earliest of `pending`
// events and enqueues one at a random time ahead — the steady state of a
// large simulation, where every step sifts through the whole heap.
void BM_EventQueueHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  mb::sim::EventQueue q;
  mb::support::Rng rng(1);
  for (std::size_t i = 0; i < pending; ++i)
    q.schedule_at(rng.uniform(), HoldEvent{&q, &rng, {i, i, i}});
  for (auto _ : state) q.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(1 << 10)->Arg(1 << 16);

// Series lookup in a registry holding `series` labelled counters — what
// building an MPI runtime does twice per rank.
void BM_RegistryLookup(benchmark::State& state) {
  const auto series = static_cast<std::size_t>(state.range(0));
  mb::obs::Registry registry;
  std::vector<mb::obs::Labels> labels;
  labels.reserve(series);
  for (std::size_t i = 0; i < series; ++i) {
    labels.push_back({{"rank", std::to_string(i)}});
    registry.counter("mpi.bytes_sent", labels.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.counter("mpi.bytes_sent", labels[i]));
    i = (i + 7919) % series;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryLookup)->Arg(8192);

// One rank's receive side of a stream of alltoallv occurrences: each
// occurrence brings a fresh tag and p-1 messages that arrive in a shuffled
// order and are received in source order — the matching pattern of the
// BigDFT collective at p = 36 and 192 ranks.
void BM_MailboxChurn(benchmark::State& state) {
  const auto ranks = static_cast<std::uint32_t>(state.range(0));
  mb::support::Rng rng(1);
  std::vector<std::uint32_t> arrival;
  for (const std::size_t i : rng.permutation(ranks - 1))
    arrival.push_back(static_cast<std::uint32_t>(i) + 1);
  using Box = mb::mpi::Mailbox<std::uint64_t>;
  Box box;
  std::int32_t tag = 1 << 16;
  for (auto _ : state) {
    for (const std::uint32_t src : arrival) box.push(Box::key(src, tag), src);
    std::uint64_t bytes = 0;
    for (std::uint32_t src = 1; src < ranks; ++src) {
      box.pop(Box::key(src, tag), bytes);
      benchmark::DoNotOptimize(bytes);
    }
    tag += 4096;
  }
  state.SetItemsProcessed(state.iterations() * (ranks - 1));
}
BENCHMARK(BM_MailboxChurn)->Arg(36)->Arg(192);

void BM_Rng(benchmark::State& state) {
  mb::support::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Rng);

void BM_MembenchTrace(benchmark::State& state) {
  mb::sim::Machine m(mb::arch::snowball(),
                     mb::sim::PagePolicy::kConsecutive,
                     mb::support::Rng(1));
  mb::kernels::MembenchParams p;
  p.array_bytes = 32 * 1024;
  p.passes = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mb::kernels::membench_run(m, p));
  }
  state.SetItemsProcessed(state.iterations() * p.accessed_per_pass() *
                          p.passes);
}
BENCHMARK(BM_MembenchTrace);

}  // namespace

BENCHMARK_MAIN();
