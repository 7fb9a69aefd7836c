#include "clocksync/sync_phase.hpp"

#include <vector>

#include "util/error.hpp"

namespace loki::clocksync {
namespace {

/// Phase-wide context plus per-pair chain state, stack-allocated in
/// run_sync_phase (which blocks until the phase drains, so raw pointers in
/// event captures are safe). Each pair schedules its next message from the
/// previous one instead of pre-queueing every (pair, k) event: the kernel
/// heap stays a handful of entries deep, and every capture is pointer-sized
/// (within Task's inline budget) instead of a heap-fallback closure.
struct SyncCtx {
  sim::World* world{nullptr};
  SyncPhaseParams params;
  SyncData* out{nullptr};
  int remaining{0};
};

struct PairChain {
  SyncCtx* ctx{nullptr};
  sim::ProcessId from;
  sim::ProcessId to;
  sim::HostId from_host;
  sim::HostId to_host;
  std::uint32_t from_id;  // positions in run_sync_phase's `hosts`
  std::uint32_t to_id;
  SimTime first_fire;
  int sent{0};
};

void fire_message(PairChain* pair) {
  SyncCtx* ctx = pair->ctx;
  // Sender stamps inside its own execution context.
  ctx->world->post(pair->from, ctx->params.stamp_cost, [pair] {
    SyncCtx* ctx = pair->ctx;
    const LocalTime send_stamp = ctx->world->clock_read(pair->from_host);
    ctx->world->send(pair->from, pair->to, sim::Lan::Control,
                     sim::ChannelClass::Tcp, ctx->params.stamp_cost,
                     [pair, send_stamp] {
                       SyncCtx* ctx = pair->ctx;
                       const LocalTime recv_stamp =
                           ctx->world->clock_read(pair->to_host);
                       ctx->out->push_back(SyncSample{
                           pair->from_id, pair->to_id, send_stamp, recv_stamp});
                       --ctx->remaining;
                     });
  });
  if (++pair->sent < ctx->params.messages_per_pair) {
    const SimTime next =
        pair->first_fire +
        ctx->params.spacing * static_cast<std::int64_t>(pair->sent);
    ctx->world->at(next, [pair] { fire_message(pair); });
  }
}

}  // namespace

SimTime run_sync_phase(sim::World& world, const std::vector<sim::HostId>& hosts,
                       const SyncPhaseParams& params, SyncData& out) {
  LOKI_REQUIRE(params.messages_per_pair > 0, "need at least one sync message");
  if (hosts.size() < 2) return world.now();

  // One ephemeral stamper process per host.
  std::vector<sim::ProcessId> stampers;
  stampers.reserve(hosts.size());
  for (const sim::HostId h : hosts)
    stampers.push_back(world.spawn(h, "getstamps@" + world.host_name(h)));

  SyncCtx ctx;
  ctx.world = &world;
  ctx.params = params;
  ctx.out = &out;

  const SimTime phase_start = world.now();
  std::vector<PairChain> pairs;
  pairs.reserve(hosts.size() * (hosts.size() - 1));
  std::size_t pair_index = 0;
  for (std::size_t a = 0; a < hosts.size(); ++a) {
    for (std::size_t b = 0; b < hosts.size(); ++b) {
      if (a == b) continue;
      // Stagger pairs so the control LAN is not hit by all pairs at once.
      const Duration stagger =
          microseconds(137) * static_cast<std::int64_t>(pair_index++);
      pairs.push_back(PairChain{&ctx, stampers[a], stampers[b], hosts[a],
                                hosts[b], static_cast<std::uint32_t>(a),
                                static_cast<std::uint32_t>(b),
                                phase_start + stagger, 0});
      ctx.remaining += params.messages_per_pair;
    }
  }
  // One sample per message; reserving up front keeps the recording lambdas
  // above from reallocating mid-phase.
  out.reserve(out.size() + static_cast<std::size_t>(ctx.remaining));
  for (PairChain& pair : pairs) {
    PairChain* p = &pair;
    world.at(pair.first_fire, [p] { fire_message(p); });
  }

  // Drive the world until every sample has been recorded.
  const Duration total_span =
      params.spacing * params.messages_per_pair + milliseconds(200);
  SimTime limit = phase_start + total_span;
  while (ctx.remaining > 0) {
    world.run_until(limit);
    if (ctx.remaining > 0) limit += milliseconds(100);
    LOKI_REQUIRE(limit < phase_start + seconds(600),
                 "sync phase failed to complete");
  }

  // Clean up stampers.
  for (const sim::ProcessId pid : stampers) world.kill(pid);
  return world.now();
}

}  // namespace loki::clocksync
