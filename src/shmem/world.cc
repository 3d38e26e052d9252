#include "shmem/world.h"

#include <algorithm>
#include <cstddef>

namespace fcc::shmem {

World::World(gpu::Machine& machine)
    : machine_(machine),
      outstanding_(static_cast<std::size_t>(machine.num_pes()), 0),
      drain_waiters_(static_cast<std::size_t>(machine.num_pes())),
      puts_issued_(static_cast<std::size_t>(machine.num_pes()), 0),
      deferred_(static_cast<std::size_t>(machine.num_shards())) {
  if (machine_.defer_inter_node()) {
    barrier_hook_ =
        machine_.sharded().add_barrier_hook([this] { drain_deferred(); });
  }
}

World::~World() {
  if (barrier_hook_ >= 0) {
    machine_.sharded().remove_barrier_hook(barrier_hook_);
  }
}

void World::issue_put(PeId src, PeId dst, Bytes bytes,
                      std::function<void()> cb) {
  ++puts_issued_[static_cast<std::size_t>(src)];
  start_tracking(src);
  sim::Engine& home = machine_.engine_of(src);
  const TimeNs now = home.now();
  if (machine_.defer_inter_node() &&
      machine_.route_class(src, dst) == hw::RouteClass::kInterNode) {
    // Torus: the route's ring links belong to intermediate nodes, so the
    // reservation itself waits for the barrier's serial replay.
    deferred_[static_cast<std::size_t>(machine_.shard_of(src))]
        .puts.push_back(PendingPut{now, src, dst, bytes, std::move(cb)});
    return;
  }
  // Source-local route state (self, intra-node, or the src NIC / uplink /
  // rail): only this node's PUTs touch it and the node lives on one shard,
  // so reserving at issue time gives the same order at every shard count.
  const TimeNs delivery = machine_.remote_write_time(src, dst, bytes, now);
  const int src_shard = machine_.shard_of(src);
  const int dst_shard = machine_.shard_of(dst);
  if (dst_shard == src_shard) {
    schedule_delivery(home, delivery, src, std::move(cb));
    return;
  }
  // Delivery applies on the destination's shard via the mailbox; tracking
  // finishes at the same instant on the source's own shard.
  if (cb) {
    machine_.sharded().post(src_shard, dst_shard, delivery, std::move(cb));
  }
  auto* self = this;
  home.schedule_at(delivery, [self, src] { self->finish_tracking(src); });
}

void World::drain_deferred() {
  struct Tag {
    TimeNs t;
    PeId src;
    int shard;
    std::size_t idx;
  };
  std::vector<Tag> order;
  std::size_t total = 0;
  for (const DeferredShard& d : deferred_) total += d.puts.size();
  if (total == 0) return;
  order.reserve(total);
  for (int s = 0; s < static_cast<int>(deferred_.size()); ++s) {
    const auto& puts = deferred_[static_cast<std::size_t>(s)].puts;
    for (std::size_t i = 0; i < puts.size(); ++i) {
      order.push_back(Tag{puts[i].t, puts[i].src, s, i});
    }
  }
  // (issue time, src PE, per-shard seq): a total order independent of the
  // shard count — each PE lives on one shard, so its puts keep their issue
  // order there — and therefore the one reservation order of every run.
  std::sort(order.begin(), order.end(), [](const Tag& a, const Tag& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.src != b.src) return a.src < b.src;
    return a.idx < b.idx;
  });
  // The hook runs with every shard stopped, so deliveries go straight onto
  // the destination engines — no mailbox round-trip; replay order assigns
  // the engine tie-break seqs, just as issue order does on the reserve-now
  // path.
  // Conservative lookahead guarantees delivery >= the issuing window's end,
  // so these never schedule into a shard's past.
  for (const Tag& tag : order) {
    PendingPut& p =
        deferred_[static_cast<std::size_t>(tag.shard)].puts[tag.idx];
    const TimeNs delivery =
        machine_.remote_write_time(p.src, p.dst, p.bytes, p.t);
    auto* self = this;
    sim::Engine& src_engine = machine_.engine_of(p.src);
    sim::Engine& dst_engine = machine_.engine_of(p.dst);
    if (&dst_engine == &src_engine) {
      schedule_delivery(dst_engine, delivery, p.src, std::move(p.cb));
    } else {
      // Delivery lands on the destination's shard; tracking finishes at
      // the same instant on the source's own shard.
      if (p.cb) dst_engine.schedule_at(delivery, std::move(p.cb));
      src_engine.schedule_at(delivery,
                             [self, src = p.src] { self->finish_tracking(src); });
    }
  }
  for (DeferredShard& d : deferred_) d.puts.clear();
}

}  // namespace fcc::shmem
